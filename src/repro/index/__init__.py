"""Encode-once / score-many retrieval over GraphBinMatch embeddings.

One index class, :class:`ShardedEmbeddingIndex`: ``EmbeddingIndex(trainer)``
builds a directory-less one in memory, ``open_index`` opens an index
directory.
"""

from repro.index.embedding_index import (
    Hit,
    QueryCache,
    graph_fingerprint,
    model_fingerprint,
    ranked_hits,
    score_pairs_tiled,
    validate_k,
    validate_mode,
)
from repro.index.quantizer import CoarseQuantizer
from repro.index.sharded import (
    CODECS,
    INDEX_FORMAT_VERSION,
    EmbeddingIndex,
    ShardedEmbeddingIndex,
    open_index,
)

__all__ = [
    "CODECS",
    "CoarseQuantizer",
    "EmbeddingIndex",
    "Hit",
    "INDEX_FORMAT_VERSION",
    "QueryCache",
    "ShardedEmbeddingIndex",
    "graph_fingerprint",
    "model_fingerprint",
    "open_index",
    "ranked_hits",
    "score_pairs_tiled",
    "validate_k",
    "validate_mode",
]

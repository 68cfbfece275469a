"""Encode-once retrieval helpers and the query-embedding cache.

The paper's retrieval workflows (find the source for a binary fragment,
find the binary for a vulnerable source, §I) score one query against many
candidates.  GraphBinMatch is siamese — ``encode_graphs`` embeds each side
independently and the pair head only consumes the two embeddings — yet the
naive loop re-runs the full GNN encoder for every (query, candidate) pair:
O(Q×C) encoder forwards for Q queries over C candidates.

Retrieval here is encode-once / score-many:

* every graph is embedded **exactly once** through
  :meth:`MatchTrainer.encode_graphs`, keyed by :func:`graph_fingerprint`,
  a content hash, so duplicate adds and repeated queries are cache hits,
  not forwards — :class:`QueryCache` is that cache;
* a query runs one encoder forward, then the lightweight pair head —
  ``score_from_embeddings`` vectorized over the tiled query×candidate
  embedding matrix (:func:`score_pairs_tiled`), covering both
  ``pair_features`` modes — against the whole corpus in a single call:
  O(Q + C) encoder forwards total.

The index that holds entries and answers queries is the one class
:class:`~repro.index.sharded.ShardedEmbeddingIndex`, either in memory
(``EmbeddingIndex(trainer)``, every shard resident, no directory) or as an
index directory.  It is the only code that turns embeddings into
rankings: trainer-scored retrieval in :mod:`repro.eval.retrieval` builds
an in-memory index over its candidates.  This module holds the index's
helpers: fingerprints, argument checks, the pair-head tiling, ranking and
the cache.

Exactness: embeddings are produced in eval mode (BatchNorm running
statistics, no dropout), so index scores match pairwise ``predict`` scores
to float tolerance — see ``tests/test_index.py`` and
``benchmarks/bench_retrieval_scaling.py``.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graphs.programl import ProgramGraph


def model_fingerprint(trainer) -> str:
    """Content hash of the trainer's weights and tokenizer state.

    Embeddings are only meaningful against the exact model that produced
    them; two checkpoints with the same architecture but different weights
    would silently mis-score.  Index manifests record this and opening
    verifies it.
    """
    h = hashlib.sha256()
    for name, arr in sorted(trainer.model.state_dict().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps(trainer.tokenizer.state(), sort_keys=True).encode())
    return h.hexdigest()[:16]


def score_pairs_tiled(
    scorer,
    query_emb: np.ndarray,
    cand_emb: np.ndarray,
    row_budget: int = 16384,
) -> np.ndarray:
    """All query×candidate pair-head scores ``(Q, C)``, chunked.

    The single tiling implementation, shared by the index's exact,
    streamed and ANN scoring passes: queries are repeated
    and candidates tiled into the interleave-ready layout
    ``scorer.score_embeddings`` expects, processed in query chunks so the
    pair-head activation matrix never exceeds ~``row_budget`` rows no
    matter how large Q×C grows.
    """
    queries = np.atleast_2d(np.asarray(query_emb, dtype=np.float32))
    cands = np.atleast_2d(np.asarray(cand_emb, dtype=np.float32))
    num_q, num_c = queries.shape[0], cands.shape[0]
    if num_q == 0 or num_c == 0:
        return np.zeros((num_q, num_c), dtype=np.float32)
    # Chunk both axes: a corpus larger than the budget alone must not
    # defeat the bound.
    c_chunk = min(num_c, max(row_budget, 1))
    q_chunk = max(1, row_budget // c_chunk)
    out = np.empty((num_q, num_c), dtype=np.float32)
    for i in range(0, num_q, q_chunk):
        nq = min(q_chunk, num_q - i)
        for j in range(0, num_c, c_chunk):
            nc = min(c_chunk, num_c - j)
            block = scorer.score_embeddings(
                np.repeat(queries[i : i + nq], nc, axis=0),
                np.tile(cands[j : j + nc], (nq, 1)),
            )
            out[i : i + nq, j : j + nc] = block.reshape(nq, nc)
    return out


def graph_fingerprint(graph: ProgramGraph) -> str:
    """Content hash of a program graph's structure and features.

    Covers everything the encoder consumes — node feature strings, node
    types, per-relation edges and operand positions, source language — and
    deliberately excludes the graph ``name``: structurally identical graphs
    share one embedding.
    """
    h = hashlib.sha256()
    h.update(graph.source_language.encode())
    # One update over a joined buffer per text list (identical byte stream
    # to per-text updates, so digests are stable): hashing is on the
    # serving hot path, where per-node update() calls dominated.
    if graph.node_texts:
        h.update(("\x00".join(graph.node_texts) + "\x00").encode())
    h.update(b"\x01")
    if graph.node_full_texts:
        h.update(("\x00".join(graph.node_full_texts) + "\x00").encode())
    h.update(np.asarray(graph.node_types, dtype=np.int64).tobytes())
    for rel in sorted(graph.edges):
        h.update(rel.encode())
        h.update(np.ascontiguousarray(graph.edges[rel], dtype=np.int64).tobytes())
        pos = graph.positions.get(rel)
        if pos is not None:
            h.update(np.ascontiguousarray(pos, dtype=np.int64).tobytes())
    return h.hexdigest()


@dataclass
class Hit:
    """One retrieval result: entry position, score and its metadata."""

    index: int
    score: float
    meta: dict = field(default_factory=dict)
    key: str = ""


def validate_k(k: Optional[int]) -> None:
    """Reject non-positive ``k`` loudly.

    ``order[:k]`` with a negative ``k`` would silently drop the *top* hits
    from the end of the ranking instead of erroring — the worst possible
    failure mode for a retrieval API.  Any integral type (NumPy ints
    included) is fine; bools and floats are not.
    """
    if k is None:
        return
    if not isinstance(k, numbers.Integral) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer or None, got {k!r}")


def validate_mode(mode: str, nprobe: int) -> None:
    """Reject an unknown ranking ``mode`` or a non-positive ``nprobe`` loudly.

    ``mode`` is ``"exact"`` or ``"ann"``; ``nprobe`` (cells probed per ANN
    query) is held to :func:`validate_k`'s rule in either mode, so a
    server configured with ``nprobe=2.5`` fails when it is built, not on
    every batch it answers.
    """
    if mode not in ("exact", "ann"):
        raise ValueError(f"mode must be 'exact' or 'ann', got {mode!r}")
    if not isinstance(nprobe, numbers.Integral) or isinstance(nprobe, bool) or nprobe < 1:
        raise ValueError(f"nprobe must be a positive integer, got {nprobe!r}")


def normalize_query_batch(
    graphs: Optional[Sequence[ProgramGraph]],
    embeddings: Optional[np.ndarray],
    dim: int,
) -> "Tuple[Optional[np.ndarray], int]":
    """Validate the graphs-xor-embeddings contract of every query method.

    Returns ``(embedding matrix or None, query count)``; raises on
    both/neither arguments or an embedding-width mismatch.
    """
    if (graphs is None) == (embeddings is None):
        raise ValueError("pass exactly one of graphs / embeddings")
    if embeddings is None:
        return None, len(graphs)
    q = np.atleast_2d(np.asarray(embeddings, dtype=np.float32))
    if q.shape[1] != dim:
        raise ValueError(f"query embeddings have dim {q.shape[1]}, index has {dim}")
    return q, q.shape[0]


def key_order(keys: Sequence[str]) -> np.ndarray:
    """Dense rank of each key in ascending key order (equal keys, equal rank).

    :func:`ranked_hits`' key tie-break as integers: computed once per
    entry list and cached by the index, so ranking a query never sorts
    C strings again.
    """
    return np.unique(np.asarray(keys), return_inverse=True)[1]


def ranked_hits(
    scores: np.ndarray,
    keys: Sequence[str],
    metas: Sequence[dict],
    k: Optional[int],
    order: Optional[np.ndarray] = None,
) -> List[Hit]:
    """Descending-score :class:`Hit` list (all entries when ``k`` is None).

    The one ranking implementation of the exact query path (the ANN
    merge breaks ties the same way): descending score, then ascending
    entry key, then entry position (``lexsort`` is stable).  Keying the tie-break on
    content hashes — not positions alone — is what lets exact-vs-ANN
    recall gates and cross-process parity checks survive equal scores,
    where position order would depend on shard layout.

    ``order`` is :func:`key_order` of ``keys`` (computed here when None).
    A top-k query partitions first and sorts only the rows scoring at
    least the k-th best score — ties with it included, so the key
    tie-break still decides among them: O(C + k log k) instead of a full
    sort.  A NaN score, or ``k`` covering every entry, takes the full sort.
    """
    if order is None:
        order = key_order(keys)
    neg = -scores
    if k is None or k >= neg.shape[0] or np.isnan(neg).any():
        # lexsort sorts by the *last* key first: -scores, then key rank.
        ranked = np.lexsort((order, neg))
    else:
        kth = np.partition(neg, k - 1)[k - 1]
        rows = np.flatnonzero(neg <= kth)
        ranked = rows[np.lexsort((order[rows], neg[rows]))]
    if k is not None:
        ranked = ranked[:k]
    return [
        Hit(int(i), float(scores[i]), dict(metas[i]), keys[i]) for i in ranked
    ]


class QueryCache:
    """The encode-once embedding cache every index queries through.

    Two tiers, both keyed by :func:`graph_fingerprint`: a permanent corpus
    cache of entry rows (filled by :meth:`seed_embedding_cache`, so a
    query identical to an indexed entry skips the encoder) and a bounded
    LRU of query rows (a long-lived index serving mostly-unique queries
    would otherwise grow without bound).  ``cache_hits`` /
    ``cache_misses`` count graphs served from either tier / encoded.
    """

    def __init__(self, trainer, query_cache_size: int = 256):  # noqa: D107
        if trainer.model is None:
            raise ValueError("trainer has no trained model")
        self.trainer = trainer
        self.dim = 2 * trainer.config.hidden_dim
        self._cache: Dict[str, np.ndarray] = {}
        self._query_cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.query_cache_size = query_cache_size
        self.cache_hits = 0
        self.cache_misses = 0

    def seed_embedding_cache(self, keys: Sequence[str], embeddings: np.ndarray) -> None:
        """Register precomputed ``key → embedding row`` pairs in the cache.

        Only the permanent corpus cache consulted by :meth:`embed_queries`
        is populated, so queries identical to known graphs skip the
        encoder.  Rows replace any prior binding for the same key; by
        contract the values must be identical (same model, same graph),
        callers only swap storage.
        """
        for key, row in zip(keys, embeddings):
            self._cache[key] = row

    def cached_embedding(self, key: str) -> Optional[np.ndarray]:
        """The cached embedding row for fingerprint ``key``, or None.

        Looks in the corpus cache, then the query LRU (touching the entry),
        and counts a found row as a cache hit exactly as
        :meth:`embed_queries` does.  A miss is not counted: the caller then
        embeds the graph, and :meth:`embed_queries` counts it.
        """
        row = self._cache.get(key)
        if row is None:
            row = self._query_cache.get(key)
            if row is None:
                return None
            self._query_cache.move_to_end(key)
        self.cache_hits += 1
        return row

    def embed_queries(
        self,
        graphs: Sequence[ProgramGraph],
        batch_size: int = 32,
        keys: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Embeddings ``(Q, 2H)`` with every uncached graph batched.

        Graphs matching a cached row reuse it; the others go through
        **one** :meth:`MatchTrainer.encode_graphs` call instead of Q encoder
        invocations — tokenization, graph batching and the segment sorts
        are per-call overheads, so batching them is where ``topk_batch``'s
        speedup comes from — and land in the LRU bounded by
        ``query_cache_size``.

        ``keys`` are the graphs' fingerprints when the caller already has
        them; they are computed here otherwise.
        """
        if keys is None:
            keys = [graph_fingerprint(g) for g in graphs]
        elif len(keys) != len(graphs):
            raise ValueError("keys must match graphs 1:1")
        fresh: Dict[str, ProgramGraph] = {}
        for key, graph in zip(keys, graphs):
            if key in self._cache or key in self._query_cache or key in fresh:
                continue
            fresh[key] = graph
        if fresh:
            embedded = self.trainer.encode_graphs(list(fresh.values()), batch_size)
            for key, row in zip(fresh, embedded):
                self._query_cache[key] = row
        self.cache_misses += len(fresh)
        self.cache_hits += len(graphs) - len(fresh)
        out = np.empty((len(graphs), self.dim), dtype=np.float32)
        for i, key in enumerate(keys):
            if key in self._cache:
                out[i] = self._cache[key]
            else:
                out[i] = self._query_cache[key]
                self._query_cache.move_to_end(key)
        # Trim after copying rows out, so query_cache_size=0 still works.
        while len(self._query_cache) > max(self.query_cache_size, 0):
            self._query_cache.popitem(last=False)
        return out

"""The embedding index: corpus-scale retrieval without re-encoding.

The paper's retrieval workflows (find the source for a binary fragment,
find the binary for a vulnerable source, §I) score one query against many
candidates.  GraphBinMatch is siamese — ``encode_graphs`` embeds each side
independently and the pair head only consumes the two embeddings — yet the
naive loop re-runs the full GNN encoder for every (query, candidate) pair:
O(Q×C) encoder forwards for Q queries over C candidates.

:class:`EmbeddingIndex` restructures that into encode-once / score-many:

* every corpus graph is embedded **exactly once** through
  :meth:`MatchTrainer.encode_graphs`, keyed by a content hash of the graph
  so duplicate adds (and repeated queries) are cache hits, not forwards;
* a query runs one encoder forward, then the lightweight pair head —
  ``score_from_embeddings`` vectorized over the tiled query×candidate
  embedding matrix, covering both ``pair_features`` modes — against the
  whole corpus in a single call: O(Q + C) encoder forwards total.

This index lives in memory.  To embed a corpus once per checkpoint rather
than once per process, persist it with
:meth:`~repro.index.sharded.ShardedEmbeddingIndex.from_index` — the
sharded directory is the one on-disk index format, and it scores
bit-identically to the in-memory index it came from.

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

    The single tiling implementation shared by :meth:`EmbeddingIndex.scores`
    and the fast paths in :mod:`repro.eval.retrieval`: queries are repeated
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


def _require_exact(mode: str) -> None:
    """Shared mode guard for the in-memory (exact-only) index."""
    if mode == "exact":
        return
    if mode == "ann":
        raise ValueError(
            "the in-memory EmbeddingIndex only supports mode='exact'; "
            "build a sharded index with a coarse quantizer "
            "(`repro index build --cells K`) for ANN queries"
        )
    raise ValueError(f"mode must be 'exact' or 'ann', got {mode!r}")


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


def normalize_query_batch(
    graphs: Optional[Sequence[ProgramGraph]],
    embeddings: Optional[np.ndarray],
    dim: int,
) -> "Tuple[Optional[np.ndarray], int]":
    """Validate the graphs-xor-embeddings contract shared by both indexes.

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
    entry list and cached by both indexes, so ranking a query never sorts
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

    The one ranking implementation shared by :class:`EmbeddingIndex` and
    :class:`~repro.index.sharded.ShardedEmbeddingIndex`, so the two always
    break ties identically: descending score, then ascending entry key,
    then entry position (``lexsort`` is stable).  Keying the tie-break on
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


class EmbeddingIndex:
    """Encode-once corpus of graph embeddings answering top-k queries.

    Entries keep insertion order, so :meth:`scores` is aligned with the
    order graphs were :meth:`add`-ed — callers that rank an external
    candidate list (``MatcherPipeline.rank_sources``) rely on this.
    """

    def __init__(self, trainer, query_cache_size: int = 256):  # noqa: D107
        if trainer.model is None:
            raise ValueError("trainer has no trained model")
        self.trainer = trainer
        self.dim = 2 * trainer.config.hidden_dim
        self._cache: Dict[str, np.ndarray] = {}
        # Query embeddings live in a separate bounded LRU: corpus entries
        # must stay (they back `embeddings`), but a long-lived index serving
        # mostly-unique queries would otherwise grow without bound.
        self._query_cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.query_cache_size = query_cache_size
        self._keys: List[str] = []
        self._metas: List[dict] = []
        self._matrix: Optional[np.ndarray] = None
        # key_order(self._keys), dropped with _matrix whenever entries change.
        self._order: Optional[np.ndarray] = None
        # Optional caller-set identity for the corpus behind the entries
        # (e.g. MatcherPipeline stores a hash of its candidate list here);
        # carried into the manifest by ShardedEmbeddingIndex.from_index and
        # checked by callers, not by us.
        self.tag: Optional[str] = None
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------- sizing
    def __len__(self) -> int:
        """Number of indexed entries."""
        return len(self._keys)

    @property
    def keys(self) -> List[str]:
        """Entry content-hash keys, in insertion order (a copy)."""
        return list(self._keys)

    @property
    def metas(self) -> List[dict]:
        """Per-entry metadata copies, in insertion order.

        Copies, so callers can annotate freely without corrupting what
        gets persisted or what integrity checks read.
        """
        return [dict(m) for m in self._metas]

    @property
    def embeddings(self) -> np.ndarray:
        """Entry embeddings ``(C, 2H)`` in insertion order."""
        if self._matrix is None:
            if not self._keys:
                self._matrix = np.zeros((0, self.dim), dtype=np.float32)
            else:
                self._matrix = np.stack([self._cache[k] for k in self._keys])
        return self._matrix

    def _key_order(self) -> np.ndarray:
        if self._order is None:
            self._order = key_order(self._keys)
        return self._order

    # ------------------------------------------------------------ loading
    def add(
        self,
        graphs: Sequence[ProgramGraph],
        metas: Optional[Sequence[dict]] = None,
        batch_size: int = 32,
    ) -> List[str]:
        """Index graphs (with optional per-graph metadata); returns keys.

        Only graphs whose fingerprint is not already cached hit the
        encoder; duplicates — within this call or against earlier adds and
        queries — reuse the cached embedding.
        """
        if metas is None:
            metas = [{} for _ in graphs]
        if len(metas) != len(graphs):
            raise ValueError("metas must match graphs 1:1")
        keys = [graph_fingerprint(g) for g in graphs]
        fresh: Dict[str, ProgramGraph] = {}
        for key, graph in zip(keys, graphs):
            if key in self._cache or key in fresh:
                continue
            if key in self._query_cache:
                # Seen as a query earlier: promote, don't re-encode.
                self._cache[key] = self._query_cache.pop(key)
                continue
            fresh[key] = graph
        if fresh:
            embedded = self.trainer.embed_many(list(fresh.values()), batch_size)
            for key, row in zip(fresh, embedded):
                self._cache[key] = row
        self.cache_misses += len(fresh)
        self.cache_hits += len(graphs) - len(fresh)
        self._keys.extend(keys)
        self._metas.extend(dict(m) for m in metas)
        self._matrix = None
        self._order = None
        return keys

    def add_precomputed(
        self,
        keys: Sequence[str],
        embeddings: np.ndarray,
        metas: Optional[Sequence[dict]] = None,
    ) -> None:
        """Append entries whose embeddings were already computed.

        Used when re-arranging existing indexes — sharding an in-memory
        index, merging shards — where re-encoding would both waste encoder
        passes and (because batch composition perturbs float accumulation
        order) break bit-exact score parity with the original index.
        """
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float32))
        if metas is None:
            metas = [{} for _ in keys]
        if len(keys) != embeddings.shape[0] or len(keys) != len(metas):
            raise ValueError(
                f"{len(keys)} keys for {embeddings.shape[0]} embeddings "
                f"and {len(metas)} metas"
            )
        if len(keys) and embeddings.shape[1] != self.dim:
            raise ValueError(
                f"embeddings have dim {embeddings.shape[1]}, index has {self.dim}"
            )
        for key, row in zip(keys, embeddings):
            self._cache.setdefault(key, row)
        self._keys.extend(keys)
        self._metas.extend(dict(m) for m in metas)
        self._matrix = None
        self._order = None

    def seed_embedding_cache(self, keys: Sequence[str], embeddings: np.ndarray) -> None:
        """Register precomputed ``key → embedding row`` pairs in the cache.

        Adds no entries — only the permanent content-hash cache consulted
        by :meth:`embed_queries` is populated, so queries identical to
        known graphs skip the encoder.  Rows replace
        any prior binding for the same key; by contract the values must be
        identical (same model, same graph), callers only swap storage.
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
        """Query embeddings ``(Q, 2H)`` with every uncached graph batched.

        Queries matching a corpus entry reuse its embedding; other query
        embeddings are kept in an LRU bounded by ``query_cache_size``.
        All graphs not already cached (as corpus entries or earlier
        queries) go through **one** :meth:`MatchTrainer.embed_many` call
        instead of Q encoder invocations — tokenization, graph batching
        and the segment sorts are per-call overheads, so batching them is
        where :meth:`topk_batch`'s speedup comes from.

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
            embedded = self.trainer.embed_many(list(fresh.values()), batch_size)
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

    # ------------------------------------------------------------ queries
    def scores(
        self,
        graph: Optional[ProgramGraph] = None,
        *,
        embedding: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pair-head scores against every entry, in insertion order.

        The query goes on the matcher's *left* (binary) side, entries on
        the right (source) side — the orientation ``MatchingPair`` and the
        training corpus use throughout.  Delegates to :meth:`scores_batch`
        (one row), so validation, the empty-index short-circuit and
        caching live in exactly one place.
        """
        if embedding is not None:
            embedding = np.asarray(embedding, dtype=np.float32).reshape(1, -1)
        return self.scores_batch(
            None if graph is None else [graph], embeddings=embedding
        )[0]

    def scores_batch(
        self,
        graphs: Optional[Sequence[ProgramGraph]] = None,
        *,
        embeddings: Optional[np.ndarray] = None,
        batch_size: int = 32,
    ) -> np.ndarray:
        """All pair-head scores ``(Q, C)`` for Q queries, one tiled pass.

        The batched analogue of :meth:`scores`: queries are encoded
        together (:meth:`embed_queries`) and scored against the whole
        corpus in a single :func:`score_pairs_tiled` call.
        """
        q, num_q = normalize_query_batch(graphs, embeddings, self.dim)
        if not self._keys:
            return np.zeros((num_q, 0), dtype=np.float32)
        if q is None:
            if num_q == 0:
                return np.zeros((0, len(self._keys)), dtype=np.float32)
            q = self.embed_queries(graphs, batch_size)
        return score_pairs_tiled(self.trainer, q, self.embeddings)

    def topk(
        self,
        graph: Optional[ProgramGraph] = None,
        k: Optional[int] = None,
        *,
        embedding: Optional[np.ndarray] = None,
        mode: str = "exact",
        nprobe: Optional[int] = None,
    ) -> List[Hit]:
        """Top-k entries by descending score (all entries when k is None).

        ``mode``/``nprobe`` exist for signature parity with the sharded
        index; the in-memory index is exact-only.
        """
        validate_k(k)
        _require_exact(mode)
        scores = self.scores(graph, embedding=embedding)
        return ranked_hits(scores, self._keys, self._metas, k, self._key_order())

    def topk_batch(
        self,
        graphs: Optional[Sequence[ProgramGraph]] = None,
        k: Optional[int] = None,
        *,
        embeddings: Optional[np.ndarray] = None,
        batch_size: int = 32,
        mode: str = "exact",
        nprobe: Optional[int] = None,
    ) -> List[List[Hit]]:
        """Per-query top-k hit lists for Q queries in one batched pass.

        Rankings match Q separate :meth:`topk` calls (same scores, same
        stable tie-breaks); the win is running one batched encoder pass
        and one tiled pair-head pass instead of Q of each.
        """
        validate_k(k)
        _require_exact(mode)
        scores = self.scores_batch(graphs, embeddings=embeddings, batch_size=batch_size)
        order = self._key_order()
        return [ranked_hits(row, self._keys, self._metas, k, order) for row in scores]

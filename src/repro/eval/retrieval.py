"""Retrieval-style evaluation: rank source candidates for a binary query.

The paper motivates matching through retrieval use cases — find the source
file for a binary fragment (reverse engineering) or the binary for a
vulnerable source file (§I).  This module turns a trained matcher (ranked
through an embedding index) or any pairwise scorer into a ranked-retrieval
evaluator with the standard metrics: MRR, top-k accuracy (Hit@k) and mean
average precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.trainer import MatchTrainer
from repro.data.pairs import MatchingPair
from repro.graphs.programl import ProgramGraph
from repro.index import EmbeddingIndex, graph_fingerprint, validate_k, validate_mode


@dataclass
class RetrievalResult:
    """Aggregate retrieval metrics over a query set."""

    mrr: float
    hit_at: Dict[int, float]
    mean_average_precision: float
    num_queries: int


@dataclass
class RankedQuery:
    """One query's ranking: candidate order and relevance flags."""

    query_task: str
    ranked_tasks: List[str]
    relevant: np.ndarray  # bool per ranked position

    @property
    def first_relevant_rank(self) -> int:
        """1-based rank of the first relevant candidate (0 = none found)."""
        hits = np.flatnonzero(self.relevant)
        return int(hits[0]) + 1 if hits.size else 0


ScoreFn = Callable[[Sequence[MatchingPair]], np.ndarray]

#: A trained matcher (ranked through an embedding index) or any pairwise
#: score function (oracles, baselines, ``trainer.predict``).
Scorer = Union[MatchTrainer, ScoreFn]


def _ranked(
    q_task: str,
    candidates: Sequence[Tuple[ProgramGraph, str]],
    scores: np.ndarray,
) -> RankedQuery:
    order = np.argsort(-scores, kind="stable")
    ranked_tasks = [candidates[i][1] for i in order]
    relevant = np.asarray([q_task == candidates[i][1] for i in order], dtype=bool)
    return RankedQuery(q_task, ranked_tasks, relevant)


def _pairwise_scores(
    score_fn: ScoreFn,
    query: Tuple[ProgramGraph, str],
    candidates: Sequence[Tuple[ProgramGraph, str]],
    batch_size: int,
) -> np.ndarray:
    qg, q_task = query
    pairs = [
        MatchingPair(qg, cg, int(q_task == c_task), q_task, c_task)
        for cg, c_task in candidates
    ]
    return np.concatenate(
        [
            np.atleast_1d(score_fn(pairs[i : i + batch_size]))
            for i in range(0, len(pairs), batch_size)
        ]
    )


def rank_candidates(
    score_fn: Scorer,
    query: Tuple[ProgramGraph, str],
    candidates: Sequence[Tuple[ProgramGraph, str]],
    batch_size: int = 64,
) -> RankedQuery:
    """Score a query graph against every candidate and sort descending.

    ``query`` and each candidate are ``(graph, task_name)``; relevance is
    task equality (the dataset's matching definition, §II).  A
    :class:`~repro.core.trainer.MatchTrainer` scores through an in-memory
    :class:`~repro.index.ShardedEmbeddingIndex` over the candidates: each
    distinct graph is encoded once and only the pair head runs per pair.
    A callable scorer is called on ``MatchingPair`` batches.
    """
    qg, q_task = query
    if isinstance(score_fn, MatchTrainer):
        index = EmbeddingIndex(score_fn)
        index.add([g for g, _ in candidates], batch_size=batch_size)
        scores = index.scores(qg)
    else:
        scores = _pairwise_scores(score_fn, query, candidates, batch_size)
    return _ranked(q_task, candidates, scores)


def evaluate_retrieval(
    score_fn: Optional[Scorer],
    queries: Sequence[Tuple[ProgramGraph, str]],
    candidates: Sequence[Tuple[ProgramGraph, str]],
    ks: Sequence[int] = (1, 3, 5, 10),
    batch_size: int = 64,
    index=None,
    candidate_keys: Optional[Sequence[str]] = None,
    mode: str = "exact",
    nprobe: int = 8,
) -> RetrievalResult:
    """Full retrieval sweep: every query ranked against all candidates.

    Queries whose task has no relevant candidate are skipped (their metrics
    are undefined); if all are skipped the result is all-zero.  Each of
    ``ks`` must be a positive integer.

    Every ranking from embeddings goes through a
    :class:`~repro.index.ShardedEmbeddingIndex` whose entry *i* is
    ``candidates[i]``.  Pass one as ``index`` (in memory or on disk) and
    candidate embeddings come straight from it: zero candidate encoder
    passes, and ``score_fn`` may be None.  Pass the
    :class:`~repro.core.trainer.MatchTrainer` itself (not its ``predict``
    method) without ``index`` and the sweep builds an in-memory index over
    the candidates: O(Q+C) encoder forwards instead of O(Q×C), then all
    Q×C scores from the vectorized pair head.  A callable scorer keeps the
    per-pair path, so oracle/baseline score functions still work.

    With ``index``, a trainer passed alongside must be the model the index
    was built by (:meth:`~repro.index.ShardedEmbeddingIndex.check_model`);
    a callable scorer cannot be checked and is refused.
    ``candidate_keys`` optionally supplies the candidates' precomputed
    :func:`~repro.index.embedding_index.graph_fingerprint` list (entry
    *i* for ``candidates[i]``) so repeated sweeps over one corpus — the
    robustness harness scores the same candidates once per matrix cell —
    skip re-hashing every candidate graph per call; the index is still
    checked against whatever keys are supplied.

    ``mode="ann"`` (index-backed sweeps only) ranks through the index's
    coarse quantizer, probing ``nprobe`` cells per query: unprobed
    candidates score ``-inf`` and therefore rank behind every probed one
    (stable order among themselves), which is exactly the pruning the
    recall gates in ``benchmarks/bench_index_scale.py`` measure.
    """
    for k in ks:
        validate_k(k)
    validate_mode(mode, nprobe)
    if mode == "ann" and index is None:
        raise ValueError("mode='ann' needs index= (a quantizer-trained sharded index)")
    if score_fn is None and index is None:
        raise ValueError("pass a scorer, an index, or both")
    cand_tasks = {c_task for _, c_task in candidates}
    kept = [q for q in queries if q[1] in cand_tasks]
    if index is None and isinstance(score_fn, MatchTrainer) and kept:
        index = EmbeddingIndex(score_fn)
        candidate_keys = index.add([g for g, _ in candidates], batch_size=batch_size)
    if index is not None:
        if len(index) != len(candidates):
            raise ValueError(
                f"index has {len(index)} entries for {len(candidates)} candidates"
            )
        # Entry i must BE candidates[i]: index keys are content hashes of
        # the indexed graphs, so a reordered / foreign index is caught here
        # instead of silently mis-attributing scores to candidates.
        if candidate_keys is None:
            candidate_keys = [graph_fingerprint(g) for g, _ in candidates]
        if index.keys != list(candidate_keys):
            raise ValueError(
                "index entries do not match the candidate graphs (same "
                "graphs in the same order required); rebuild the index "
                "from this candidate list"
            )
        # Scoring runs entirely through the index's model, so a scorer
        # passed alongside must verifiably be that model; a plain callable
        # (bound predict method, oracle fn) cannot be verified and is
        # rejected rather than silently ignored.
        if score_fn is not None:
            if not isinstance(score_fn, MatchTrainer):
                raise ValueError(
                    "a callable scorer cannot be checked against index=; "
                    "pass the trainer itself or score_fn=None"
                )
            index.check_model(score_fn)
        if mode == "ann":
            hit_lists = index.topk_batch(
                [g for g, _ in kept],
                k=None,
                batch_size=batch_size,
                mode="ann",
                nprobe=nprobe,
            )
            all_scores = np.full(
                (len(kept), len(candidates)), -np.inf, dtype=np.float32
            )
            for row, hit_list in zip(all_scores, hit_lists):
                for hit in hit_list:
                    row[hit.index] = hit.score
        else:
            all_scores = index.scores_batch(
                [g for g, _ in kept], batch_size=batch_size
            )
        rankings = [
            _ranked(q_task, candidates, row)
            for (_, q_task), row in zip(kept, all_scores)
        ]
    else:
        rankings = [rank_candidates(score_fn, q, candidates, batch_size) for q in kept]
    rrs: List[float] = []
    hits: Dict[int, List[float]] = {k: [] for k in ks}
    aps: List[float] = []
    for ranked in rankings:
        first = ranked.first_relevant_rank
        rrs.append(1.0 / first if first else 0.0)
        for k in ks:
            hits[k].append(1.0 if first and first <= k else 0.0)
        aps.append(_average_precision(ranked.relevant))
    n = len(rrs)
    if n == 0:
        return RetrievalResult(0.0, {k: 0.0 for k in ks}, 0.0, 0)
    return RetrievalResult(
        mrr=float(np.mean(rrs)),
        hit_at={k: float(np.mean(v)) for k, v in hits.items()},
        mean_average_precision=float(np.mean(aps)),
        num_queries=n,
    )


def _average_precision(relevant: np.ndarray) -> float:
    """AP over one ranking (precision at each relevant position)."""
    hits = np.flatnonzero(relevant)
    if hits.size == 0:
        return 0.0
    precisions = (np.arange(hits.size) + 1.0) / (hits + 1.0)
    return float(precisions.mean())


def retrieval_corpus_from_samples(
    samples: Sequence,
    side: str,
) -> List[Tuple[ProgramGraph, str]]:
    """Build a (graph, task) list from :class:`CodeSample` objects.

    ``side`` selects the view: ``"binary"`` (decompiled graph) or
    ``"source"`` (front-end graph).
    """
    if side not in ("binary", "source"):
        raise ValueError(f"unknown side {side!r}")
    return [
        (s.decompiled_graph if side == "binary" else s.source_graph, s.task)
        for s in samples
    ]

"""The experiment runner: fingerprinted, cached, parallel training runs.

A training run is fully determined by ``(ModelConfig, dataset split
content, trainer version)`` — the trainer's RNG streams all derive from
``config.seed`` and the dataset is an explicit list of graph pairs — so a
finished run can be content-addressed exactly like a compilation artifact.
:func:`run_experiment` consults a :class:`~repro.exec.store.ModelStore`
before training; a warm hit loads the checkpoint (fingerprint-equal to the
trainer that wrote it, so every downstream metric row is identical) in a
fraction of a percent of the training cost.

:func:`run_grid` runs the *independent* trainings of a table — Table IV/V
train ten models, the ablation benches eight — and can fan cold runs
across a persistent :class:`~repro.exec.pool.WarmPool`.  Each job's
payload carries its dataset over the worker's pipe; workers return
checkpoint *bytes* that the parent commits with
:meth:`~repro.exec.store.ModelStore.put_bytes` — workers never write the
store, so a killed worker cannot corrupt it — and the parent then loads
every entry in order, so grid output is identical to the serial path by
construction.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
import weakref
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ModelConfig
from repro.core.trainer import MatchTrainer, TrainReport
from repro.data.pairs import PairDataset
from repro.exec.pool import WarmPool, get_pool
from repro.exec.store import RUNNER_VERSION, ModelStore

PathLike = str


@dataclass(frozen=True)
class ExperimentSpec:
    """One training run: a named model configuration.

    ``name`` is cosmetic (display / store metadata); the fingerprint covers
    only ``config`` and ``early_stopping``, so two specs that train the
    same model on the same dataset share one cache entry whatever they are
    called.
    """

    name: str
    config: ModelConfig
    early_stopping: bool = True


@dataclass
class ExperimentRun:
    """A finished (or cache-served) training run."""

    spec: ExperimentSpec
    fingerprint: str
    trainer: MatchTrainer
    from_cache: bool
    seconds: float
    report: Optional[TrainReport] = None
    report_meta: Dict[str, object] = field(default_factory=dict)


# Dataset fingerprints are content hashes over every split's graphs and
# labels; graphs repeat across pairs (and datasets are built once and
# reused by a whole bench process), so both levels memoize — per-graph by
# object identity inside one call, per-dataset by weakly-referenced
# identity across calls.
_DATASET_FP_MEMO: Dict[int, Tuple["weakref.ref", str]] = {}


def dataset_fingerprint(dataset: PairDataset) -> str:
    """Content hash of a :class:`PairDataset` (splits, graphs, labels)."""
    key = id(dataset)
    hit = _DATASET_FP_MEMO.get(key)
    if hit is not None:
        ref, fp = hit
        if ref() is dataset:
            return fp
    from repro.index.embedding_index import graph_fingerprint

    graph_memo: Dict[int, str] = {}

    def gfp(graph) -> str:
        g_key = id(graph)
        cached = graph_memo.get(g_key)
        if cached is None:
            cached = graph_memo[g_key] = graph_fingerprint(graph)
        return cached

    h = hashlib.sha256()
    for split_name, pairs in (
        ("train", dataset.train),
        ("valid", dataset.valid),
        ("test", dataset.test),
    ):
        h.update(f"{split_name}:{len(pairs)}".encode("utf-8"))
        for pair in pairs:
            h.update(gfp(pair.left).encode("ascii"))
            h.update(gfp(pair.right).encode("ascii"))
            h.update(f"{pair.label}:{pair.task_left}:{pair.task_right}".encode("utf-8"))
    fp = h.hexdigest()
    try:
        # memo bound into the defaults: see the matching note in
        # repro.nn.segments — globals may be gone when the callback fires.
        ref = weakref.ref(
            dataset, lambda _, k=key, memo=_DATASET_FP_MEMO: memo.pop(k, None)
        )
        _DATASET_FP_MEMO[key] = (ref, fp)
    except TypeError:  # pragma: no cover - non-weakref-able dataset type
        pass
    return fp


def experiment_fingerprint(spec: ExperimentSpec, dataset_fp: str) -> str:
    """Content address of one training run.

    Covers the full model config, the early-stopping protocol, the dataset
    content hash and :data:`RUNNER_VERSION`; change any of them and the
    old entry misses instead of serving a model the current code would not
    train.
    """
    payload = "\x1f".join(
        [
            RUNNER_VERSION,
            json.dumps(asdict(spec.config), sort_keys=True),
            str(bool(spec.early_stopping)),
            dataset_fp,
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _report_meta(spec: ExperimentSpec, report: TrainReport, seconds: float) -> dict:
    return {
        "name": spec.name,
        "config": asdict(spec.config),
        "early_stopping": bool(spec.early_stopping),
        "valid_f1": float(report.valid_f1),
        "best_epoch": int(report.best_epoch),
        "epochs": len(report.epoch_losses),
        "final_loss": float(report.epoch_losses[-1]) if report.epoch_losses else None,
        "train_seconds": float(seconds),
        "timings": {k: float(v) for k, v in report.timings.items()},
    }


def run_experiment(
    spec: ExperimentSpec,
    dataset: PairDataset,
    store: Optional[ModelStore] = None,
    dataset_fp: Optional[str] = None,
) -> ExperimentRun:
    """Train ``spec`` on ``dataset``, or load it from the model store.

    A warm hit returns a fingerprint-equal reloaded trainer: same weights,
    same tokenizer, same predictions, identical downstream metric rows —
    the store is a cache in the strict sense.  Pass ``dataset_fp`` when
    the caller already computed it (grid runs share one dataset hash).
    """
    dataset_fp = dataset_fp or dataset_fingerprint(dataset)
    fingerprint = experiment_fingerprint(spec, dataset_fp)
    t0 = time.perf_counter()
    if store is not None:
        found = store.get_with_meta(fingerprint)
        if found is not None:
            trainer, report_meta = found
            return ExperimentRun(
                spec=spec,
                fingerprint=fingerprint,
                trainer=trainer,
                from_cache=True,
                seconds=time.perf_counter() - t0,
                report_meta=report_meta,
            )
    trainer = MatchTrainer(spec.config)
    report = trainer.train(dataset, early_stopping=spec.early_stopping)
    seconds = time.perf_counter() - t0
    meta = _report_meta(spec, report, seconds)
    if store is not None:
        store.put(fingerprint, trainer, meta)
    return ExperimentRun(
        spec=spec,
        fingerprint=fingerprint,
        trainer=trainer,
        from_cache=False,
        seconds=seconds,
        report=report,
        report_meta=meta,
    )


def _pool_train_job(
    spec: ExperimentSpec, dataset: PairDataset, fingerprint: str
) -> Tuple[str, bytes]:
    """Warm-pool job: train one grid entry, return the checkpoint as bytes.

    The worker never opens the store — the parent commits the returned
    payload, so a worker killed mid-train (or mid-serialize) leaves no
    trace on disk.
    """
    trainer = MatchTrainer(spec.config)
    t0 = time.perf_counter()
    report = trainer.train(dataset, early_stopping=spec.early_stopping)
    meta = _report_meta(spec, report, time.perf_counter() - t0)
    return fingerprint, trainer.save_bytes(
        extra_meta={"experiment": {**meta, "fingerprint": fingerprint}}
    )


def _fill_store_parallel(
    todo: List[Tuple[ExperimentSpec, PairDataset, str]],
    store: ModelStore,
    workers: int,
    start_method: Optional[str],
    pool: Optional[WarmPool],
) -> None:
    """Train every ``todo`` entry into ``store`` via the warm pool."""
    if len(todo) == 1 and pool is None:
        # One cold job: the pool buys nothing, train inline.
        fp, payload = _pool_train_job(*todo[0])
        store.put_bytes(fp, payload)
        return
    if pool is None:
        pool = get_pool(min(workers, len(todo)), start_method)
    for fp, payload in pool.run(_pool_train_job, todo):
        store.put_bytes(fp, payload)


def run_grid(
    jobs: Sequence[Tuple[ExperimentSpec, PairDataset]],
    store: Optional[ModelStore] = None,
    workers: int = 0,
    start_method: Optional[str] = None,
    pool: Optional[WarmPool] = None,
) -> List[ExperimentRun]:
    """Run a table's independent trainings, optionally across processes.

    Each job's RNG streams derive only from its own ``config.seed``, so
    jobs are independent and the parallel schedule cannot change any
    result: with ``workers > 1`` (or an explicit ``pool``) the cold jobs
    are fanned over a persistent :class:`~repro.exec.pool.WarmPool` that
    only *fills the store* — workers return checkpoint bytes, the parent
    commits them — and every run, warm or cold, is then materialized in
    order through :func:`run_experiment`, making grid output identical to
    the serial path by construction.  ``start_method`` picks the pool's
    multiprocessing start method (default: the platform's); pass ``pool``
    to reuse a caller-owned pool.  Without a store, parallel runs use a
    temporary one for the duration of the call.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    jobs = list(jobs)
    fan_out = pool is not None or workers > 1
    scratch: Optional[str] = None
    if store is None and fan_out and len(jobs) > 1:
        scratch = tempfile.mkdtemp(prefix="repro-models-")
        store = ModelStore(scratch)
    try:
        if store is not None and fan_out:
            fps: List[str] = [
                experiment_fingerprint(spec, dataset_fingerprint(dataset))
                for spec, dataset in jobs
            ]
            todo = [
                (spec, dataset, fp)
                for (spec, dataset), fp in zip(jobs, fps)
                if fp not in store
            ]
            # Deduplicate by fingerprint so two same-config jobs don't
            # train twice.
            todo = list({entry[2]: entry for entry in todo}.values())
            if todo:
                _fill_store_parallel(
                    todo, store, max(workers, 1), start_method, pool
                )
        return [run_experiment(spec, dataset, store=store) for spec, dataset in jobs]
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

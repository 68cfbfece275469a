"""Training-throughput subsystem: trained-model store + experiment runner.

The evaluation layer is a grid of trained models (every paper table trains
one or more GraphBinMatch instances), and at CPU scale training dominates
the bench suite's wall clock the way compilation used to dominate corpus
builds.  This package applies the PR-2 artifact-store pattern to *training
runs*:

* :class:`ModelStore` — a content-addressed on-disk cache of finished
  checkpoints, keyed by a fingerprint over (model config, dataset split
  content, trainer version);
* :func:`run_experiment` — train once per fingerprint, load everywhere
  else (reloaded trainers are fingerprint-equal, so metric rows are
  identical);
* :func:`run_grid` — fan the independent trainings of a table across
  persistent :class:`WarmPool` workers (datasets ride each job's
  payload, the parent commits every checkpoint) with results identical
  to the serial path.
"""

from repro.exec.pool import JobFailed, WarmPool, get_pool, shutdown_pools
from repro.exec.runner import (
    ExperimentRun,
    ExperimentSpec,
    dataset_fingerprint,
    experiment_fingerprint,
    run_experiment,
    run_grid,
)
from repro.exec.store import RUNNER_VERSION, ModelStore

__all__ = [
    "ExperimentRun",
    "ExperimentSpec",
    "JobFailed",
    "ModelStore",
    "RUNNER_VERSION",
    "WarmPool",
    "dataset_fingerprint",
    "experiment_fingerprint",
    "get_pool",
    "run_experiment",
    "run_grid",
    "shutdown_pools",
]

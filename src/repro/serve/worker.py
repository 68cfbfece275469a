"""Serve worker jobs: one warm pipeline + index pair per worker process.

The serve pool runs these as jobs on the shared worker runtime
(:class:`repro.exec.pool.Supervisor`), one at a time per worker:

* :func:`open_server` — the first job on a fresh worker: load the
  checkpoint and open the (sharded) index read-only from disk; N workers
  share one on-disk index, each materializing shards lazily;
* :func:`run_batch` — the same :meth:`RetrievalServer.handle_batch` the
  stdin service runs; a failing batch becomes error responses, never a
  dead worker.  The batch's payload-memo lookups travel back with its
  responses, so the parent's stats can say whether a query skipped the
  front end;
* :func:`swap_index` — re-open the index manifest at a new path.
"""

from __future__ import annotations

import os
import time

from repro import faults
from repro.core.trainer import MatchTrainer
from repro.index import open_index
from repro.serve.core import RetrievalServer

#: The worker-side counters each batch reports back to the parent.
MEMO_COUNTERS = ("memo_hits", "memo_misses")

# This process's warm state, set by open_server.
_trainer = None
_server = None
_test_hooks = False


def open_server(config, index_path: str) -> None:
    """Load the model and open the index at ``index_path`` for ``config``."""
    global _trainer, _server, _test_hooks
    _trainer = MatchTrainer.load(config.checkpoint)
    # Degraded open: a corrupt shard quarantines instead of failing the
    # start, and a corrupt quantizer payload records why so the server can
    # fall back from ANN to the exact path (allow_degraded below).
    index = open_index(index_path, _trainer, degraded=True)
    _server = RetrievalServer(
        _trainer,
        index,
        batch_size=config.max_batch,
        default_k=config.default_k,
        mode=config.mode,
        nprobe=config.nprobe,
        allow_degraded=True,
    )
    _test_hooks = config.enable_test_hooks


def run_batch(requests):
    """Serve one micro-batch: ``(responses, memo counts)``.

    One response per request, in order, and this batch's ``memo_hits`` and
    ``memo_misses`` (the worker's error count stays behind: the parent
    counts error responses itself).
    """
    if _test_hooks:
        _run_test_hooks(requests)
    before = _server.stats.snapshot()
    try:
        # Fault-injection chokepoint: REPRO_FAULTS specs targeting the
        # `worker.batch` site fire here, inside the real spawned worker —
        # crash faults die mid-batch (exercising respawn), hang faults
        # stall against the pool's deadline, IO faults surface as the
        # descriptive batch error below.
        faults.hit("worker.batch")
        responses = _server.handle_batch(requests)
    except Exception as exc:
        # handle_batch turns per-request failures into error responses
        # already; anything that still escapes fails the batch without
        # poisoning the worker for later batches.
        responses = [{"id": r.get("id"), "error": f"batch failed: {exc}"} for r in requests]
    after = _server.stats.snapshot()
    return responses, {name: after[name] - before[name] for name in MEMO_COUNTERS}


def swap_index(index_path: str) -> None:
    """Serve later batches from the index at ``index_path``.

    A failed open raises (the pool reports it in the swap ack) and leaves
    the old index in service.
    """
    _server.index = open_index(index_path, _trainer, degraded=True)


def _run_test_hooks(requests) -> None:
    """Fault-injection hooks, honored only under ``enable_test_hooks``.

    ``test_sleep_ms`` holds the batch in flight (deterministic backpressure
    and hot-swap tests); ``test_crash`` hard-exits mid-batch (crash
    recovery tests).  Production servers never enable these.
    """
    for req in requests:
        delay = req.get("test_sleep_ms")
        if isinstance(delay, (int, float)) and delay > 0:
            time.sleep(delay / 1000.0)
        if req.get("test_crash"):
            os._exit(13)

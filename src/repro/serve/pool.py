"""Worker pool dispatcher: N processes, per-worker FIFO queues, crash recovery.

The dispatcher owns the process-level concurrency of the service:

* N worker processes (``spawn`` context — no inherited locks or fds, safe
  alongside the front end's threads), each running
  :func:`repro.serve.worker.worker_main` over the same checkpoint and the
  same on-disk sharded index;
* one FIFO task queue **per worker**, so batch → swap ordering is exact
  (everything dispatched before a swap runs on the old index), plus one
  shared result queue drained by a pump thread;
* least-loaded dispatch: a batch goes to the ready worker with the
  fewest unfinished batches (a slot that is still respawning only gets
  work when no ready slot exists), :meth:`WorkerPool.has_idle_worker`
  tells the scheduler when a batch would start at once, and
  ``on_worker_ready`` announces each worker that comes up (first start
  or respawn) so buffered work can go to it;
* crash containment: each worker claims the batch it is running by
  writing the batch id into a shared-memory slot (a queue message could
  be lost in the feeder thread when the process dies hard), so when a
  process dies the pump fails exactly the claimed-but-unfinished batch
  (error responses, not silence), respawns the slot on the *same* task
  queue — batches still queued behind the dead worker survive — and the
  service keeps running.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_mod
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.serve.worker import NO_CLAIM, worker_main

_POLL_S = 0.1


class _Worker:
    """One worker slot: process + its FIFO task queue + dispatch accounting."""

    __slots__ = (
        "slot",
        "process",
        "task_queue",
        "assigned",
        "ready",
        "start_failures",
    )

    def __init__(self, slot: int, task_queue):
        self.slot = slot
        self.process = None
        self.task_queue = task_queue
        self.assigned: Set[int] = set()  # submitted, response not yet seen
        self.ready = False
        self.start_failures = 0  # consecutive deaths before reporting ready


class WorkerPool:
    """Dispatcher over N spawned retrieval workers sharing one index."""

    def __init__(
        self,
        checkpoint: str,
        index_path: str,
        *,
        workers: int = 2,
        default_k: Optional[int] = 5,
        max_batch: int = 8,
        mode: str = "exact",
        nprobe: int = 8,
        store_root: Optional[str] = None,
        enable_test_hooks: bool = False,
        batch_timeout_s: Optional[float] = None,
        on_batch_done: Callable[[int, List[dict]], None],
        on_batch_failed: Callable[..., None],
        on_worker_ready: Callable[[], None],
    ):  # noqa: D107
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if batch_timeout_s is not None and batch_timeout_s <= 0:
            raise ValueError(f"batch_timeout_s must be > 0, got {batch_timeout_s}")
        self.checkpoint = checkpoint
        self.index_path = index_path
        self.default_k = default_k
        self.max_batch = max_batch
        self.mode = mode
        self.nprobe = nprobe
        self.store_root = store_root
        self.enable_test_hooks = enable_test_hooks
        self.batch_timeout_s = batch_timeout_s
        # batch id → monotonic deadline, ticking from submission (covers
        # queue wait + execution — a per-request deadline, not a CPU one).
        self._deadlines: Dict[int, float] = {}
        self.timeouts = 0
        self._on_batch_done = on_batch_done
        self._on_batch_failed = on_batch_failed
        self._on_worker_ready = on_worker_ready
        self._ctx = multiprocessing.get_context("spawn")
        self._result_queue = self._ctx.Queue()
        self._lock = threading.RLock()
        # Shared-memory claim slots: claims[slot] is the batch id the worker
        # is running right now (NO_CLAIM when idle).  Written directly by the
        # worker — unlike a queue put, the write cannot be lost when the
        # process dies hard mid-batch.
        self._claims = self._ctx.Array("q", [NO_CLAIM] * workers, lock=False)
        self._workers: List[_Worker] = [
            _Worker(slot, self._ctx.Queue()) for slot in range(workers)
        ]
        self._swap_tokens = itertools.count(1)
        self._swap_waiters: Dict[int, dict] = {}
        self._ready_event = threading.Event()
        self._stop = False
        self._fatal: Optional[str] = None
        self.crashes = 0
        self._pump = threading.Thread(
            target=self._pump_loop, name="serve-pool-pump", daemon=True
        )

    # ----------------------------------------------------------- lifecycle
    def start(self, timeout: float = 120.0) -> None:
        """Spawn every worker and block until all report ready."""
        for worker in self._workers:
            self._spawn(worker)
        self._pump.start()
        if not self._ready_event.wait(timeout):
            self.close()
            raise RuntimeError(
                f"worker pool did not become ready within {timeout:.0f}s"
            )
        if self._fatal:
            self.close()
            raise RuntimeError(f"worker failed to start: {self._fatal}")

    def _spawn(self, worker: _Worker) -> None:
        worker.ready = False
        worker.process = self._ctx.Process(
            target=worker_main,
            args=(
                worker.slot,
                worker.task_queue,
                self._result_queue,
                self._claims,
                self.checkpoint,
                self.index_path,
                self.default_k,
                self.max_batch,
                self.mode,
                self.nprobe,
                self.store_root,
                self.enable_test_hooks,
            ),
            daemon=True,
            name=f"serve-worker-{worker.slot}",
        )
        worker.process.start()

    def close(self) -> None:
        """Stop the pump, shut every worker down, terminate stragglers."""
        with self._lock:
            if self._stop:
                return
            self._stop = True
        for worker in self._workers:
            try:
                worker.task_queue.put(None)
            except (OSError, ValueError):
                pass
        if self._pump.is_alive():
            self._pump.join(timeout=5)
        for worker in self._workers:
            proc = worker.process
            if proc is None:
                continue
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._result_queue.close()

    @property
    def num_workers(self) -> int:
        """How many worker slots the pool runs."""
        return len(self._workers)

    # ------------------------------------------------------------ dispatch
    def has_idle_worker(self) -> bool:
        """True while some ready worker has no batch assigned."""
        with self._lock:
            return any(w.ready and not w.assigned for w in self._workers)

    def submit(self, batch_id: int, requests: Sequence[dict]) -> None:
        """Queue one batch on the least-loaded ready worker (FIFO per worker)."""
        with self._lock:
            stopped = self._stop
            if not stopped:
                worker = min(
                    self._workers, key=lambda w: (not w.ready, len(w.assigned))
                )
                worker.assigned.add(batch_id)
                if self.batch_timeout_s is not None:
                    self._deadlines[batch_id] = (
                        time.monotonic() + self.batch_timeout_s
                    )
        # Callbacks run off the pool lock: they reach the scheduler, which
        # calls back into the pool (has_idle_worker) under its own lock.
        if stopped:
            self._on_batch_failed(batch_id, "server shutting down")
            return
        worker.task_queue.put(("batch", batch_id, list(requests)))

    def swap(self, index_path: str, timeout: float = 60.0) -> Dict[str, object]:
        """Hot-swap every worker onto the index at ``index_path``.

        Each worker re-opens the manifest after draining the batches
        already in its queue, so in-flight queries finish on the old index
        and later ones see the new.  Blocks until every live worker acks
        (a worker that crashes mid-swap is counted as such).  Respawned
        workers open ``self.index_path``, which is updated first so crash
        recovery lands on the new index too.
        """
        token = next(self._swap_tokens)
        waiter = {"event": threading.Event(), "pending": set(), "errors": []}
        with self._lock:
            self.index_path = index_path
            waiter["pending"] = {w.slot for w in self._workers}
            self._swap_waiters[token] = waiter
        for worker in self._workers:
            worker.task_queue.put(("swap", index_path, token))
        if not waiter["event"].wait(timeout):
            raise RuntimeError(f"index hot-swap did not complete within {timeout:.0f}s")
        with self._lock:
            self._swap_waiters.pop(token, None)
        return {"workers": self.num_workers, "errors": list(waiter["errors"])}

    # -------------------------------------------------------------- results
    def _pump_loop(self) -> None:
        while not self._stop:
            self._reap_dead_workers()
            self._expire_deadlines()
            try:
                msg = self._result_queue.get(timeout=_POLL_S)
            except queue_mod.Empty:
                continue
            except (OSError, ValueError):  # queue closed during shutdown
                return
            kind = msg[0]
            if kind == "ready":
                with self._lock:
                    worker = self._workers[msg[1]]
                    worker.ready = True
                    worker.start_failures = 0
                    if all(w.ready for w in self._workers):
                        self._ready_event.set()
                # Off the pool lock, like every callback: the scheduler
                # calls back into has_idle_worker under its own lock.
                self._on_worker_ready()
            elif kind == "fatal":
                with self._lock:
                    self._fatal = msg[2]
                    self._ready_event.set()
            elif kind == "batch":
                _, slot, batch_id, responses = msg
                with self._lock:
                    expired = batch_id not in self._workers[slot].assigned
                    self._workers[slot].assigned.discard(batch_id)
                    self._deadlines.pop(batch_id, None)
                if not expired:
                    # An expired batch was already answered with a deadline
                    # error; this late result has no one waiting for it.
                    self._on_batch_done(batch_id, responses)
            elif kind == "swapped":
                _, slot, token, error = msg
                self._ack_swap(slot, token, error)

    def _ack_swap(self, slot: int, token: int, error) -> None:
        with self._lock:
            waiter = self._swap_waiters.get(token)
            if waiter is None:
                return
            if error:
                waiter["errors"].append(f"worker {slot}: {error}")
            waiter["pending"].discard(slot)
            if not waiter["pending"]:
                waiter["event"].set()

    def _expire_deadlines(self) -> None:
        """Fail every batch past its deadline; kill the worker hung on one.

        A deadline miss on the batch a worker *claims* means that worker is
        stuck (a hang fault, a wedged syscall): the process is terminated so
        the reap/respawn path restores the slot, and queued batches behind
        it survive on the same FIFO queue.  A miss on a merely *queued*
        batch just answers it early — either way the client gets a prompt
        retryable error instead of a connection that never responds.
        """
        if self.batch_timeout_s is None:
            return
        now = time.monotonic()
        expired: List[tuple] = []  # (batch_id, worker, was_running)
        with self._lock:
            if self._stop:
                return
            for batch_id in [b for b, t in self._deadlines.items() if t <= now]:
                del self._deadlines[batch_id]
                for worker in self._workers:
                    if batch_id in worker.assigned:
                        worker.assigned.discard(batch_id)
                        running = self._claims[worker.slot] == batch_id
                        expired.append((batch_id, worker, running))
                        break
            self.timeouts += len(expired)
        for batch_id, worker, running in expired:
            proc = worker.process
            if running and proc is not None and proc.is_alive():
                proc.terminate()  # reaped and respawned by the next pump pass
            self._on_batch_failed(
                batch_id,
                f"deadline exceeded: batch not answered within "
                f"{self.batch_timeout_s:g}s",
                retryable=True,
            )

    def _reap_dead_workers(self) -> None:
        for worker in self._workers:
            proc = worker.process
            if proc is None or proc.is_alive():
                continue
            proc.join()
            with self._lock:
                if self._stop:
                    return
                self.crashes += 1
                # Only the claimed batch died with the process; batches still
                # queued behind it are picked up by the respawn, which reads
                # from the same FIFO queue.  (Guard on `assigned`: the worker
                # may have posted the result and crashed before clearing its
                # claim slot — that batch is already answered.)
                claimed = self._claims[worker.slot]
                self._claims[worker.slot] = NO_CLAIM
                dead = [claimed] if claimed in worker.assigned else []
                worker.assigned.difference_update(dead)
                for batch_id in dead:
                    self._deadlines.pop(batch_id, None)
                # A crash mid-swap must not hang the swap barrier.
                for token, waiter in list(self._swap_waiters.items()):
                    self._ack_swap(worker.slot, token, "worker crashed during swap")
            for batch_id in dead:
                self._on_batch_failed(
                    batch_id, "worker crashed mid-batch; request not served"
                )
            # A worker that keeps dying before it ever comes up will never
            # serve anything: cap the respawn loop instead of storming.
            if not worker.ready:
                worker.start_failures += 1
                if worker.start_failures >= 3:
                    with self._lock:
                        self._fatal = self._fatal or (
                            f"worker {worker.slot} died "
                            f"{worker.start_failures} times before becoming ready"
                        )
                        self._ready_event.set()
                    worker.process = None
                    continue
            self._spawn(worker)

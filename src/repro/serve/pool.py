"""Worker pool dispatcher: the serve policy over the worker runtime.

A thin layer over :class:`repro.exec.pool.Supervisor`, the runtime the
training grid runs on (a pipe per worker, sentinel death detection):

* N ``spawn`` workers (no inherited locks or fds) run the jobs of
  :mod:`repro.serve.worker`.  A fresh worker's first job loads the
  checkpoint and opens the shared on-disk index; its reply makes the slot
  ready, an error reply is a failed start;
* each slot keeps a FIFO in the parent and feeds one job at a time into
  its pipe, so a send never blocks on a busy worker and batch → swap
  ordering is exact (a hot-swap is one more FIFO entry);
* least-loaded dispatch to ready slots (a slot still starting gets work
  only when no ready slot exists); :meth:`WorkerPool.has_idle_worker`
  tells the scheduler when a batch would start at once, and
  ``on_worker_ready`` announces each worker that comes up;
* crash containment: the job in flight on a dead worker's pipe is exactly
  the batch that died — it gets error responses, not silence — and the
  jobs still queued in the parent go to the respawn;
* a start budget: a slot that fails to restart :data:`START_ATTEMPTS`
  times in a row is retired — its queued batches fail with the start
  error, dispatch skips it, and once no live slot remains every new
  batch fails at submit.  An open error before :meth:`WorkerPool.start`
  returns (a bad checkpoint or index path) fails the start at once.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.exec.pool import STOP_GRACE_SECONDS, Supervisor, Worker
from repro.serve.worker import open_server, run_batch, swap_index
from repro.utils.timing import Stats

#: The counters a pool keeps: worker deaths, and batches answered with a
#: deadline error.
POOL_COUNTERS = ("worker_crashes", "deadline_timeouts")

#: Consecutive failed starts (death or open error) that retire a slot.
START_ATTEMPTS = 3


class _Slot(Worker):
    """One supervised worker plus its parent-side FIFO and start state."""

    __slots__ = ("index", "queue", "ready", "start_failures", "error")

    def __init__(self, index: int):
        super().__init__()
        self.index = index
        self.queue = deque()  # (job, func, args) waiting for the pipe
        self.ready = False
        self.start_failures = 0
        self.error: Optional[str] = None  # why the slot was retired

    def load(self) -> int:
        """Unfinished jobs on this slot: queued plus the one in flight."""
        return len(self.queue) + (self.job is not None)


class WorkerPool:
    """Dispatcher over N spawned retrieval workers sharing one index.

    ``config`` is the server's :class:`~repro.serve.app.ServerConfig`;
    ``self.index_path`` starts as its index and follows every swap.
    ``stats`` (shared with the owning server, if given) counts
    ``worker_crashes`` and ``deadline_timeouts``.
    """

    def __init__(
        self,
        config,
        *,
        on_batch_done: Callable[[int, List[dict]], None],
        on_batch_failed: Callable[..., None],
        on_worker_ready: Callable[[], None],
        stats: Optional[Stats] = None,
    ):  # noqa: D107
        if config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {config.workers}")
        self.batch_timeout_s = config.batch_timeout_s
        if self.batch_timeout_s is not None and self.batch_timeout_s <= 0:
            raise ValueError(f"batch_timeout_s must be > 0, got {self.batch_timeout_s}")
        self.config = config
        self.index_path = config.index_path
        # Unanswered batch id → monotonic deadline (None without a
        # watchdog), ticking from submission: queue wait + execution.
        self._open: Dict[int, Optional[float]] = {}
        self.stats = stats or Stats(POOL_COUNTERS)
        self._on_batch_done = on_batch_done
        self._on_batch_failed = on_batch_failed
        self._on_worker_ready = on_worker_ready
        self._sup = Supervisor("spawn")
        self._lock = threading.RLock()
        self._slots = [_Slot(i) for i in range(config.workers)]
        self._swap_tokens = itertools.count(1)
        self._swap_waiters: Dict[int, dict] = {}
        self._started = threading.Event()
        self._stop = False
        self._results = threading.Thread(
            target=self._result_loop, name="serve-pool-results", daemon=True
        )

    # ----------------------------------------------------------- lifecycle
    def start(self, timeout: float = 120.0) -> None:
        """Spawn every worker and block until each is ready or retired."""
        with self._lock:
            for slot in self._slots:
                self._sup.spawn(slot)
                self._open_worker(slot)
        self._results.start()
        if not self._started.wait(timeout):
            self.close()
            raise RuntimeError(
                f"worker pool did not become ready within {timeout:.0f}s"
            )
        errors = [s.error for s in self._slots if s.error]
        if errors:
            self.close()
            raise RuntimeError(f"worker failed to start: {errors[0]}")

    def _open_worker(self, slot: _Slot) -> None:
        """Send a fresh worker its first job: load the model, open the index."""
        slot.ready = False
        # If the worker is already dead the send fails, and its death event
        # counts as the failed start.
        args = (self.config, self.index_path)
        self._sup.send(slot, open_server, args, job=("open", None))

    def close(self) -> None:
        """Stop every worker (terminating stragglers) and the result thread."""
        with self._lock:
            if self._stop:
                return
            self._stop = True
        self._sup.close()
        if self._results.is_alive():
            self._results.join(timeout=STOP_GRACE_SECONDS)

    # ------------------------------------------------------------ dispatch
    def has_idle_worker(self) -> bool:
        """True while some ready worker has nothing queued or in flight."""
        with self._lock:
            return any(s.ready and not s.load() for s in self._slots)

    def submit(self, batch_id: int, requests: Sequence[dict]) -> None:
        """Queue one batch on the least-loaded ready worker (FIFO per worker)."""
        with self._lock:
            live = [s for s in self._slots if not s.error]
            if self._stop:
                reason = "server shutting down"
            elif not live:
                reason = f"no worker available: {self._slots[0].error}"
            else:
                reason = None
                slot = min(live, key=lambda s: (not s.ready, s.load()))
                timeout = self.batch_timeout_s
                self._open[batch_id] = (
                    None if timeout is None else time.monotonic() + timeout
                )
                self._enqueue(slot, ("batch", batch_id), run_batch, (list(requests),))
        # Callbacks run off the pool lock: they reach the scheduler, which
        # calls back into the pool (has_idle_worker) under its own lock.
        if reason:
            self._on_batch_failed(batch_id, reason)

    def swap(self, index_path: str, timeout: float = 60.0) -> Dict[str, object]:
        """Hot-swap every worker onto the index at ``index_path``.

        The swap is one more entry in each slot's FIFO, so in-flight and
        queued queries finish on the old index and later ones see the new.
        Blocks until every live worker acks (a worker that crashes mid-swap
        is counted as such).  Respawned workers open ``self.index_path``,
        which is updated first so crash recovery lands on the new index too.
        """
        token = next(self._swap_tokens)
        waiter = {"event": threading.Event(), "errors": []}
        with self._lock:
            self.index_path = index_path
            live = [s for s in self._slots if not s.error]
            waiter["pending"] = {s.index for s in live}
            self._swap_waiters[token] = waiter
            for slot in live:
                self._enqueue(slot, ("swap", token), swap_index, (index_path,))
            if not live:
                waiter["event"].set()
        if not waiter["event"].wait(timeout):
            raise RuntimeError(f"index hot-swap did not complete within {timeout:.0f}s")
        with self._lock:
            self._swap_waiters.pop(token, None)
        return {"workers": len(self._slots), "errors": list(waiter["errors"])}

    def _enqueue(self, slot: _Slot, job, func, args) -> None:
        slot.queue.append((job, func, args))
        self._pump(slot)

    def _pump(self, slot: _Slot) -> None:
        """Send the slot's next queued job if its pipe is free (lock held).

        Only a ready worker takes queued jobs: one still starting has only
        its open job, so a failed start never takes a batch down with it.
        """
        if self._stop or not slot.ready or not slot.queue or slot.job is not None:
            return
        job, func, args = slot.queue[0]
        # A failed send means the worker just died: the job stays queued
        # for the respawn, which the death event triggers.
        if self._sup.send(slot, func, args, job=job):
            slot.queue.popleft()

    # -------------------------------------------------------------- results
    def _result_loop(self) -> None:
        while True:
            with self._lock:
                watched = [s for s in self._slots if not s.error]
                if self._stop or not watched:
                    return
                timeout = self._next_timeout()
            try:
                ready = self._sup.poll(watched, timeout)
            except (OSError, ValueError):
                if self._stop:
                    return  # close() shut the pipes under this wait
                raise
            self._handle(watched, ready)

    def _next_timeout(self) -> Optional[float]:
        if self.batch_timeout_s is None:
            return None
        if not self._open:
            # A batch submitted during this wait expires no sooner.
            return self.batch_timeout_s
        return max(0.0, min(self._open.values()) - time.monotonic())

    def _handle(self, watched: List[_Slot], ready: set) -> None:
        """Read and apply worker events under the lock; run callbacks off it.

        Reading and applying in one hold of the lock that every send takes
        means no job reaches a pipe between a reply (or death) being read
        and the slot being restarted or refilled.
        """
        calls: List[Callable[[], None]] = []
        with self._lock:
            if self._stop:
                return
            for slot, job, reply in self._sup.collect(watched, ready):
                self._on_event(slot, job, reply, calls)
            self._expire_deadlines(calls)
        for call in calls:
            call()

    def _on_event(self, slot: _Slot, job, reply, calls: List) -> None:
        kind, key = job or (None, None)
        if reply is None:
            self._on_death(slot, kind, key, calls)
        elif kind == "open" and reply[0] == "err":
            # Before start() returns, an open error is a bad checkpoint or
            # index path, which a retry cannot fix: fail the start at once.
            self._start_failed(slot, reply[1], calls, self._started.is_set())
        elif kind == "open":
            slot.ready, slot.start_failures = True, 0
            self._check_started()
            calls.append(self._on_worker_ready)
        elif kind == "swap":
            self._ack_swap(slot.index, key, reply[1] if reply[0] == "err" else None)
        elif reply[0] == "err":
            self._fail(key, f"batch failed: {reply[1]}", calls)
        elif key in self._open:
            # (Not open: the batch was already answered with a deadline
            # error, and this late result has no one waiting for it.)
            del self._open[key]
            calls.append(partial(self._on_batch_done, key, reply[1]))
        self._pump(slot)

    def _on_death(self, slot: _Slot, kind, key, calls: List) -> None:
        """The worker died: fail the job in flight, restart the slot."""
        self.stats.inc("worker_crashes")
        if kind == "batch":
            self._fail(key, "worker crashed mid-batch; request not served", calls)
        elif kind == "swap":
            self._ack_swap(slot.index, key, "worker crashed during swap")
        if slot.ready:
            self._sup.respawn(slot)
            self._open_worker(slot)
        else:
            why = f"exited with code {slot.proc.exitcode} before ready"
            self._start_failed(slot, why, calls)

    def _start_failed(self, slot: _Slot, why: str, calls: List, retry=True) -> None:
        """Restart the slot, or retire it once its start budget is spent."""
        slot.start_failures += 1
        if retry and slot.start_failures < START_ATTEMPTS:
            self._sup.respawn(slot)
            self._open_worker(slot)
            return
        times = f" {slot.start_failures} times" if slot.start_failures > 1 else ""
        slot.error = f"worker {slot.index} failed to start{times}: {why}"
        self._sup.retire(slot)
        for (kind, key), _, _ in slot.queue:
            if kind == "swap":
                self._ack_swap(slot.index, key, f"failed to start: {why}")
            else:
                self._fail(key, slot.error, calls)
        slot.queue.clear()
        self._check_started()

    def _fail(self, batch_id: int, message: str, calls: List, **kw) -> None:
        """Answer a still-unanswered batch with an error (callback deferred)."""
        if batch_id in self._open:
            del self._open[batch_id]
            calls.append(partial(self._on_batch_failed, batch_id, message, **kw))

    def _check_started(self) -> None:
        if all(s.ready or s.error for s in self._slots):
            self._started.set()

    def _ack_swap(self, slot: int, token: int, error) -> None:
        waiter = self._swap_waiters.get(token)
        if waiter is None:
            return
        if error:
            waiter["errors"].append(f"worker {slot}: {error}")
        waiter["pending"].discard(slot)
        if not waiter["pending"]:
            waiter["event"].set()

    def _expire_deadlines(self, calls: List) -> None:
        """Fail every batch past its deadline; kill the worker hung on one.

        A deadline miss on the batch in flight means that worker is stuck
        (a hang fault, a wedged syscall): the process is terminated, and
        its death event respawns the slot — batches queued behind it go to
        the respawn.  A miss on a merely *queued* batch just answers it
        early (its late result is dropped) — either way the client gets a
        prompt retryable error instead of a connection that never responds.
        """
        if self.batch_timeout_s is None:
            return
        now = time.monotonic()
        expired = {b for b, t in self._open.items() if t <= now}
        if not expired:
            return
        for batch_id in expired:
            self._fail(
                batch_id,
                f"deadline exceeded: batch not answered within "
                f"{self.batch_timeout_s:g}s",
                calls,
                retryable=True,
            )
        self.stats.inc("deadline_timeouts", n=len(expired))
        dead = {("batch", b) for b in expired}
        for slot in self._slots:
            # An answered batch still queued is dropped, not run for nobody.
            slot.queue = deque(e for e in slot.queue if e[0] not in dead)
            if slot.job in dead:
                slot.proc.terminate()

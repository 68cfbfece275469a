"""The worker runtime (:class:`Supervisor`) and the warm pool built on it.

:class:`Supervisor` is the one place in ``repro`` that starts and watches
worker processes: one duplex pipe per worker, one job in flight per pipe,
replies matched by token, and deaths seen on process sentinels, so
nothing polls.  Results never ride an ``mp.Queue``, whose feeder thread
can lose a message when a process dies hard.  Two policies run on it:
:class:`WarmPool` here, and the serve :class:`~repro.serve.pool.WorkerPool`.

:class:`WarmPool` runs grid training and corpus builds, which submit a
handful of long jobs over and over.  A throwaway ``multiprocessing.Pool``
would charge the full warmup (process start, imports under spawn) to
every batch; the warm pool keeps the workers.

* **Warm workers** — processes start once and stay resident across
  :meth:`WarmPool.run` batches; :func:`get_pool` keeps one pool per
  (size, start method) for the life of the parent process.
* **One IPC mechanism** — a job's arguments, a grid dataset included,
  ride the job message on the worker's pipe, pickled once per job.  A
  dataset of a few MB pickles in milliseconds, against seconds of
  training per job, so there is no second channel to keep in step.
* **Fault tolerance** — each warm-pool worker fires
  ``faults.hit("pool.worker.job")`` before a job
  (``crash:pool.worker.job@0.5~7``).  A worker that dies or hangs is
  respawned and its job retried up to ``max_job_retries`` times, then
  :class:`JobFailed`.  Workers never touch any store: the parent commits
  results, so a killed worker cannot corrupt anything.

Scheduling cannot change results: pool users (``run_grid``,
``build_parallel``) only use workers to *fill caches*, and materialize
their outputs through the serial path afterwards.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import time
from collections import deque
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults

#: Fault-injection site a warm-pool worker fires before every job it runs.
WORKER_JOB_SITE = "pool.worker.job"

#: Seconds to wait for a worker to exit after a "stop" message.
STOP_GRACE_SECONDS = 5.0


class JobFailed(RuntimeError):
    """A pool job could not be completed (retries exhausted or clean error)."""


def ping(value=None):
    """Trivial job: returns its argument (health checks, dispatch benches)."""
    return value


def _worker_main(conn, job_site: Optional[str]) -> None:
    """Worker loop: run jobs, report over the pipe.

    Job exceptions are *reported*, not fatal — the worker stays warm for
    the next job.  Only parent death (EOF on the pipe), a "stop" message
    or a hard exit (injected crash, kill) ends the process.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # parent is gone; nothing left to serve
        if msg[0] == "stop":
            conn.close()
            return
        _, token, func, args = msg  # ("job", token, func, args)
        try:
            if job_site:
                faults.hit(job_site)
            result = func(*args)
        except Exception as exc:  # boundary: report to the parent, stay warm
            conn.send(("err", token, f"{type(exc).__name__}: {exc}"))
        else:
            conn.send(("ok", token, result))


class Worker:
    """Parent-side handle: process, pipe, and the job in flight on it.

    A respawn replaces ``proc`` and ``conn`` in place; ``job`` is the
    caller's record of the job on the pipe (None while idle).  Policies
    subclass it to keep their own per-worker state.
    """

    __slots__ = ("proc", "conn", "token", "job")

    def __init__(self):  # noqa: D107
        self.proc = self.conn = self.token = self.job = None


class Supervisor:
    """Supervised worker processes, one job in flight each.

    :meth:`send` puts a job on an idle worker's pipe and :meth:`poll`
    blocks until a watched worker replies or dies; what a reply or a
    death *means* — retry, fail a batch, retire a slot — is the caller's
    policy.  ``job_site`` is a fault site fired before every job.
    """

    def __init__(
        self, start_method: Optional[str] = None, job_site: Optional[str] = None
    ):  # noqa: D107
        self.start_method = start_method or multiprocessing.get_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._job_site = job_site
        self._tokens = itertools.count(1)
        self.workers: List[Worker] = []
        self.respawns = 0

    def _start(self, worker: Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        worker.proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, self._job_site), daemon=True
        )
        worker.proc.start()
        child_conn.close()
        worker.conn = parent_conn
        worker.token = worker.job = None

    def spawn(self, worker: Worker) -> None:
        """Start ``worker`` and add it to the supervised set."""
        self._start(worker)
        self.workers.append(worker)

    def respawn(self, worker: Worker) -> None:
        """Replace a dead (or hung) worker with a fresh one, in place."""
        self.retire(worker)
        self._start(worker)
        self.respawns += 1

    def retire(self, worker: Worker) -> None:
        """Terminate ``worker`` if it still runs and release its pipe."""
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(STOP_GRACE_SECONDS)
        worker.conn.close()
        worker.token = worker.job = None

    def send(
        self,
        worker: Worker,
        func: Callable,
        args: Tuple = (),
        job: object = None,
    ) -> bool:
        """Put ``func(*args)`` on an idle ``worker``'s pipe.

        ``job`` is the caller's record of it, handed back by :meth:`collect`
        with the reply — or with the death, when the job dies with the
        worker.  Returns False (nothing in flight) if the worker is gone.
        """
        # Set before the send: another thread may read the reply before
        # send() returns.
        worker.token, worker.job = next(self._tokens), job
        try:
            worker.conn.send(("job", worker.token, func, tuple(args)))
        except (BrokenPipeError, OSError):
            worker.token = worker.job = None
            return False
        return True

    def poll(self, workers: Sequence[Worker], timeout: Optional[float] = None) -> set:
        """Block until one of ``workers`` replies or dies (or ``timeout``).

        Returns the ready pipes and sentinels, for :meth:`collect`.
        """
        waitables = [w.conn for w in workers] + [w.proc.sentinel for w in workers]
        return set(connection.wait(waitables, timeout))

    def collect(
        self, workers: Sequence[Worker], ready: set
    ) -> List[Tuple[Worker, object, Optional[Tuple[str, object]]]]:
        """The ``(worker, job, reply)`` events behind what :meth:`poll` saw.

        Either kind leaves the worker idle.  ``reply`` is ``("ok",
        result)`` or ``("err", message)`` for the job in flight, or None
        when the worker died — ``job`` is then exactly the job that died
        with it (None if it was idle).  Respawn or retire a dead worker
        before polling it again.  A caller that sends from other threads
        collects and acts on the events under the one lock its sends hold,
        so no job reaches a pipe between an event being read and handled.
        """
        events = []
        for worker in workers:
            reply = None  # stays None when the worker died
            if worker.conn in ready:
                try:
                    kind, token, payload = worker.conn.recv()
                except (EOFError, OSError):
                    pass
                else:
                    if token != worker.token:
                        continue  # stale: answers a job given up on
                    reply = (kind, payload)
            elif worker.proc.sentinel not in ready:
                continue
            events.append((worker, worker.job, reply))
            worker.token = worker.job = None
        return events

    def close(self) -> None:
        """Stop every worker: "stop" message, grace period, then terminate."""
        for worker in self.workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass  # boundary: worker already died; retire() cleans up
        for worker in self.workers:
            worker.proc.join(STOP_GRACE_SECONDS)
            self.retire(worker)
        self.workers.clear()


class WarmPool:
    """Persistent worker processes with crash recovery.

    ``start_method`` is ``fork``/``spawn``/``forkserver`` or ``None`` for
    the platform default.  ``job_timeout`` (seconds) turns a hung worker
    into a kill + respawn + retry; ``max_job_retries`` bounds how many
    times one job survives its worker dying before :class:`JobFailed`.
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        job_timeout: Optional[float] = None,
        max_job_retries: int = 2,
    ):  # noqa: D107
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._sup = Supervisor(start_method, job_site=WORKER_JOB_SITE)
        self.start_method = self._sup.start_method
        self.job_timeout = job_timeout
        self.max_job_retries = int(max_job_retries)
        self._closed = False
        self.jobs_done = 0

    @property
    def respawns(self) -> int:
        """Workers replaced after dying, hanging or an aborted batch."""
        return self._sup.respawns

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._sup.close()

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---------------------------------------------------------------- jobs
    def run(self, func: Callable, payloads: Sequence[Tuple]) -> List[object]:
        """Run ``func(*payload)`` for every payload; results in order.

        Jobs are handed to idle workers as they free up.  A worker that
        dies mid-job is respawned and the job requeued (``max_job_retries``
        deaths per job, then :class:`JobFailed`); a job that raises cleanly
        fails the whole batch immediately — that is a real error, not a
        fault to retry.  On failure, workers still running other jobs are
        recycled so the pool comes back clean.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        payloads = [tuple(p) for p in payloads]
        if not payloads:
            return []
        while len(self._sup.workers) < min(self.workers, len(payloads)):
            self._sup.spawn(Worker())
        results: List[object] = [None] * len(payloads)
        # Each worker's job record is (payload index, attempts, deadline).
        queue = deque((i, 0) for i in range(len(payloads)))
        try:
            while queue or self._busy():
                self._assign(func, payloads, queue)
                self._collect(results, queue)
        except BaseException:
            for worker in self._busy():  # recycle the aborted batch's workers
                self._sup.respawn(worker)
            raise
        return results

    def _busy(self) -> List[Worker]:
        return [w for w in self._sup.workers if w.job is not None]

    def _assign(self, func, payloads, queue) -> None:
        for worker in self._sup.workers:
            if not queue:
                return
            if worker.job is not None:
                continue
            if not worker.proc.is_alive():
                self._sup.respawn(worker)
            index, attempts = queue.popleft()
            deadline = (
                time.monotonic() + self.job_timeout if self.job_timeout else None
            )
            job = (index, attempts, deadline)
            if not self._sup.send(worker, func, payloads[index], job):
                # The worker died between the liveness check and the send:
                # recycle it and put the job back for the next pass.
                self._sup.respawn(worker)
                self._requeue(queue, index, attempts, "died on dispatch")

    def _collect(self, results, queue) -> None:
        busy = self._busy()
        if not busy:
            return
        deadlines = [w.job[2] for w in busy if w.job[2] is not None]
        timeout = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
        events = self._sup.collect(busy, self._sup.poll(busy, timeout))
        for worker, (index, attempts, _), reply in events:
            if reply is None:
                self._sup.respawn(worker)
                self._requeue(queue, index, attempts, "died mid-job")
            elif reply[0] == "err":
                raise JobFailed(f"pool job {index} failed cleanly: {reply[1]}")
            else:
                results[index] = reply[1]
                self.jobs_done += 1
        now = time.monotonic()
        for worker in busy:
            if worker.job is None or worker.job[2] is None or now < worker.job[2]:
                continue
            index, attempts, _ = worker.job
            self._sup.respawn(worker)
            self._requeue(
                queue, index, attempts,
                f"hung past the {self.job_timeout:.1f}s job timeout",
            )

    def _requeue(self, queue, index, attempts, why: str) -> None:
        if attempts >= self.max_job_retries:
            raise JobFailed(
                f"pool job {index} {why} and exhausted its "
                f"{self.max_job_retries} retries"
            )
        queue.append((index, attempts + 1))


# ------------------------------------------------------- process-wide pool
_POOLS: Dict[Tuple[int, str], WarmPool] = {}
_atexit_registered = False


def get_pool(workers: int, start_method: Optional[str] = None) -> WarmPool:
    """The process-wide warm pool for (``workers``, ``start_method``).

    Created on first use and kept resident — this is what makes the
    second grid of a bench run warm.  Closed automatically at interpreter
    exit; call :func:`shutdown_pools` to do it sooner.
    """
    global _atexit_registered
    method = start_method or multiprocessing.get_start_method()
    key = (int(workers), method)
    pool = _POOLS.get(key)
    if pool is None or pool._closed:
        pool = _POOLS[key] = WarmPool(workers, start_method=method)
        if not _atexit_registered:
            _atexit_registered = True
            atexit.register(shutdown_pools)
    return pool


def shutdown_pools() -> None:
    """Close every process-wide pool (workers stopped)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()

"""Micro-batching scheduler: admission-bounded and work-conserving.

The stdin loop batches opportunistically — it flushes whenever the input
runs dry (:func:`repro.serve.core._lines_with_pending`), which works for
one pipe but has no notion of latency across many concurrent clients.
:class:`MicroBatchScheduler` generalizes that heuristic into explicit
rules:

* while a worker is **idle** (the ``idle`` predicate — in the concurrent
  server, the pool has a ready worker with nothing assigned), whatever is
  buffered flushes at once, up to ``max_batch`` entries: there is nothing
  to gain by holding a request back from a worker that would otherwise
  sit unused;
* while **every worker is busy**, a batch flushes as soon as it holds
  ``max_batch`` entries (throughput bound), **or** when the oldest
  buffered entry has waited ``max_delay_ms`` (latency bound) — whichever
  comes first, so a request waits at most one deadline for companions;
* :meth:`release` (a batch's responses were delivered, so a worker just
  freed up) and :meth:`wake` (a respawned worker came up) wake the batch
  former, so a buffered entry goes out as soon as the ``idle`` predicate
  turns true rather than at its deadline;
* :meth:`flush_now` (index reload, close drain) flushes everything at
  once as a barrier, so every batch is counted under exactly one reason:
  idle, size, deadline or barrier (``flushed_on_*`` in :attr:`stats`,
  next to ``batches`` and ``shed``);
* admission is bounded end-to-end: at most ``max_pending`` entries may be
  admitted-but-unanswered at once.  :meth:`offer` returns False beyond
  that — the caller sheds the request immediately (an ``overloaded``
  response) instead of queueing unbounded work — and the caller returns
  capacity with :meth:`release` once a response is delivered.

The scheduler is transport-agnostic: entries are opaque objects, and the
``flush`` callback (called off-lock, on the scheduler thread or the
:meth:`flush_now` caller's thread) hands each formed batch downstream —
in the concurrent server, to the worker pool dispatcher.  ``idle`` is
called *under* the scheduler lock, so it must never call back into the
scheduler (the lock order is scheduler → pool, one way).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, List, Optional, Sequence

from repro.utils.timing import Stats

#: The counters a scheduler keeps: ``batches`` splits into the four
#: ``flushed_on_*`` reasons, and ``shed`` counts refused offers.
SCHEDULER_COUNTERS = (
    "shed",
    "batches",
    "flushed_on_idle",
    "flushed_on_size",
    "flushed_on_deadline",
    "flushed_on_barrier",
)


class MicroBatchScheduler:
    """Bounded queue + batch former in front of the worker pool."""

    def __init__(
        self,
        flush: Callable[[Sequence[object]], None],
        *,
        max_batch: int = 8,
        max_delay_ms: float = 10.0,
        max_pending: int = 64,
        idle: Callable[[], bool],
        stats: Optional[Stats] = None,
    ):  # noqa: D107
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_batch = max_batch
        self.max_delay = max_delay_ms / 1000.0
        self.max_pending = max_pending
        self._flush_cb = flush
        self._idle = idle
        self._buf: deque = deque()  # (arrival_monotonic, entry)
        self._pending = 0
        self._closed = False
        self._cond = threading.Condition()
        # Shared with the server that owns it, if any.
        self.stats = stats or Stats(SCHEDULER_COUNTERS)
        self._thread = threading.Thread(
            target=self._loop, name="serve-scheduler", daemon=True
        )

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the batch-forming thread."""
        self._thread.start()

    def close(self, drain: bool = True) -> None:
        """Stop the scheduler; with ``drain``, flush what is still buffered."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread.is_alive():
            self._thread.join(timeout=5)
        if drain:
            self.flush_now()

    # ----------------------------------------------------------- admission
    def offer(self, entry) -> bool:
        """Admit one entry; False when the server is at ``max_pending``."""
        with self._cond:
            if self._closed or self._pending >= self.max_pending:
                self.stats.inc("shed")
                return False
            self._pending += 1
            self._buf.append((time.monotonic(), entry))
            self._cond.notify_all()
        return True

    def release(self, n: int = 1) -> None:
        """Return capacity for ``n`` entries whose responses were delivered."""
        with self._cond:
            self._pending = max(0, self._pending - n)
        self.wake()  # a worker may have just gone idle

    def wake(self) -> None:
        """Re-check the flush rule now (a worker may have just come up)."""
        with self._cond:
            if self._buf:
                self._cond.notify_all()

    @property
    def pending(self) -> int:
        """Entries admitted but not yet released (buffered or in flight)."""
        with self._cond:
            return self._pending

    # ------------------------------------------------------ batch forming
    def _pop_batch_locked(self, reason: str) -> List[object]:
        batch = []
        while self._buf and len(batch) < self.max_batch:
            batch.append(self._buf.popleft()[1])
        self.stats.inc(reason)
        self.stats.inc("batches")
        return batch

    def flush_now(self) -> int:
        """Synchronously flush everything buffered (hot-swap barrier).

        Returns how many entries were flushed.  Used before an index
        hot-swap so queries admitted before the swap are dispatched —
        and therefore served on the old index — before any worker sees
        the swap message.
        """
        flushed = 0
        while True:
            with self._cond:
                if not self._buf:
                    return flushed
                batch = self._pop_batch_locked("flushed_on_barrier")
            flushed += len(batch)
            self._flush_cb(batch)

    def _loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._closed:
                        return  # close() drains what is left
                    if not self._buf:
                        self._cond.wait()
                        continue
                    if len(self._buf) >= self.max_batch:
                        reason = "flushed_on_size"
                        break
                    if self._idle():
                        reason = "flushed_on_idle"
                        break
                    remaining = self._buf[0][0] + self.max_delay - time.monotonic()
                    if remaining <= 0:
                        reason = "flushed_on_deadline"
                        break
                    # Woken early by offer() (size), release()/wake() (idle)
                    # or close().
                    self._cond.wait(remaining)
                batch = self._pop_batch_locked(reason)
            self._flush_cb(batch)

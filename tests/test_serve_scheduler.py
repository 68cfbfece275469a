"""Unit tests for the serving dispatch rule (no sockets, no worker processes).

:class:`MicroBatchScheduler` is work-conserving: while its ``idle``
predicate holds, buffered entries flush at once; only while every worker
is busy does the size-or-deadline rule apply, and :meth:`release` /
:meth:`wake` wake the batch former so a freed or respawned worker picks
up buffered work before its deadline.  :class:`WorkerPool` dispatch
prefers ready workers over a slot that is still respawning, and a worker
coming up is announced to the scheduler off the pool lock.
"""

import threading
import time

import pytest

from repro.serve import MicroBatchScheduler, WorkerPool

LONG_DELAY_MS = 10_000.0  # a deadline no test waits out
WAIT_S = 5.0  # generous bound for "promptly" on a loaded host


class _Sink:
    """Fake flush callback: records batches, signals each arrival."""

    def __init__(self):
        self.batches = []
        self._cond = threading.Condition()

    def __call__(self, batch):
        with self._cond:
            self.batches.append(list(batch))
            self._cond.notify_all()

    def wait_for(self, n, timeout=WAIT_S):
        with self._cond:
            return self._cond.wait_for(lambda: len(self.batches) >= n, timeout)


class _Flag:
    """A settable ``idle`` predicate."""

    def __init__(self, value):
        self.value = value

    def __call__(self):
        return self.value


@pytest.fixture
def make_scheduler():
    made = []

    def make(idle, **kwargs):
        sink = _Sink()
        sched = MicroBatchScheduler(sink, idle=idle, **kwargs)
        sched.start()
        made.append(sched)
        return sched, sink

    yield make
    for sched in made:
        sched.close(drain=False)


class TestWorkConservingScheduler:
    def test_idle_worker_flushes_lone_entry_at_once(self, make_scheduler):
        sched, sink = make_scheduler(
            _Flag(True), max_batch=8, max_delay_ms=LONG_DELAY_MS
        )
        start = time.monotonic()
        assert sched.offer("a")
        assert sink.wait_for(1)
        assert time.monotonic() - start < WAIT_S < LONG_DELAY_MS / 1000
        assert sink.batches == [["a"]]
        assert sched.stats.flushed_on_idle == 1
        assert sched.stats.flushed_on_deadline == 0
        assert sched.stats.flushed_on_size == 0

    def test_busy_workers_flush_on_size(self, make_scheduler):
        sched, sink = make_scheduler(
            _Flag(False), max_batch=3, max_delay_ms=LONG_DELAY_MS
        )
        for entry in "abc":
            assert sched.offer(entry)
        assert sink.wait_for(1)
        assert sink.batches == [["a", "b", "c"]]
        assert sched.stats.flushed_on_size == 1
        assert sched.stats.flushed_on_idle == 0

    def test_busy_workers_flush_on_deadline(self, make_scheduler):
        delay_ms = 50.0
        sched, sink = make_scheduler(_Flag(False), max_batch=8, max_delay_ms=delay_ms)
        start = time.monotonic()
        assert sched.offer("a")
        assert sink.wait_for(1)
        assert time.monotonic() - start >= delay_ms / 1000
        assert sink.batches == [["a"]]
        assert sched.stats.flushed_on_deadline == 1
        assert sched.stats.flushed_on_idle == 0

    def test_release_dispatches_buffered_entry_when_worker_frees(
        self, make_scheduler
    ):
        idle = _Flag(True)
        sched, sink = make_scheduler(idle, max_batch=8, max_delay_ms=LONG_DELAY_MS)
        assert sched.offer("first")
        assert sink.wait_for(1)
        idle.value = False  # "first" now occupies the only worker
        assert sched.offer("second")
        assert not sink.wait_for(2, timeout=0.2)  # buffered behind busy pool
        idle.value = True
        start = time.monotonic()
        sched.release(1)  # "first" answered: its worker is free again
        assert sink.wait_for(2)
        assert time.monotonic() - start < WAIT_S < LONG_DELAY_MS / 1000
        assert sink.batches == [["first"], ["second"]]
        assert sched.stats.flushed_on_idle == 2
        assert sched.stats.flushed_on_deadline == 0
        assert sched.pending == 1

    def test_wake_dispatches_buffered_entry_when_worker_comes_up(
        self, make_scheduler
    ):
        idle = _Flag(False)  # the only worker is still respawning
        sched, sink = make_scheduler(idle, max_batch=8, max_delay_ms=LONG_DELAY_MS)
        assert sched.offer("a")
        assert not sink.wait_for(1, timeout=0.2)
        idle.value = True
        sched.wake()
        assert sink.wait_for(1)
        assert sink.batches == [["a"]]
        assert sched.stats.flushed_on_idle == 1

    def test_every_batch_has_exactly_one_flush_reason(self, make_scheduler):
        sched, sink = make_scheduler(
            _Flag(False), max_batch=2, max_delay_ms=LONG_DELAY_MS
        )
        for entry in "abc":
            assert sched.offer(entry)
        assert sink.wait_for(1)  # "a", "b" flush on size; "c" stays buffered
        assert sched.flush_now() == 1  # reload / close-drain barrier
        assert sink.batches == [["a", "b"], ["c"]]
        stats = sched.stats
        assert (stats.flushed_on_size, stats.flushed_on_barrier) == (1, 1)
        reasons = (
            stats.flushed_on_idle + stats.flushed_on_size
            + stats.flushed_on_deadline + stats.flushed_on_barrier
        )
        assert reasons == stats.batches == 2


class _FakeQueue:
    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


class TestPoolDispatch:
    @pytest.fixture
    def ready_calls(self):
        return []

    @pytest.fixture
    def pool(self, ready_calls):
        def on_ready():
            # Callbacks must run off the pool lock (lock order is one-way).
            ready_calls.append(pool._lock._is_owned())

        pool = WorkerPool(
            "unused-checkpoint.npz",
            "unused-index",
            workers=2,
            on_batch_done=lambda *a: None,
            on_batch_failed=lambda *a, **k: None,
            on_worker_ready=on_ready,
        )
        for worker in pool._workers:
            worker.task_queue = _FakeQueue()
        return pool

    def test_submit_skips_a_respawning_worker(self, pool):
        respawning, live = pool._workers
        respawning.ready = False  # crashed, spawn + checkpoint load pending
        live.ready = True
        assert pool.has_idle_worker()
        pool.submit(7, [{"id": "q"}])
        assert live.task_queue.items == [("batch", 7, [{"id": "q"}])]
        assert respawning.task_queue.items == []
        assert live.assigned == {7}
        assert not pool.has_idle_worker()

    def test_least_loaded_among_ready_workers(self, pool):
        for worker in pool._workers:
            worker.ready = True
        pool.submit(1, [{}])
        pool.submit(2, [{}])
        assert [len(w.assigned) for w in pool._workers] == [1, 1]
        assert not pool.has_idle_worker()

    def test_only_unready_workers_still_get_work(self, pool):
        pool.submit(3, [{}])
        assert not pool.has_idle_worker()
        assert sum(len(w.task_queue.items) for w in pool._workers) == 1

    def test_worker_coming_up_is_announced_off_lock(self, pool, ready_calls):
        pool._pump.start()  # result pump only; no worker processes
        try:
            pool._result_queue.put(("ready", 1))
            deadline = time.monotonic() + WAIT_S
            while not ready_calls and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ready_calls == [False]
            assert pool._workers[1].ready
            assert pool.has_idle_worker()
        finally:
            pool.close()

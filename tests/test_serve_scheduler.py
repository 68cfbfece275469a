"""Unit tests for the serving dispatch rule (no sockets, no worker processes).

:class:`MicroBatchScheduler` is work-conserving: while its ``idle``
predicate holds, buffered entries flush at once; only while every worker
is busy does the size-or-deadline rule apply, and :meth:`release` /
:meth:`wake` wake the batch former so a freed or respawned worker picks
up buffered work before its deadline.  :class:`WorkerPool` dispatch
prefers ready workers over a slot that is still respawning, keeps one job
per worker pipe with the rest in the parent-side FIFO, and a worker
coming up is announced to the scheduler off the pool lock.
"""

import threading
import time

import pytest

from repro.serve import MicroBatchScheduler, ServerConfig, WorkerPool

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
        assert sched.stats.counts["flushed_on_idle"] == 1
        assert sched.stats.counts["flushed_on_deadline"] == 0
        assert sched.stats.counts["flushed_on_size"] == 0

    def test_busy_workers_flush_on_size(self, make_scheduler):
        sched, sink = make_scheduler(
            _Flag(False), max_batch=3, max_delay_ms=LONG_DELAY_MS
        )
        for entry in "abc":
            assert sched.offer(entry)
        assert sink.wait_for(1)
        assert sink.batches == [["a", "b", "c"]]
        assert sched.stats.counts["flushed_on_size"] == 1
        assert sched.stats.counts["flushed_on_idle"] == 0

    def test_busy_workers_flush_on_deadline(self, make_scheduler):
        delay_ms = 50.0
        sched, sink = make_scheduler(_Flag(False), max_batch=8, max_delay_ms=delay_ms)
        start = time.monotonic()
        assert sched.offer("a")
        assert sink.wait_for(1)
        assert time.monotonic() - start >= delay_ms / 1000
        assert sink.batches == [["a"]]
        assert sched.stats.counts["flushed_on_deadline"] == 1
        assert sched.stats.counts["flushed_on_idle"] == 0

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
        assert sched.stats.counts["flushed_on_idle"] == 2
        assert sched.stats.counts["flushed_on_deadline"] == 0
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
        assert sched.stats.counts["flushed_on_idle"] == 1

    def test_every_batch_has_exactly_one_flush_reason(self, make_scheduler):
        sched, sink = make_scheduler(
            _Flag(False), max_batch=2, max_delay_ms=LONG_DELAY_MS
        )
        for entry in "abc":
            assert sched.offer(entry)
        assert sink.wait_for(1)  # "a", "b" flush on size; "c" stays buffered
        assert sched.flush_now() == 1  # reload / close-drain barrier
        assert sink.batches == [["a", "b"], ["c"]]
        stats = sched.stats.snapshot()
        assert (stats["flushed_on_size"], stats["flushed_on_barrier"]) == (1, 1)
        reasons = (
            stats["flushed_on_idle"] + stats["flushed_on_size"]
            + stats["flushed_on_deadline"] + stats["flushed_on_barrier"]
        )
        assert reasons == stats["batches"] == 2


class _FakeConn:
    """Stands in for a worker's pipe: records sends, hands out replies."""

    def __init__(self):
        self.sent = []
        self.replies = []

    def send(self, msg):
        self.sent.append(msg)

    def recv(self):
        return self.replies.pop(0)

    def close(self):
        pass


class _FakeProc:
    """Stands in for a live worker process."""

    sentinel = exitcode = None

    def is_alive(self):
        return True

    def terminate(self):
        pass

    def join(self, timeout=None):
        pass


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
            ServerConfig("unused-checkpoint.npz", "unused-index", workers=2),
            on_batch_done=lambda *a: None,
            on_batch_failed=lambda *a, **k: None,
            on_worker_ready=on_ready,
        )
        # As start() leaves each slot, minus the process: the open job
        # (model load) is in flight on the pipe.
        for slot in pool._slots:
            slot.conn = _FakeConn()
            slot.job = ("open", None)
        return pool

    def test_submit_skips_a_respawning_worker(self, pool):
        respawning, live = pool._slots
        live.ready, live.job = True, None
        assert pool.has_idle_worker()
        pool.submit(7, [{"id": "q"}])
        assert [msg[3] for msg in live.conn.sent] == [([{"id": "q"}],)]
        assert live.job == ("batch", 7)
        assert respawning.conn.sent == [] and not respawning.queue
        assert not pool.has_idle_worker()

    def test_least_loaded_among_ready_workers(self, pool):
        for slot in pool._slots:
            slot.ready, slot.job = True, None
        pool.submit(1, [{}])
        pool.submit(2, [{}])
        assert [s.load() for s in pool._slots] == [1, 1]
        assert not pool.has_idle_worker()
        # A third batch waits in the parent FIFO: one job per pipe.
        pool.submit(3, [{}])
        assert [s.load() for s in pool._slots] == [2, 1]
        assert [len(s.conn.sent) for s in pool._slots] == [1, 1]

    def test_only_unready_workers_still_get_work(self, pool):
        pool.submit(3, [{}])
        assert not pool.has_idle_worker()
        assert sum(len(s.queue) for s in pool._slots) == 1
        assert all(s.conn.sent == [] for s in pool._slots)

    def test_worker_coming_up_is_announced_off_lock(self, pool, ready_calls):
        pool.submit(1, [{}])
        pool.submit(2, [{}])  # one batch queued behind each open job
        slot = pool._slots[1]
        slot.conn.replies.append(("ok", None, None))  # the open job's reply
        pool._handle([slot], {slot.conn})
        assert ready_calls == [False]
        assert slot.ready
        assert slot.job == ("batch", 2)  # the queued batch went out

    def test_failed_open_keeps_queued_batch_for_the_respawn(
        self, pool, monkeypatch
    ):
        def start(worker):  # Supervisor._start, minus the process
            worker.proc, worker.conn = _FakeProc(), _FakeConn()
            worker.token = worker.job = None

        monkeypatch.setattr(pool._sup, "_start", start)
        pool._started.set()  # past start(): a failed open is retried
        slot = pool._slots[0]
        slot.proc = _FakeProc()
        pool.submit(1, [{}])
        # Even with no job on its pipe, a worker that has not opened yet
        # takes nothing from the queue.
        slot.job = None
        pool.submit(2, [{}])
        assert slot.conn.sent == [] and slot.load() == 2
        slot.job = ("open", None)
        slot.conn.replies.append(("err", None, "FileNotFoundError: model.npz"))
        pool._handle([slot], {slot.conn})
        # Respawned: the new worker's pipe carries only its open job, and
        # the batch still waits in the parent FIFO.
        assert [msg[2].__name__ for msg in slot.conn.sent] == ["open_server"]
        assert slot.start_failures == 1 and not slot.error
        assert [job for job, _, _ in slot.queue] == [("batch", 1), ("batch", 2)]
        assert set(pool._open) == {1, 2}
        slot.conn.replies.append(("ok", slot.token, None))
        pool._handle([slot], {slot.conn})
        assert slot.job == ("batch", 1)

"""The one stats mechanism: locked counters, spans and detached snapshots."""

import threading

from repro.utils.timing import Stats


class TestStats:
    def test_concurrent_incs_are_not_lost(self):
        stats = Stats(["hits"])
        threads, per_thread = 8, 5000
        start = threading.Barrier(threads)

        def bump():
            start.wait()
            for _ in range(per_thread):
                stats.inc("hits")

        workers = [threading.Thread(target=bump) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert stats.snapshot()["hits"] == threads * per_thread

    def test_snapshot_is_a_detached_copy(self):
        stats = Stats(["a"])
        snap = stats.snapshot()
        stats.inc("a", 3)
        snap["a"] = 99
        assert stats.snapshot() == {"a": 3}

    def test_declared_counters_start_at_zero(self):
        assert Stats(["x", "y"]).snapshot() == {"x": 0, "y": 0}

    def test_span_counts_and_times(self):
        stats = Stats()
        for _ in range(2):
            with stats.span("lower"):
                pass
        assert stats.counts["lower"] == 2
        assert stats.totals["lower"] >= 0.0
        assert stats.report().startswith("lower")

    def test_report_without_spans(self):
        stats = Stats(["requests"])
        stats.inc("requests")
        assert stats.report() == "(no spans recorded)"

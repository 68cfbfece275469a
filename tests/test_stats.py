"""The one stats mechanism: locked counters, spans and detached snapshots."""

import sys
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
        stats.inc("a", n=3)
        snap["a"] = 99
        assert stats.snapshot() == {"a": 3}

    def test_names_bumped_together_stay_consistent(self):
        # A batch flush counts its reason and "batches" in one inc call, so
        # no snapshot may see one without the other.
        stats = Stats(["flushed_on_size", "batches"])
        writers, rounds = 4, 5000

        def flush():
            for _ in range(rounds):
                stats.inc("flushed_on_size", "batches")

        threads = [threading.Thread(target=flush) for _ in range(writers)]
        torn = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                snap = stats.snapshot()
                if snap["flushed_on_size"] != snap["batches"]:
                    torn.append(snap)
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert torn == []
        total = writers * rounds
        assert stats.snapshot() == {"flushed_on_size": total, "batches": total}

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

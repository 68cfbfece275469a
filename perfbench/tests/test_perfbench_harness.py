"""Tests for the benchmark's own helpers (``perfbench/harness.py``).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
from harness import (  # noqa: E402
    Outcomes,
    Probe,
    Tracer,
    latency_summary,
    interquartile_rate,
    open_loop_schedule,
    percentile,
    probes,
    repeat_share,
    same_answer,
    supported_percentile,
)


class TestPercentileRule:
    def test_needs_ten_samples_beyond(self):
        # n=200: the 95th percentile has exactly 10 samples above it.
        assert supported_percentile(200) == 95.0
        assert supported_percentile(199) == 90.0
        # p99 needs 1000 samples; p99.9 needs 10000.
        assert supported_percentile(999) == 95.0
        assert supported_percentile(1000) == 99.0
        assert supported_percentile(10000) == 99.9

    def test_too_few_samples_support_nothing(self):
        assert supported_percentile(0) is None
        assert supported_percentile(19) is None
        assert supported_percentile(20) == 50.0

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 100) == 100
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summary_flags_unsupported_tail(self):
        small = latency_summary([0.001] * 50)
        assert small["samples"] == 50 and not small["p95_supported"]
        big = latency_summary([0.001 * i for i in range(1, 201)])
        assert big["p95_supported"] and big["p95_ms"] == pytest.approx(190.0)

    def test_failed_requests_count_as_infinite_latency(self):
        lat = latency_summary([0.01] * 190 + [float("inf")] * 10)
        assert lat["p50_ms"] == pytest.approx(10.0)
        assert lat["p95_ms"] == pytest.approx(10.0)
        lat = latency_summary([0.01] * 189 + [float("inf")] * 11)
        assert lat["p95_ms"] == float("inf")


class TestInterquartileRate:
    def test_steady_stream(self):
        stamps = [0.01 * i for i in range(1000)]  # 100/s for 10 s
        assert interquartile_rate(stamps, 0.0, 10.0, 1.0) == pytest.approx(100.0)

    def test_ignores_a_short_stall(self):
        # 100/s, except nothing completes between 3 s and 5 s.
        stamps = [0.01 * i for i in range(1000) if not 3.0 <= 0.01 * i < 5.0]
        assert interquartile_rate(stamps, 0.0, 10.0, 1.0) == pytest.approx(100.0)

    def test_trims_a_quarter_from_each_end(self):
        # Eight windows holding 1..8 completions: 1, 2, 7 and 8 are dropped.
        stamps = [w + 0.01 * i for w in range(8) for i in range(w + 1)]
        assert interquartile_rate(stamps, 0.0, 8.0, 1.0) == pytest.approx(4.5)

    def test_whole_windows_only(self):
        stamps = [0.5, 1.5, 1.6, 2.5, 2.6, 2.7]
        # [0, 2.9) holds two whole windows (1 and 2 completions); 2.5+ is out.
        assert interquartile_rate(stamps, 0.0, 2.9, 1.0) == pytest.approx(1.5)
        assert interquartile_rate(stamps, 1.0, 4.0, 1.0) == pytest.approx(5 / 3)
        # Six half-second windows hold 0, 1, 0, 2, 0, 3: the mean of 0, 0, 1, 2.
        assert interquartile_rate(stamps, 0.0, 3.0, 0.5) == pytest.approx(1.5)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            interquartile_rate([], 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            interquartile_rate([], 0.0, 5.0, 0.0)


class TestOpenLoopSchedule:
    def test_seeded_and_deterministic(self):
        a = open_loop_schedule(30.0, 240, seed=5)
        assert a == open_loop_schedule(30.0, 240, seed=5)
        assert a != open_loop_schedule(30.0, 240, seed=6)

    def test_fixed_count_within_horizon_sorted(self):
        offsets = open_loop_schedule(25.0, 200, seed=1)
        assert len(offsets) == 200
        assert offsets == sorted(offsets)
        assert 0.0 <= offsets[0] and offsets[-1] < 200 / 25.0

    def test_mean_rate(self):
        offsets = open_loop_schedule(50.0, 5000, seed=2)
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert sum(gaps) / len(gaps) == pytest.approx(1 / 50.0, rel=0.05)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            open_loop_schedule(0.0, 10, seed=1)
        with pytest.raises(ValueError):
            open_loop_schedule(1.0, -1, seed=1)


class TestRepeatShare:
    def test_distinct(self):
        assert repeat_share(["a", "b", "c"]) == 0.0
        assert repeat_share([]) == 0.0

    def test_within_sequence(self):
        assert repeat_share(["a", "a", "b", "a"]) == pytest.approx(0.5)

    def test_history_counts_as_seen(self):
        assert repeat_share(["a", "b"], history=["a", "b"]) == 1.0
        assert repeat_share(["a", "c"], history=["a"]) == pytest.approx(0.5)


def _answer(*hits, **extra):
    return {"id": "q", **extra, "hits": [
        {"rank": r, "index": i, "score": s, "key": f"k{i}", "meta": {"id": i}}
        for r, (i, s) in enumerate(hits, 1)]}


class TestSameAnswer:
    def test_equal_and_rounded(self):
        want = _answer((3, 0.9), (1, 0.8), (2, 0.7))
        assert same_answer(want, want, 1e-6)
        assert same_answer(_answer((3, 0.9), (1, 0.8 + 6e-8), (2, 0.7)), want, 1e-6)

    def test_score_beyond_tolerance(self):
        want = _answer((3, 0.9), (1, 0.8))
        assert not same_answer(_answer((3, 0.9), (1, 0.8001)), want, 1e-6)

    def test_near_ties_may_swap(self):
        want = _answer((3, 0.9), (1, 0.8 + 5e-8), (2, 0.8))
        assert same_answer(_answer((3, 0.9), (2, 0.8 + 5e-8), (1, 0.8)), want, 1e-6)
        # A near tie at the last place may let another candidate in.
        assert same_answer(_answer((3, 0.9), (1, 0.8 + 5e-8), (7, 0.8)), want, 1e-6)

    def test_different_candidate(self):
        want = _answer((3, 0.9), (1, 0.8), (2, 0.7))
        assert not same_answer(_answer((3, 0.9), (5, 0.8), (2, 0.7)), want, 1e-6)
        assert not same_answer(_answer((3, 0.9), (1, 0.8)), want, 1e-6)

    def test_other_fields_exact(self):
        want = _answer((3, 0.9))
        assert not same_answer(_answer((3, 0.9), degraded=True), want, 1e-6)
        assert not same_answer({"id": "q", "error": "x"}, want, 1e-6)


class TestFailureCounting:
    def test_outcomes(self):
        out = Outcomes(sent=6)
        out.record({"id": 1, "hits": []})
        out.record({"id": 2, "hits": []})
        out.record({"id": 3, "error": "overloaded", "retry_after_ms": 11})
        out.record({"id": 4, "error": "binary does not decompile"})
        out.record(None)  # never answered
        out.record({"id": 6, "hits": []})
        out.mismatch(1)
        assert (out.succeeded, out.shed, out.failed, out.mismatched) == (3, 1, 2, 1)
        assert out.bad == 4
        assert out.error_rate == pytest.approx(4 / 6)
        assert out.as_dict()["error_rate"] == pytest.approx(4 / 6)

    def test_nothing_attempted(self):
        assert Outcomes().error_rate == 0.0


class TestTracer:
    def test_self_time_excludes_children(self, monkeypatch):
        clock = iter([0.0, 1.0, 3.0, 3.0, 5.0, 5.5])  # span enter/exit times
        monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
        tracer = Tracer()
        with tracer.span("outer"):  # 0.0 .. 5.5
            with tracer.span("inner"):  # 1.0 .. 3.0
                pass
            with tracer.span("inner"):  # 3.0 .. 5.0
                pass
        assert tracer.calls == {"outer": 1, "inner": 2}
        assert tracer.self_seconds == {"inner": 4.0, "outer": 1.5}
        assert tracer.total() == 5.5  # self times add up to the outer span
        assert tracer.total(exclude=("outer",)) == 4.0

    def test_span_closes_on_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError
        assert tracer.calls == {"boom": 1}

    def test_opaque_span_records_nothing_inside(self):
        tracer = Tracer()
        with tracer.span("outer", opaque=True):
            with tracer.span("inner"):
                pass
        with tracer.span("inner"):
            pass
        assert tracer.calls == {"outer": 1, "inner": 1}


class _Model:
    def forward(self, x):
        return 2 * x


class _Child(_Model):
    def predict(self, x):
        return self.forward(x) + 1


class TestProbes:
    def test_wraps_in_place_and_restores(self):
        tracer = Tracer()
        own = _Child.__dict__["predict"]
        with probes(tracer, [Probe(_Child, "predict", "predict"),
                             Probe(_Child, "forward", "forward", keep=str)]):
            assert _Child().predict(3) == 7
            assert _Child().forward(1) == 2
        assert tracer.calls == {"forward": 2, "predict": 1}
        assert tracer.kept == {"forward": ["6", "2"]}
        # The inherited method was wrapped on the subclass and removed again.
        assert "forward" not in vars(_Child)
        assert _Child.__dict__["predict"] is own

    def test_opaque_probe_hides_callees(self):
        tracer = Tracer()
        with probes(tracer, [Probe(_Child, "predict", "predict", opaque=True),
                             Probe(_Model, "forward", "forward")]):
            _Child().predict(1)
            _Child().forward(1)
        assert tracer.calls == {"predict": 1, "forward": 1}

    def test_module_function(self):
        tracer = Tracer()
        with probes(tracer, [Probe(harness, "repeat_share", "share")]):
            assert harness.repeat_share(["a", "a"]) == 0.5
        assert tracer.calls == {"share": 1}
        assert harness.repeat_share is repeat_share

    def test_restores_after_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with probes(tracer, [Probe(_Model, "forward", "forward")]):
                raise RuntimeError
        assert _Model.__dict__["forward"].__name__ == "forward"
        assert not hasattr(_Model.forward, "__wrapped__")

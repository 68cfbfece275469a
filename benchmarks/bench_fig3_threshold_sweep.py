"""Figure 3 — precision/recall/F1 as the decision threshold varies.

Paper: recall falls and precision rises with the threshold; F1 has a broad
plateau with a slight peak below 0.5 (the paper saw ~0.2 best-F1 but chose
0.5 for accuracy).  This bench prints the full series.
"""

from repro.eval.experiments import run_graphbinmatch
from repro.eval.threshold import sweep_thresholds
from repro.utils.tables import Table

from benchmarks.common import bench_model_config, crosslang_dataset, run_once, trained_gbm


def _run():
    ds, _ = crosslang_dataset(("c", "cpp"), ("java",))
    result = run_graphbinmatch(
        ds, bench_model_config(), trainer=trained_gbm("cross-fwd", ds)
    )
    return sweep_thresholds(result.labels, result.scores)


def test_fig3_threshold_sweep(benchmark):
    points = run_once(benchmark, _run)
    table = Table(
        "Figure 3: metric vs decision threshold",
        ["Threshold", "Precision", "Recall", "F1", "Accuracy"],
    )
    for p in points:
        table.add_row(p.threshold, p.precision, p.recall, p.f1, p.accuracy)
    print()
    print(table.render())
    recalls = [p.recall for p in points]
    # Paper shape: recall is non-increasing in the threshold.
    assert all(a >= b - 1e-9 for a, b in zip(recalls, recalls[1:]))

"""Table VII — node-count statistics per confusion cell (failure analysis).

Paper: the median node-count difference for false positives is ~50% larger
than for true positives — size mismatch is the dominant failure mode.
Shape: FP/FN pairs show a larger node-count gap than TP pairs.
"""

from repro.eval.analysis import node_count_statistics
from repro.eval.experiments import run_graphbinmatch
from repro.utils.tables import Table

from benchmarks.common import bench_model_config, crosslang_dataset, run_once, trained_gbm


def _run():
    ds, _ = crosslang_dataset(("c", "cpp"), ("java",))
    result = run_graphbinmatch(
        ds, bench_model_config(), trainer=trained_gbm("cross-fwd", ds)
    )
    stats = node_count_statistics(
        ds.test, result.labels, result.scores >= result.threshold
    )
    return stats


def test_table7_node_count_statistics(benchmark):
    stats = run_once(benchmark, _run)
    table = Table(
        "Table VII: node counts per confusion cell (test set)",
        ["Cell", "Count", "Mean nodes", "Median nodes", "Mean |ΔN|", "Median |ΔN|"],
    )
    for cell in ("true_positive", "false_positive", "true_negative", "false_negative"):
        s = stats[cell]
        table.add_row(
            cell, s["count"], s["mean_nodes"], s["median_nodes"],
            s["mean_diff"], s["median_diff"],
        )
    print()
    print(table.render())
    assert sum(stats[c]["count"] for c in stats) > 0

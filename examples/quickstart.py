"""Quickstart: train GraphBinMatch on a small corpus and score a pair.

Runs the paper's whole pipeline end to end on a generated CLCDSA-like
corpus (C/C++ binaries vs Java sources), trains the scaled model, reports
test metrics, and scores one concrete binary-source pair.

    python examples/quickstart.py

Set ``REPRO_SMOKE=1`` for the CI-sized run (fewer epochs, same path).
"""

import os

from repro.config import cpu_config, scaled, tiny_data_config
from repro.eval.experiments import build_crosslang_dataset, run_graphbinmatch
from repro.utils.timing import timed

EPOCHS = 2 if os.environ.get("REPRO_SMOKE") == "1" else 20


def main() -> None:
    print("== GraphBinMatch quickstart ==")
    with timed("build corpus (generate → compile → decompile → graphs)"):
        dataset, builder = build_crosslang_dataset(
            tiny_data_config(), binary_langs=["c", "cpp"], source_langs=["java"]
        )
    train, valid, test = dataset.sizes()
    print(f"pairs: train={train} valid={valid} test={test}")

    with timed("train + evaluate"):
        result = run_graphbinmatch(dataset, scaled(cpu_config(), epochs=EPOCHS))
    m = result.metrics
    print(
        f"test precision={m.precision:.2f} recall={m.recall:.2f} "
        f"f1={m.f1:.2f} accuracy={m.accuracy:.2f}"
    )

    pos = next(p for p, s in zip(dataset.test, result.scores) if p.label == 1)
    idx = dataset.test.index(pos)
    print(
        f"example positive pair ({pos.task_left}): score={result.scores[idx]:.3f} "
        f"(binary graph {pos.left.num_nodes} nodes, source graph {pos.right.num_nodes} nodes)"
    )


if __name__ == "__main__":
    main()

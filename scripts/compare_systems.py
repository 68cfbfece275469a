"""Run every system on one CLCDSA-style dataset and print the Table III row.

Usage: python scripts/compare_systems.py <num_tasks> <gbm_epochs> [seed]
"""

import sys
import time

import numpy as np

from repro.config import DataConfig, cpu_config, scaled
from repro.core.trainer import MatchTrainer
from repro.eval.experiments import (
    build_crosslang_dataset,
    run_feature_baseline,
    run_xlir,
)
from repro.eval.metrics import classification_metrics
from repro.eval.threshold import best_threshold


def main() -> None:
    num_tasks = int(sys.argv[1])
    epochs = int(sys.argv[2])
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 7

    dcfg = DataConfig(num_tasks=num_tasks, variants=2, seed=seed, max_pairs_per_task=4)
    ds, _ = build_crosslang_dataset(dcfg, ["c", "cpp"], ["java"])
    print(f"splits {ds.sizes()}", flush=True)
    tl = np.asarray([p.label for p in ds.test])

    rows = []
    for name in ("BinPro", "B2SFinder"):
        t0 = time.time()
        res = run_feature_baseline(ds, name)
        rows.append((name, res.metrics, res.threshold, time.time() - t0))
        print(f"{name} done {time.time()-t0:.0f}s -> {res.metrics}", flush=True)

    for enc in ("lstm", "transformer"):
        t0 = time.time()
        res = run_xlir(ds, enc)
        rows.append((f"XLIR({enc})", res.metrics, res.threshold, time.time() - t0))
        print(f"XLIR({enc}) done {time.time()-t0:.0f}s -> {res.metrics}", flush=True)

    mcfg = scaled(cpu_config(seed=seed), epochs=epochs)
    tr = MatchTrainer(mcfg)
    t0 = time.time()
    tr.train(ds)
    vs = tr.predict(ds.valid)
    vl = np.asarray([p.label for p in ds.valid])
    th = best_threshold(vl, vs)
    scores = tr.predict(ds.test)
    m = classification_metrics(tl, scores >= th)
    rows.append(("GraphBinMatch", m, th, time.time() - t0))
    print(f"GraphBinMatch done {time.time()-t0:.0f}s", flush=True)

    print(f"\n{'System':<20} {'P':>5} {'R':>5} {'F1':>5} {'th':>5} {'sec':>6}")
    for name, m, th, sec in rows:
        print(f"{name:<20} {m.precision:>5.2f} {m.recall:>5.2f} {m.f1:>5.2f} "
              f"{th:>5.2f} {sec:>6.0f}")


if __name__ == "__main__":
    main()

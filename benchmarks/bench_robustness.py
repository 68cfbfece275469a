"""Robustness workload — transform determinism, clean parity, warm reuse.

Not a paper table: this bench gates the transformation/augmentation
subsystem (``repro.transform`` + ``repro.eval.robustness``, PR 5).  It
sweeps every registered transform (plus a stacked chain) across
intensities against a clean candidate index and asserts the engineering
contracts the workload stands on:

* **determinism** — every registered transform, applied twice with the
  same spec through fresh pipelines, produces bit-identical binary
  artifacts (the artifact store's content-addressing depends on it), and
  at full intensity actually changes the bytes;
* **clean parity** — the harness's untransformed baseline row equals a
  direct :func:`~repro.eval.retrieval.evaluate_retrieval` sweep over the
  same corpus: the new workload reproduces the seed benches' clean
  numbers instead of quietly shifting them;
* **warm reuse** — a second harness pointed at the same artifact store
  and sharded index directory re-runs the whole sweep ≥ 3× faster (the
  clean candidate embeddings load from the sharded index and every
  transformed compilation loads from the store; only transformed query
  graphs are re-embedded), with a bit-identical robustness matrix.

The matrix and wall-clocks merge into
``benchmarks/perf/BENCH_robustness.json``.  Set ``REPRO_BENCH_SMOKE=1``
(scripts/verify.sh does) for a reduced sweep with the same gates.
"""

import os
import time
from pathlib import Path

from repro.artifacts import ArtifactStore
from repro.config import DataConfig
from repro.eval.retrieval import evaluate_retrieval
from repro.eval.robustness import CLEAN, RobustnessCell, RobustnessHarness
from repro.pipeline import CompilationPipeline
from repro.transform import TRANSFORM_REGISTRY, TransformSpec, chain_id
from repro.utils.tables import Table

from benchmarks.common import (
    BENCH_SEED,
    crosslang_dataset,
    run_once,
    trained_gbm,
    write_perf_record,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

# Corpus economics for the warm-reuse gate: candidates outnumber queries
# (MAX_QUERIES caps the query side), so the cold run's candidate encoding
# + corpus compilation dominate and the warm run (store hits + index open
# + query embeds only) clears 3x.
CORPUS_TASKS = 12 if SMOKE else 18
TRAIN_TASKS = 6 if SMOKE else 8
MAX_QUERIES = 8 if SMOKE else 12
VARIANTS = 2
INTENSITIES = (1.0,) if SMOKE else (0.5, 1.0)
CHAINS = tuple(sorted(TRANSFORM_REGISTRY)) + ("deadcode+regrename",)
# The compact serving-scale model: the bench measures the harness's
# caching, not model quality.
ROBUST_MODEL = dict(epochs=4, hidden_dim=16, embed_dim=16, num_layers=1)

# A call-bearing program with branches: every transform has eligible
# sites (inline needs a surviving call, hence O1 not Oz).
_DET_SOURCE = """\
int helper(int a, int b) { int t = a * 2 + b; return t - 3; }
int main() {
    int s = 0;
    for (int i = 1; i <= 8; i++) {
        if (i % 2 == 0) { s += helper(i, s); } else { s = s - i; }
    }
    printf("%d\\n", s);
    return 0;
}
"""


def _compile_bytes(spec_chain) -> bytes:
    """One fresh-pipeline compile of the determinism probe program."""
    result = CompilationPipeline(transforms=spec_chain).compile(
        _DET_SOURCE, "c", name="det-probe", opt_level="O1"
    )
    return result.binary_bytes


def _determinism_sweep() -> dict:
    """Compile every registered transform twice; report equality bits."""
    clean = _compile_bytes(())
    rows = {}
    for name in sorted(TRANSFORM_REGISTRY):
        chain = (TransformSpec(name, 1.0, seed=BENCH_SEED),)
        first, second = _compile_bytes(chain), _compile_bytes(chain)
        rows[name] = {
            "deterministic": first == second,
            "changes_bytes": first != clean,
        }
    stacked = tuple(
        TransformSpec(n, 1.0, seed=BENCH_SEED)
        for n in ("deadcode", "instsub", "regrename", "pad")
    )
    first, second = _compile_bytes(stacked), _compile_bytes(stacked)
    rows[chain_id(stacked)] = {
        "deterministic": first == second,
        "changes_bytes": first != clean,
    }
    return rows


def _run():
    dataset, _ = crosslang_dataset(("c",), ("java",), num_tasks=TRAIN_TASKS, variants=2)
    trainer = trained_gbm("robustness", dataset, **ROBUST_MODEL)
    cfg = DataConfig(
        num_tasks=CORPUS_TASKS, variants=VARIANTS, seed=BENCH_SEED,
        max_pairs_per_task=4,
    )
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-robust-") as tmp:
        store_dir = Path(tmp) / "artifacts"
        index_dir = Path(tmp) / "clean-index"

        def harness() -> RobustnessHarness:
            return RobustnessHarness(
                trainer,
                cfg,
                source_languages=["java"],
                query_language="c",
                store=ArtifactStore(store_dir),
                index_root=index_dir,
                transform_seed=BENCH_SEED,
                max_queries=MAX_QUERIES,
            )

        t0 = time.perf_counter()
        cold_harness = harness()
        cold_report = cold_harness.evaluate(CHAINS, INTENSITIES)
        cold_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm_harness = harness()
        warm_report = warm_harness.evaluate(CHAINS, INTENSITIES)
        warm_s = time.perf_counter() - t0

        # Clean parity: the harness baseline vs a direct retrieval sweep
        # over the same (queries, candidates) with the same trainer —
        # wrapped in a RobustnessCell so both sides share one dict shape.
        direct = RobustnessCell(
            CLEAN,
            0.0,
            evaluate_retrieval(
                trainer, cold_harness.clean_queries(), cold_harness.candidates
            ),
        )

    return {
        "determinism": _determinism_sweep(),
        "matrix": cold_report.matrix(),
        "matrix_warm": warm_report.matrix(),
        "clean_row": cold_report.clean.to_dict(),
        "direct_clean": direct.to_dict(),
        "num_candidates": cold_report.num_candidates,
        "num_queries": cold_report.num_queries,
        "cold_s": cold_s,
        "warm_s": warm_s,
    }


def test_robustness_workload(benchmark):
    r = run_once(benchmark, _run)
    speedup = r["cold_s"] / r["warm_s"] if r["warm_s"] else float("inf")

    table = Table(
        f"Robustness sweep: {r['num_queries']} queries x "
        f"{r['num_candidates']} candidates, {len(CHAINS)} chains x "
        f"{len(INTENSITIES)} intensities",
        ["Run", "Wall s", "Speedup"],
    )
    table.add_row("cold (compile + encode corpus)", round(r["cold_s"], 2), 1.0)
    table.add_row("warm (store + sharded index)", round(r["warm_s"], 2), round(speedup, 1))
    print()
    print(table.render())
    mrr_table = Table("Robustness matrix (MRR)", ["Chain"] + [f"i={i:g}" for i in INTENSITIES])
    for chain, row in r["matrix"].items():
        if chain == "clean":
            continue
        mrr_table.add_row(chain, *(round(row[f"{i:g}"]["mrr"], 3) for i in INTENSITIES))
    print(mrr_table.render())

    # Gate 1: every registered transform is deterministic under a fixed
    # seed and perturbs the probe binary at full intensity.
    for name, bits in r["determinism"].items():
        assert bits["deterministic"], f"{name} is not bit-deterministic"
        assert bits["changes_bytes"], f"{name} did not change the binary"

    # Gate 2: the clean baseline reproduces the direct retrieval sweep.
    assert r["clean_row"] == r["direct_clean"], (
        f"clean robustness row {r['clean_row']} != direct retrieval "
        f"{r['direct_clean']}"
    )

    # Gate 3: warm re-runs reuse cached clean embeddings and compiled
    # variants — ≥3x faster, with a bit-identical matrix.
    assert r["matrix_warm"] == r["matrix"], "warm matrix differs from cold"
    assert r["warm_s"] * 3 <= r["cold_s"], (
        f"warm robustness run only {speedup:.1f}x faster than cold"
    )

    write_perf_record(
        "robustness",
        {
            "cold_s": r["cold_s"],
            "warm_s": r["warm_s"],
            "warm_speedup": speedup,
            "num_candidates": r["num_candidates"],
            "num_queries": r["num_queries"],
            "determinism": r["determinism"],
            "matrix": r["matrix"],
            "smoke": SMOKE,
        },
    )

"""The repository benchmark: one command, four workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workers 2 --workload serve_unique --seed 1 \\
        --seconds 15 --trace 0

Workloads (the reasons are in ``BENCHMARK.json``):

* ``serve_unique``     distinct binary queries to ``repro serve --socket``
* ``serve_hot_large``  a small cached hot set against a ~20k-entry index
* ``train_epochs``     ``MatchTrainer.train`` on a fixed pair dataset
* ``corpus_build_cold`` ``CorpusBuilder.build`` into a fresh artifact store

With ``--trace 0`` a run measures the end-to-end metrics with no tracing:
``setup_s`` (median of several set-ups per run), ``latency_p50_ms`` (per
operation: a request, an epoch or a program), ``ops_per_s`` (saturation
queries/s, trained pairs/s or built programs/s) and ``peak_rss_mb`` (the
program's processes, read from ``/proc``).  The run record beside them
holds the tail (``latency_p95_ms`` with its sample count) and
``error_rate``; neither is a bounded metric: host CPU bursts set the tail
more than the program does, and the error rate reads 0 on every correct
run.  With
``--trace 1`` it runs the same work in-process through the program's entry
points, with spans wrapped around each layer's public callables
(``harness.probes``) or read from the program's own timers, and reports
per-layer self time per operation, call counts, server batching counters,
``trace.coverage`` and ``trace.overhead_s``.

Which end-to-end metric each per-layer metric should move, and where:

* ``serve.batch_size_mean``, ``serve.deadline_flush_share`` -> ``ops_per_s``
  and ``latency_p50_ms`` on serve_unique;
* ``serve.overhead_ms`` (client latency minus in-process handle_batch time)
  -> ``latency_p50_ms`` on both serve workloads;
* ``serve.handle_batch_ms``, ``serve.response_json_ms`` -> ``ops_per_s`` on
  both serve workloads;
* ``binary.decompile_ms``, ``graphs.build_ms`` -> ``latency_p50_ms`` on
  serve_unique and ``ops_per_s`` on corpus_build_cold;
* ``index.fingerprint_ms`` -> ``latency_p50_ms`` on serve_hot_large;
* ``graphs.batch_ms``, ``core.tokenize_ms``, ``nn.encode_ms``,
  ``nn.gnn_ms`` -> ``ops_per_s`` on serve_unique (about 0 on
  serve_hot_large, where ``index.cache_hit_share`` is about 1);
* ``index.pair_head_ms``, ``index.rank_ms``, ``index.topk_batch_ms`` ->
  ``latency_p50_ms`` and ``ops_per_s`` on serve_hot_large;
* ``index.open_s`` -> ``setup_s`` on the serve workloads;
* ``core.encode_pairs_s`` -> ``setup_s`` on train_epochs;
* ``nn.forward_ms``, ``nn.backward_ms``, ``nn.optim_step_ms`` ->
  ``ops_per_s`` on train_epochs;
* ``lang.generate_ms``, ``ir.lower_ms``, ``ir.optimize_ms``,
  ``binary.codegen_ms``, ``artifacts.put_ms`` -> ``ops_per_s`` on
  corpus_build_cold.

Every run checks its outputs against an in-process call of the same entry
point and counts each mismatch, shed or error as failed.  Everything before the last
line of output is the run record (host, inputs, workload properties, phase
counts, checks); the last line is the result object.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("serve_unique", "serve_hot_large", "train_epochs", "corpus_build_cold")


@dataclass
class Context:
    """What every workload needs to know about this run."""

    root: Path
    src_dir: Path
    work_dir: Path
    seed: int
    seconds: float
    workers: int


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=2,
                        help="serve worker processes")
    return parser.parse_args(argv)


def _declared(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def _dispatch(ctx: Context, workload: str, trace: bool) -> dict:
    if workload.startswith("serve_"):
        import serve_bench

        return serve_bench.run(ctx, workload, trace)
    import batch_bench

    if workload == "train_epochs":
        return batch_bench.run_train(ctx, trace)
    return batch_bench.run_corpus(ctx, trace)


def main(argv=None) -> int:
    """Run one workload once; print the record and the result line."""
    args = _parse(argv)
    root = Path.cwd()
    src_dir = root / "src"
    if not (src_dir / "repro" / "__init__.py").exists():
        print(f"perfbench: no program source at {src_dir}/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    from harness import host_record, pin_threads

    pin_threads()  # before NumPy loads its BLAS
    sys.path.insert(0, str(src_dir))
    declared = _declared(root)
    work_dir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    ctx = Context(root, src_dir, work_dir, args.seed, args.seconds, args.workers)
    started = time.perf_counter()
    try:
        result = _dispatch(ctx, args.workload, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    produced = result["per_layer"] if args.trace else result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if not args.trace and missing:
        print(f"perfbench: end-to-end metrics not produced: {missing}", file=sys.stderr)
        return 3
    # A layer this workload does not run reads 0 (no calls, no time).
    metrics = {m["name"]: {"value": float(produced.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    checks_ok = all(v for v in result["checks"].values() if isinstance(v, bool))
    correct = checks_ok and result["failed"] == 0
    record = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "host": host_record(str(root), args.seed, args.workers),
        "valid": result["valid"],
        "run_wall_s": time.perf_counter() - started,
        **result["record"],
    }
    print(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""train_epochs and corpus_build_cold: the researcher-facing batch jobs.

Untraced runs launch the program as its own process (``child.py``) once per
repetition, until the measured work adds up to the run length (at least
three launches, whose set-up times give ``setup_s``), and read its peak
memory from ``/proc``.  Traced runs call the same entry point
(``MatchTrainer.train`` / ``CorpusBuilder.build``) in-process three times:
plain, under probes (spans wrapped around the layers' public callables),
plain again.  The traced call must reproduce the plain one's loss curve or
graph fingerprints exactly.  Layers the program already times are read
from its own timers: ``TrainReport.timings`` and the compilation
pipeline's ``Timer``.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import random
import selectors
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from statistics import median
from typing import List, Tuple

import numpy as np

import inputs
from harness import (Outcomes, Probe, Tracer, interquartile_rate, latency_summary,
                     pin_threads, probes, rss_mb)

import repro.nn
from repro.artifacts import ArtifactStore
from repro.core.model import GraphBinMatch
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.index import graph_fingerprint
from repro.lang.generator import LANGUAGES, SolutionGenerator
from repro.nn.optim import Adam, Optimizer
from repro.nn.tensor import Tensor
from repro.pipeline import CompilationPipeline

MIN_LAUNCHES = 3
SPOT_CHECKS = 12  # corpus programs recompiled through CompilationPipeline.compile
RATE_WINDOW_S = 1.0  # corpus throughput: interquartile mean of windows this long
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT = 150.0


def launch(ctx, kind: str, input_path: Path) -> Tuple[float, dict, float]:
    """Run one child program: (seconds to ready, its result, peak RSS MiB)."""
    env = pin_threads(dict(os.environ, PYTHONPATH=str(ctx.src_dir)))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), kind, str(input_path)], env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=None,
    )
    reader = _Lines(proc)
    try:
        if reader.next() != "ready":
            raise RuntimeError(f"{kind} program did not report ready")
        ready_s = time.perf_counter() - started
        result = json.loads(reader.next())
        peak = rss_mb([proc.pid])
    finally:
        reader.selector.close()
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} program exited with {proc.returncode}")
    return ready_s, result, peak


class _Lines:
    """Line reader over a child's stdout with an overall deadline."""

    def __init__(self, proc):
        self.proc = proc
        self.buf = b""
        self.deadline = time.monotonic() + CHILD_TIMEOUT
        self.selector = selectors.DefaultSelector()
        self.selector.register(proc.stdout, selectors.EVENT_READ)

    def next(self) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                self.proc.kill()
                raise RuntimeError("child program timed out")
            if self.selector.select(timeout=remaining):
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RuntimeError("child program exited early")
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode().strip()


# ----------------------------------------------------------------- train
def run_train(ctx, trace: bool) -> dict:
    """One run of train_epochs."""
    t_prep = time.perf_counter()
    dataset, config = inputs.train_setup(ctx.seed)
    prep_s = time.perf_counter() - t_prep
    steps_per_epoch = math.ceil(len(dataset.train) / config.batch_pairs)
    props = {
        "train_pairs": len(dataset.train),
        "valid_pairs": len(dataset.valid),
        "epochs": config.epochs,
        "steps_per_epoch": steps_per_epoch,
        "mean_nodes_per_graph": float(np.mean(
            [g.num_nodes for p in dataset.train for g in (p.left, p.right)])),
        "model": {"hidden_dim": config.hidden_dim, "embed_dim": config.embed_dim,
                  "num_layers": config.num_layers, "batch_pairs": config.batch_pairs},
    }
    if trace:
        return _trace_train(dataset, config, props, prep_s)

    input_path = ctx.work_dir / "train.pkl"
    with open(input_path, "wb") as fh:
        pickle.dump((dataset, config), fh)
    setups, epochs, firsts, curves, peaks = [], [], [], [], []
    pairs_trained, train_s = 0, 0.0
    while len(curves) < MIN_LAUNCHES or train_s < ctx.seconds:
        ready_s, result, peak = launch(ctx, "train", input_path)
        setups.append(ready_s + result["timings"]["encode"])
        epochs.extend(result["epoch_seconds"])
        firsts.append(result["epoch_seconds"][0])
        curves.append(result["epoch_losses"])
        peaks.append(peak)
        pairs_trained += result["train_pairs"] * len(result["epoch_losses"])
        train_s += result["timings"]["train"]
    outcomes = Outcomes(sent=len(curves), succeeded=len(curves))
    diverged = sum(1 for c in curves if c != curves[0] or not all(map(math.isfinite, c)))
    outcomes.mismatch(diverged)
    lat = latency_summary(epochs)
    throughput = pairs_trained / train_s
    metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": lat["p50_ms"],
        "ops_per_s": throughput,
        "peak_rss_mb": max(peaks),
    }
    checks = {"loss_curves_identical_across_launches": diverged == 0,
              "launches": len(curves)}
    record = {
        "operation": "one training epoch (latency); one trained pair (throughput)",
        "prep_s": prep_s,
        "setup_s_each": setups,
        "latency": lat,
        # One epoch in TRAIN_EPOCHS is a launch's first, about twice as slow
        # as the rest (warm-up): p95 is that first-epoch time, p50 a
        # steady-state epoch.  Thirty-odd epochs support no tail percentile.
        "latency_note": "p95 = first-epoch (warm-up) time; p50 = steady-state epoch",
        "first_epoch_ms": 1000.0 * median(firsts),
        "loss_curve": curves[0],
        "named_metrics": {
            "train_pairs_per_s": {"value": throughput, "unit": "1/s"},
            "error_rate": {"value": outcomes.error_rate, "unit": "1"},
        },
        "workload": props,
        "checks": checks,
    }
    return {"metrics": metrics, "per_layer": {}, "attempted": outcomes.sent,
            "failed": outcomes.bad, "checks": checks, "record": record, "valid": True}


def train_probes() -> List[Probe]:
    """Spans around a training step's public calls.

    Validation after the last epoch (``MatchTrainer.predict``) is opaque,
    so its forward passes do not count as training steps.
    """
    return [
        Probe(GraphBinMatch, "forward", "nn.forward"),
        Probe(repro.nn, "binary_cross_entropy", "nn.loss"),
        Probe(Tensor, "backward", "nn.backward"),
        Probe(Optimizer, "zero_grad", "nn.optim_step"),
        Probe(Optimizer, "clip_grad_norm", "nn.optim_step"),
        Probe(Adam, "step", "nn.optim_step"),
        Probe(MatchTrainer, "predict", "core.predict", opaque=True),
    ]


def _bracketed(untraced, traced):
    """Run ``untraced``, ``traced``, ``untraced``; time each.

    Returns (first untraced result, traced result, traced seconds, mean
    untraced seconds).  Bracketing the traced pass puts one-time warm-up
    costs and slow host drift on both sides of the tracing overhead.
    """
    walls, results = [], []
    for fn in (untraced, traced, untraced):
        started = time.perf_counter()
        results.append(fn())
        walls.append(time.perf_counter() - started)
    return results[0], results[1], walls[1], (walls[0] + walls[2]) / 2.0


def _spans(tracer: Tracer, per: int) -> dict:
    """Every span's self ms per operation and call count, for the record."""
    return {name: {"ms": 1000.0 * s / per, "calls": tracer.calls[name]}
            for name, s in sorted(tracer.self_seconds.items())}


def _trace_train(dataset, config, props, prep_s) -> dict:
    tracer = Tracer()

    def traced():
        with probes(tracer, train_probes()):
            return MatchTrainer(config).train(dataset)

    report, traced_report, traced_s, untraced_s = _bracketed(
        lambda: MatchTrainer(config).train(dataset), traced)
    ok = traced_report.epoch_losses == report.epoch_losses
    steps = props["steps_per_epoch"] * config.epochs
    # Tokenizer fit and batch encoding: the program times this window.
    encode_s = traced_report.timings["encode"]
    layers = {
        "core.encode_pairs_s": encode_s,
        "trace.coverage": (tracer.total() + encode_s) / traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    for name in TRAIN_LAYERS:
        layers[f"{name}_ms"] = 1000.0 * tracer.self_seconds.get(name, 0.0) / steps
        layers[f"{name}.calls"] = tracer.calls.get(name, 0)
    checks = {"traced_equals_untraced_loss_curve": ok}
    record = {"operation": "one optimizer step (per-layer figures)",
              "prep_s": prep_s, "untraced_s": untraced_s, "traced_s": traced_s,
              "spans_per_step": _spans(tracer, steps),
              "loss_curve": report.epoch_losses, "workload": props, "checks": checks}
    return {"metrics": {}, "per_layer": layers, "attempted": 1, "failed": 0 if ok else 1,
            "checks": checks, "record": record, "valid": True}


TRAIN_LAYERS = ("nn.forward", "nn.backward", "nn.optim_step")


# ---------------------------------------------------------------- corpus
def run_corpus(ctx, trace: bool) -> dict:
    """One run of corpus_build_cold."""
    config = inputs.corpus_config(ctx.seed)
    languages = list(LANGUAGES)
    combos = [list(c) for c in inputs.CORPUS_COMBOS]
    expected = config.num_tasks * config.variants * len(languages) * len(combos)
    props = {"programs_per_build": expected, "languages": languages,
             "combos": combos, "tasks": config.num_tasks}
    if trace:
        return _trace_corpus(ctx, config, languages, combos, props)

    setups, latencies, peaks, prints = [], [], [], []
    programs, build_s, launches = 0, 0.0, 0
    # Completion times of every launch's whole rate windows, end to end.
    stamps, span = [], 0.0
    while launches < MIN_LAUNCHES or build_s < ctx.seconds:
        store_dir = ctx.work_dir / f"store-{launches}"
        spec_path = ctx.work_dir / f"corpus-{launches}.json"
        spec_path.write_text(json.dumps({
            "config": asdict(config), "combos": combos,
            "languages": languages, "store": str(store_dir)}))
        ready_s, result, peak = launch(ctx, "corpus", spec_path)
        shutil.rmtree(store_dir, ignore_errors=True)
        launches += 1
        setups.append(ready_s)
        offsets = [0.0] + result["put_offsets"]
        latencies.extend(b - a for a, b in zip(offsets, offsets[1:]))
        peaks.append(peak)
        prints.append(result["fingerprints"])
        programs += result["programs"]
        build_s += result["build_s"]
        whole = (result["build_s"] // RATE_WINDOW_S) * RATE_WINDOW_S
        stamps.extend(span + t for t in result["put_offsets"] if t < whole)
        span += whole
    outcomes = Outcomes(sent=expected * launches)
    outcomes.succeeded = sum(len(p) for p in prints)
    outcomes.failed = outcomes.sent - outcomes.succeeded
    for p in prints[1:]:
        outcomes.mismatch(sum(1 for a, b in zip(p, prints[0]) if a != b))
    wrong = _spot_check(config, languages, combos, prints[0], ctx.seed)
    outcomes.mismatch(len(wrong))
    lat = latency_summary(latencies)
    throughput = interquartile_rate(stamps, 0.0, span, RATE_WINDOW_S)
    metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": lat["p50_ms"],
        "ops_per_s": throughput,
        "peak_rss_mb": max(peaks),
    }
    checks = {"fingerprints_identical_across_launches": all(p == prints[0] for p in prints),
              "spot_check_equals_pipeline_compile": not wrong,
              "launches": launches}
    record = {
        "operation": "one program compiled into the store (source + binary views)",
        "setup_s_each": setups,
        "latency": lat,
        "throughput": f"interquartile mean of {RATE_WINDOW_S:g}s windows; "
                      f"programs over build time: {programs / build_s:.2f}/s",
        "named_metrics": {
            "build_programs_per_s": {"value": throughput, "unit": "1/s"},
            "latency_p95_ms": {"value": lat["p95_ms"], "unit": "ms",
                               "samples": lat["samples"]},
            "error_rate": {"value": outcomes.error_rate, "unit": "1"},
        },
        "workload": props,
        "checks": checks,
    }
    return {"metrics": metrics, "per_layer": {}, "attempted": outcomes.sent,
            "failed": outcomes.bad, "checks": checks, "record": record, "valid": True}


def _items(config, languages, combos):
    tasks = CorpusBuilder(config).tasks()
    return [(opt, compiler, task, variant, lang)
            for opt, compiler in combos for task in tasks
            for variant in range(config.variants) for lang in languages]


def _spot_check(config, languages, combos, prints, seed) -> List[str]:
    """Recompile a seeded sample through ``CompilationPipeline.compile``."""
    items = _items(config, languages, combos)
    generator = SolutionGenerator(seed=config.seed, independent=config.independent_solutions)
    pipeline = CompilationPipeline()
    wrong = []
    for i in sorted(random.Random(seed ^ 0xBEEF).sample(range(len(items)), SPOT_CHECKS)):
        opt, compiler, task, variant, lang = items[i]
        sf = generator.generate(task, variant, lang)
        result = pipeline.compile(sf.text, lang, name=sf.identifier, opt_level=opt,
                                  compiler=compiler, program=sf.program)
        got = [graph_fingerprint(result.source_graph),
               graph_fingerprint(result.decompiled_graph)]
        if got != prints[i]:
            wrong.append(sf.identifier)
    return wrong


#: Corpus layers the compilation pipeline's own Timer measures, by stage.
CORPUS_STAGES = {
    "ir.lower": "lower",
    "ir.optimize": "optimize",
    "binary.codegen": "codegen",
    "binary.decompile": "decompile",
    "graphs.build": "graph",
    "artifacts.put": "store.save",
}


def _trace_corpus(ctx, config, languages, combos, props) -> dict:
    stores = iter(range(3))

    def build():
        builder = CorpusBuilder(config, store=ArtifactStore(
            ctx.work_dir / f"store-{next(stores)}"))
        samples = [s for opt, compiler in combos
                   for s in builder.build(languages, opt_level=opt, compiler=compiler)]
        return builder, samples

    # Source generation is the one step the pipeline's Timer does not cover.
    tracer = Tracer()

    def traced():
        with probes(tracer, [Probe(SolutionGenerator, "generate", "lang.generate")]):
            return build()

    (_, samples), (builder, traced_samples), traced_s, untraced_s = _bracketed(build, traced)
    expected = [[graph_fingerprint(s.source_graph), graph_fingerprint(s.decompiled_graph)]
                for s in samples]
    got = [[graph_fingerprint(s.source_graph), graph_fingerprint(s.decompiled_graph)]
           for s in traced_samples]
    ok = got == expected
    programs = len(expected)
    timer = builder.timer
    layers = {
        # Every Timer span (the store probe and the no-op parse included)
        # plus generation, over the whole traced build.
        "trace.coverage": (sum(timer.totals.values()) + tracer.total()) / traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "lang.generate_ms": 1000.0 * tracer.self_seconds.get("lang.generate", 0.0) / programs,
        "lang.generate.calls": tracer.calls.get("lang.generate", 0),
    }
    for name, stage in CORPUS_STAGES.items():
        layers[f"{name}_ms"] = 1000.0 * timer.totals.get(stage, 0.0) / programs
        layers[f"{name}.calls"] = timer.counts.get(stage, 0)
    checks = {"traced_equals_untraced_corpus_build": ok}
    record = {"operation": "one program compiled into the store",
              "untraced_s": untraced_s, "traced_s": traced_s,
              "pipeline_timer_ms_per_program": {
                  stage: 1000.0 * total / programs for stage, total in timer.totals.items()},
              "workload": props, "checks": checks}
    return {"metrics": {}, "per_layer": layers, "attempted": programs,
            "failed": 0 if ok else sum(1 for a, b in zip(got, expected) if a != b) or 1,
            "checks": checks, "record": record, "valid": True}

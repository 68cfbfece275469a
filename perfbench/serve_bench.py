"""serve_unique and serve_hot_large: binary queries to ``repro serve --socket``.

Both workloads drive the same server with the same two-phase load:

1. an open loop at a fixed arrival rate, well below saturation, timed from
   each request's scheduled send time (the latency metrics);
2. a saturation phase holding a bounded window of requests in flight (the
   throughput metric).

They differ in what the requests share.  serve_unique sends binaries that
are all distinct and absent from a small index of real source graphs, so
the per-request compile back half and the encoder do the work.
serve_hot_large cycles a small hot set, warmed into every worker's query
cache before timing, against tens of thousands of candidates, so the
encoder is bypassed and the pair head and ranking do the work.

The traced run sends the same requests through ``RetrievalServer.handle_batch``
in-process twice: once as is, once with spans wrapped around the public
callables of each layer (:func:`serve_probes`).  The traced pass must
answer exactly what the plain one did, and the plain one what the socket
answered, up to the score rounding that batch composition causes
(:data:`SCORE_TOL`).
"""

from __future__ import annotations

import base64
import json
import math
import random
import time
from statistics import median
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
from harness import (Outcomes, Probe, Tracer, interquartile_rate, latency_summary,
                     open_loop_schedule, probes, repeat_share, same_answer)
from serve_load import LoadClient, PhaseResult, ServerProcess

import repro.core.trainer as trainer_module
from repro.core.model import GraphBinMatch
from repro.core.trainer import MatchTrainer
from repro.graphs.batch import GraphBatch
from repro.index import ShardedEmbeddingIndex, graph_fingerprint, open_index
from repro.nn.gnn import HeteroGNNStack
from repro.pipeline import CompilationPipeline
# Modules whose globals the probes wrap, where the query path looks them up.
from repro.index import embedding_index, sharded
from repro.pipeline import staged
from repro.serve import RetrievalServer
from repro.serve.core import parse_request

TOP_K = 5
MAX_BATCH = 8  # the server's default --max-batch
#: Admission bound, far above the requests one run sends, so the server
#: never sheds: a host that slows down shows as latency, not as failures.
#: (The server's default of 64 sheds once a stall backs the open loop up.)
QUEUE_DEPTH = 4096
WINDOW = 32  # saturation phase: requests kept in flight
SETUPS = 3  # server launches per run; setup_s is their median
CHECK_SAMPLE = 48  # untraced runs: responses re-derived in-process
#: Score tolerance of the socket check.  The in-process reference cannot
#: rebuild the server's batches, and a float32 pair-head score moves by an
#: ulp (~6e-8) with the queries that share its batch.
SCORE_TOL = 1e-6
SAT_RAMP_S = 0.5  # saturation completions before this are the window filling
RATE_WINDOW_S = 1.0  # saturation throughput: interquartile mean of windows this long


@dataclass(frozen=True)
class ServeSpec:
    """Load shape of one serve workload."""

    #: Open-loop arrival rate (requests/s), a constant chosen well below the
    #: saturation throughput this workload measured when it was defined on
    #: a 2-core host (serve_unique 90-160/s, serve_hot_large ~47/s).
    open_rate: float
    #: Hot-set size (0 = every query distinct).  At most the index's
    #: 256-entry query-embedding cache, so the whole set stays cached in
    #: each worker.
    hot: int
    #: Saturation-phase requests generated per second of phase (comfortably
    #: above the saturation throughput, so the window never runs dry).
    sat_supply: float


SPECS = {
    "serve_unique": ServeSpec(open_rate=30.0, hot=0, sat_supply=170.0),
    "serve_hot_large": ServeSpec(open_rate=20.0, hot=24, sat_supply=90.0),
}

#: p95 needs ten samples beyond it: at least 200 open-loop requests.
MIN_OPEN = 200
#: Share of the run length spent in the open loop; the rest saturates.
#: The open loop needs its samples; throughput read over less than five
#: seconds swung by a fifth from run to run.
OPEN_SHARE = 0.5


def _line(rid: str, raw: bytes) -> bytes:
    return (json.dumps({"id": rid, "binary_b64": base64.b64encode(raw).decode(),
                        "k": TOP_K}) + "\n").encode()


@dataclass
class Plan:
    """The generated traffic of one run."""

    warm: List[Tuple[str, bytes]]  # warm-up requests (untimed)
    open: List[Tuple[str, bytes]]
    offsets: List[float]
    sat: List[Tuple[str, bytes]]
    binary_of: Dict[str, bytes]  # request id -> query binary
    hot: List[bytes]  # the hot set (empty for distinct traffic)


def make_plan(spec: ServeSpec, seed: int, seconds: float, workers: int) -> Plan:
    """Seeded requests for both phases, plus the warm-up traffic."""
    open_seconds = OPEN_SHARE * seconds
    n_open = max(MIN_OPEN, int(round(spec.open_rate * open_seconds)))
    offsets = open_loop_schedule(spec.open_rate, n_open, seed)
    sat_seconds = seconds - open_seconds
    n_sat = int(math.ceil(spec.sat_supply * sat_seconds))
    rng = random.Random(seed ^ 0x5EED)
    binary_of: Dict[str, bytes] = {}

    def requests(prefix: str, raws: Sequence[bytes]) -> List[Tuple[str, bytes]]:
        out = []
        for i, raw in enumerate(raws):
            rid = f"{prefix}{i}"
            binary_of[rid] = raw
            out.append((rid, _line(rid, raw)))
        return out

    if spec.hot:
        hot = inputs.hot_set(seed, spec.hot)
        # Each chunk of MAX_BATCH hot queries is sent once per worker back
        # to back: least-loaded dispatch hands each copy to a different
        # worker, so every worker caches every hot query.
        warm_raws = [raw for start in range(0, len(hot), MAX_BATCH)
                     for _ in range(workers) for raw in hot[start:start + MAX_BATCH]]
        # Shuffled rounds over the hot set: every hot query equally often.
        rounds = []
        while len(rounds) < n_open + n_sat:
            rounds.extend(rng.sample(hot, len(hot)))
        open_raws, sat_raws = rounds[:n_open], rounds[n_open:]
    else:
        warm = 2 * MAX_BATCH
        pool = [q.raw for q in inputs.query_binaries(seed, warm + 2 * n_open + n_sat)]
        hot = []
        warm_raws = pool[:warm]
        candidates = pool[warm: warm + 2 * n_open]
        open_raws = inputs.by_size_strata(candidates, n_open)
        rng.shuffle(open_raws)
        chosen = set(open_raws)
        sat_raws = [raw for raw in candidates if raw not in chosen] + pool[warm + 2 * n_open:]
    return Plan(requests("w", warm_raws), requests("o", open_raws), offsets,
                requests("s", sat_raws), binary_of, hot)


# ----------------------------------------------------------- load phases
def _warm_up(client: LoadClient, plan: Plan, workers: int) -> None:
    # One connection keeps each chunk's lines in order, so every chunk
    # forms one batch; a window of one batch per worker keeps the copies of
    # a chunk in flight together, so least-loaded dispatch hands each copy
    # to a different worker.
    client.windowed(plan.warm, window=MAX_BATCH * workers, seconds=float("inf"),
                    connections=1)


def _phase_stats(before: dict, after: dict) -> dict:
    delta = {k: after[k] - before[k] for k in
             ("requests", "batches", "flushed_on_size", "flushed_on_deadline",
              "shed", "errors")}
    batches = delta["batches"] or 1
    delta["batch_size_mean"] = delta["requests"] / batches
    delta["deadline_flush_share"] = delta["flushed_on_deadline"] / batches
    return delta


def _outcomes(phase: PhaseResult) -> Outcomes:
    out = Outcomes(sent=len(phase.records))
    for record in phase.records:
        out.record(record.response)
    return out


@dataclass
class ServeRun:
    """What the socket side observed."""

    setup_s: List[float]
    open_phase: PhaseResult
    sat_phase: PhaseResult
    open_stats: dict
    sat_stats: dict
    peak_rss_mb: float


def drive_server(ctx, plan: Plan, checkpoint, index_dir, setups: int,
                 sat_seconds: float) -> ServeRun:
    """Launch the server ``setups`` times; run both phases on the last."""
    setup_times = []
    for attempt in range(setups):
        server = ServerProcess(ctx.src_dir, checkpoint, index_dir, ctx.workers,
                               ctx.work_dir / f"serve-{attempt}.log",
                               MAX_BATCH, QUEUE_DEPTH)
        client = None
        try:
            started = time.perf_counter()
            address = server.start()
            client = LoadClient(address)
            _warm_up(client, plan, ctx.workers)
            setup_times.append(time.perf_counter() - started)
            if attempt < setups - 1:
                continue
            s0 = client.control("stats")["stats"]
            open_phase = client.open_loop(plan.open, plan.offsets)
            s1 = client.control("stats")["stats"]
            sat_phase = client.windowed(plan.sat, WINDOW, sat_seconds)
            s2 = client.control("stats")["stats"]
            peak = server.peak_rss_mb()
        finally:
            if client is not None:
                client.close()
            server.stop()
    return ServeRun(setup_times, open_phase, sat_phase, _phase_stats(s0, s1),
                    _phase_stats(s1, s2), peak)


# ------------------------------------------------------- in-process path
def _batches(records, size: int) -> List[List[str]]:
    ids = [r.rid for r in records]
    size = max(1, size)
    return [ids[i:i + size] for i in range(0, len(ids), size)]


def _roundtrip(response: dict) -> dict:
    return json.loads(json.dumps(response))


def _hits(response: Optional[dict]) -> bool:
    return response is not None and "hits" in response


def serve_probes() -> List[Probe]:
    """Spans around the query path's public callables, where the program looks them up.

    Nesting under one ``handle_batch`` call: decompile and graph build
    (``CompilationPipeline.binary_graph``), then ``topk_batch``, whose self
    time is the index's own bookkeeping around the query-embedding cache,
    fingerprinting, the encoder (batching, tokenizing, the model, its GNN)
    and the pair head and ranking.  The fingerprint and graph-build probes
    keep each query's key and node count for the workload report.
    """
    return [
        Probe(staged, "decompile_bytes", "binary.decompile"),
        Probe(staged, "build_graph", "graphs.build", keep=lambda g: g.num_nodes),
        Probe(ShardedEmbeddingIndex, "topk_batch", "index.topk_batch"),
        Probe(embedding_index, "graph_fingerprint", "index.fingerprint", keep=str),
        Probe(trainer_module, "batch_graphs", "graphs.batch"),
        Probe(GraphBatch, "conv_plans", "graphs.batch"),
        Probe(GraphBatch, "graph_index", "graphs.batch"),
        Probe(trainer_module, "encode_nodes_unique", "core.tokenize"),
        Probe(GraphBinMatch, "encode_graphs", "nn.encode"),
        Probe(HeteroGNNStack, "forward", "nn.gnn"),
        Probe(sharded, "score_pairs_tiled", "index.pair_head"),
        Probe(sharded, "ranked_hits", "index.rank"),
    ]


@dataclass
class InProcess:
    """One in-process pass over the measured batches."""

    responses: Dict[str, dict]  # by request id, after a JSON round trip
    batch_seconds: List[float]  # handle_batch time of each batch
    wall_s: float  # the whole loop: request parsing and response JSON too
    open_s: float  # open_index plus loading every shard
    cache_hit_share: float  # query embeddings served from the index cache


def in_process(checkpoint, index_dir, plan: Plan, batches: List[List[str]],
               lines: Dict[str, bytes], tracer: Optional[Tracer]) -> InProcess:
    """``RetrievalServer.handle_batch`` over ``batches``, after the plan's warm-up.

    The server and index are fresh, and the warm-up requests the socket
    server got go first, so the query cache starts as the workers' did.
    With a ``tracer`` the pass runs under :func:`serve_probes`.
    """
    trainer = MatchTrainer.load(checkpoint)
    started = time.perf_counter()
    index = open_index(index_dir, trainer)
    # Shards load lazily: the whole-corpus matrix is what the first query
    # would otherwise gather, so it counts as opening the index.
    index.embeddings
    open_s = time.perf_counter() - started
    server = RetrievalServer(trainer, index, batch_size=MAX_BATCH, default_k=TOP_K)
    warm = [rid for rid, _ in plan.warm]
    for start in range(0, len(warm), MAX_BATCH):
        server.handle_batch([parse_request(lines[rid].decode(), TOP_K)
                             for rid in warm[start:start + MAX_BATCH]])
    # A sharded index answers queries through an inner EmbeddingIndex,
    # which holds the query-embedding cache and its counters.
    cache = index._encoder
    hits, misses = cache.cache_hits, cache.cache_misses
    spans = tracer or Tracer()
    out, batch_seconds = {}, []
    with probes(spans, serve_probes() if tracer else []):
        started = time.perf_counter()
        for ids in batches:
            with spans.span("serve.parse"):
                requests = [parse_request(lines[rid].decode(), TOP_K) for rid in ids]
            t0 = time.perf_counter()
            with spans.span("serve.handle_batch"):
                responses = server.handle_batch(requests)
            batch_seconds.append(time.perf_counter() - t0)
            with spans.span("serve.response_json"):
                dumped = [json.dumps(r) for r in responses]
            for text in dumped:
                response = json.loads(text)
                out[response["id"]] = response
        wall = time.perf_counter() - started
    hits, misses = cache.cache_hits - hits, cache.cache_misses - misses
    return InProcess(out, batch_seconds, wall, open_s,
                     hits / (hits + misses) if hits + misses else 0.0)


def graph_facts(plan: Plan, batches: List[List[str]], tracer: Tracer,
                index_keys: set) -> dict:
    """Repeat share, distinct graphs and graph sizes of the measured queries.

    Keys and node counts are the ones the traced pass computed itself, one
    per query in batch order.  Earlier warm-up traffic counts as already
    seen, so a query the warm-up cached is a repeat.
    """
    ids = [rid for chunk in batches for rid in chunk]
    keys = tracer.kept.get("index.fingerprint", [])
    nodes = tracer.kept.get("graphs.build", [])
    if len(keys) != len(ids) or len(nodes) != len(ids):
        return {"graph_facts": f"unavailable: {len(keys)} fingerprints and "
                               f"{len(nodes)} graphs for {len(ids)} queries"}
    pipeline = CompilationPipeline()
    warm = dict.fromkeys(plan.binary_of[rid] for rid, _ in plan.warm)
    history = [graph_fingerprint(pipeline.binary_graph(raw)) for raw in warm]
    return {
        "repeat_share": repeat_share(keys, history),
        "repeat_share_within_run": repeat_share(keys),
        "repeat_share_basis": f"graph_fingerprint of all {len(keys)} measured queries",
        "distinct_query_graphs": len(set(keys)),
        "queries_in_index": len(set(keys) & index_keys),
        "mean_nodes_per_query_graph": float(np.mean(nodes)),
    }


# ------------------------------------------------------------------- run
def run(ctx, name: str, trace: bool) -> dict:
    """One run of a serve workload; returns the result for ``run.py``."""
    spec = SPECS[name]
    t_prep = time.perf_counter()
    trainer = inputs.serving_model()
    checkpoint = ctx.work_dir / "model.npz"
    trainer.save(checkpoint)
    index_dir = ctx.work_dir / "index"
    build_index = inputs.synthetic_index if spec.hot else inputs.source_index
    candidates = build_index(trainer, ctx.seed, index_dir)
    plan = make_plan(spec, ctx.seed, ctx.seconds, ctx.workers)
    timings = {"prep_s": time.perf_counter() - t_prep}

    t_serve = time.perf_counter()
    sat_seconds = (1.0 - OPEN_SHARE) * ctx.seconds
    served = drive_server(ctx, plan, checkpoint, index_dir,
                          1 if trace else SETUPS, sat_seconds)
    timings["server_s"] = time.perf_counter() - t_serve
    lines = {rid: line for rid, line in plan.warm + plan.open + plan.sat}
    measured = served.open_phase.records + served.sat_phase.records
    socket_answers = {r.rid: r.response for r in measured}

    open_out, sat_out = _outcomes(served.open_phase), _outcomes(served.sat_phase)

    # Correctness: socket hits must equal the in-process handle_batch path.
    checks: Dict[str, object] = {}
    per_layer: Dict[str, float] = {}
    wrong = set()
    measured_raws = [plan.binary_of[r.rid] for r in measured]
    props = {
        "distinct_query_binaries": len(set(measured_raws)),
        "candidates": candidates,
        "warmup_requests": len(plan.warm),
    }
    t_check = time.perf_counter()
    if trace:
        open_bs = round(served.open_stats["batch_size_mean"])
        sat_bs = round(served.sat_stats["batch_size_mean"])
        batches = (_batches(served.open_phase.records, open_bs)
                   + _batches(served.sat_phase.records, sat_bs))
        reference = in_process(checkpoint, index_dir, plan, batches, lines, None)
        tracer = Tracer()
        traced = in_process(checkpoint, index_dir, plan, batches, lines, tracer)
        checked = reference.responses
        traced_wrong = {rid for rid in checked if traced.responses.get(rid) != checked[rid]}
        checks["traced_equals_untraced_handle_batch"] = not traced_wrong
        wrong |= traced_wrong
        per_layer = _serve_layers(tracer, served, batches, reference, traced)
        props.update(graph_facts(plan, batches, tracer,
                                 set(open_index(index_dir, trainer).keys)))
    else:
        rng = random.Random(ctx.seed ^ 0xC0FFEE)
        answered = [r for r in measured if _hits(r.response)]
        picked = sorted(rng.sample(range(len(answered)), min(CHECK_SAMPLE, len(answered))))
        checked = in_process(checkpoint, index_dir, plan,
                             _batches([answered[i] for i in picked], MAX_BATCH),
                             lines, None).responses
        props["graph_facts"] = "measured by the traced run (--trace 1)"
    socket_wrong = {rid for rid, resp in checked.items()
                    if _hits(socket_answers.get(rid))
                    and not same_answer(_roundtrip(socket_answers[rid]), resp, SCORE_TOL)}
    checks["socket_equals_handle_batch"] = not socket_wrong
    checks["responses_checked"] = len(checked)
    timings["check_s"] = time.perf_counter() - t_check
    wrong |= socket_wrong
    open_out.mismatch(sum(1 for r in served.open_phase.records if r.rid in wrong))
    sat_out.mismatch(sum(1 for r in served.sat_phase.records if r.rid in wrong))

    lateness = served.open_phase.lateness
    late = sum(1 for x in lateness if x > 0.010)
    generator = {
        "lateness_mean_ms": 1000 * float(np.mean(lateness)),
        "lateness_p99_ms": 1000 * float(np.percentile(lateness, 99)),
        "lateness_max_ms": 1000 * max(lateness),
        "sends_late_over_10ms": late,
        # The generator, not the server, fell behind its schedule.
        "valid": late <= 0.01 * len(lateness),
    }
    # A failed or shed request misses every latency limit.
    latencies = [r.latency if _hits(r.response) else math.inf
                 for r in served.open_phase.records]
    lat = latency_summary(latencies)
    # Saturation throughput: the interquartile mean rate of one-second
    # windows after the in-flight window fills.
    done = [r.received - served.sat_phase.started
            for r in served.sat_phase.records if _hits(r.response)]
    completed = sum(1 for t in done if SAT_RAMP_S <= t < sat_seconds)
    throughput = interquartile_rate(done, SAT_RAMP_S, sat_seconds, RATE_WINDOW_S)
    attempted = open_out.sent + sat_out.sent
    failed = open_out.bad + sat_out.bad
    metrics = {
        "setup_s": median(served.setup_s),
        "latency_p50_ms": lat["p50_ms"],
        "ops_per_s": throughput,
        "peak_rss_mb": served.peak_rss_mb,
    }
    record = {
        "operation": "one binary query (request -> top-k hits)",
        "timings": timings,
        "setup_s_each": served.setup_s,
        "load": {
            "generator": "1 process, 2 threads, 2 connections",
            "open_loop": {"rate_per_s": spec.open_rate, "requests": len(plan.open),
                          "seconds": plan.offsets[-1] if plan.offsets else 0.0,
                          **generator},
            "saturation": {"window": WINDOW, "seconds": sat_seconds,
                           "throughput": f"interquartile mean of {RATE_WINDOW_S:g}s windows "
                                         f"from {SAT_RAMP_S:g}s"},
        },
        "phases": {
            "open_loop": {**open_out.as_dict(), "server": served.open_stats},
            "saturation": {**sat_out.as_dict(), "server": served.sat_stats,
                           "completed_after_ramp": completed},
        },
        "latency": lat,
        "named_metrics": {
            "throughput_qps": {"value": throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": lat["p50_ms"], "unit": "ms", "samples": lat["samples"]},
            "latency_p95_ms": {"value": lat["p95_ms"], "unit": "ms", "samples": lat["samples"]},
            "error_rate": {"value": failed / attempted if attempted else 0.0, "unit": "1"},
        },
        "workload": props,
        "checks": checks,
    }
    return {"metrics": metrics, "per_layer": per_layer, "attempted": attempted,
            "failed": failed, "checks": checks, "record": record,
            "valid": generator["valid"]}


def _serve_layers(tracer: Tracer, served: ServeRun, batches, reference: InProcess,
                  traced: InProcess) -> dict:
    queries = sum(len(b) for b in batches)
    per_query = {name: 1000.0 * s / queries for name, s in tracer.self_seconds.items()}
    n_open = len(served.open_phase.records)
    # In-process time a request spends in its batch's handle_batch.
    open_batches = []
    for ids, seconds in zip(batches, reference.batch_seconds):
        if len(open_batches) >= n_open:
            break
        open_batches.extend([seconds] * len(ids))
    client = [r.latency for r in served.open_phase.records if r.response is not None]
    layers = {
        "serve.batch_size_mean": served.sat_stats["batch_size_mean"],
        "serve.deadline_flush_share": served.sat_stats["deadline_flush_share"],
        "serve.overhead_ms": 1000.0 * (float(np.mean(client))
                                       - float(np.mean(open_batches[:n_open]))),
        "serve.handle_batch_ms": 1000.0 * sum(reference.batch_seconds) / queries,
        "index.cache_hit_share": traced.cache_hit_share,
        "index.open_s": traced.open_s,
        # handle_batch's own self time is work no layer probe covers.
        "trace.coverage": tracer.total(exclude=("serve.handle_batch",)) / traced.wall_s,
        "trace.overhead_s": traced.wall_s - reference.wall_s,
    }
    for name in SERVE_LAYERS:
        layers[f"{name}_ms"] = per_query.get(name, 0.0)
        layers[f"{name}.calls"] = tracer.calls.get(name, 0)
    return layers


#: Layer spans of the query path, in pipeline order.
SERVE_LAYERS = (
    "serve.parse", "binary.decompile", "graphs.build", "index.fingerprint",
    "graphs.batch", "core.tokenize", "nn.encode", "nn.gnn",
    "index.topk_batch", "index.pair_head", "index.rank", "serve.response_json",
)

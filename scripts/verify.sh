#!/usr/bin/env bash
# Repo verification: tier-1 test suite + an end-to-end smoke.
#
# The smoke exercises the full user path the README quickstart promises:
# train a tiny model, build an embedding index over a source corpus, and
# query it with a compiled binary — through the CLI, not test harnesses.
# It then runs the workload gates (training throughput, robustness,
# concurrent serving) at smoke scale, every example under REPRO_SMOKE=1,
# and the docs link check.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# The suite now starts real socket servers and worker processes; a
# deadlocked server must fail loudly, not hang CI until the job times out.
TIER1_TIMEOUT="${REPRO_VERIFY_TIMEOUT:-1800}"

# Per-test SIGALRM timeout (tests/conftest.py): one hung warm-pool worker
# fails its own test with a live traceback instead of eating the whole
# tier-1 budget.  Generous — the slowest legitimate tests train models.
TEST_TIMEOUT="${REPRO_TEST_TIMEOUT:-300}"

echo "== static lint: compileall + import-cycle + unused-import + exception-hygiene checks =="
# Catches syntax errors in files no test imports, top-level import
# cycles between repro.* modules (function-local imports are exempt —
# that is the sanctioned escape hatch), imported names a module never
# uses (re-exports belong in __all__; the package and every tree that
# imports it), and exception handlers that
# would swallow an injected fault silently (bare except, broad catches
# without a re-raise or a justifying boundary comment).
python -m compileall -q src/repro
python scripts/check_import_cycles.py
python scripts/check_unused_imports.py src/repro tests benchmarks scripts examples
python scripts/check_exception_hygiene.py

echo "== tier-1: pytest (suite timeout ${TIER1_TIMEOUT}s, per-test ${TEST_TIMEOUT}s) =="
# --durations surfaces the slowest tests so creeping test-time regressions
# are visible in every CI log, not just when the budget finally blows.
REPRO_TEST_TIMEOUT="$TEST_TIMEOUT" \
  timeout --signal=INT "$TIER1_TIMEOUT" python -m pytest -x -q --durations=15

echo "== golden graphs: every recorded graph fingerprint unchanged (full grid) =="
# Artifact-store keys, index entries and query-cache keys all derive from
# graph_fingerprint: a front-end change that moves one of them must bump
# PIPELINE_VERSION and re-record, never drift silently.
python scripts/graph_fingerprints.py --check

echo "== smoke: train -> index build -> index query -> fsck =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
python -m repro train --num-tasks 6 --variants 1 --epochs 2 --output "$tmp/model.npz"
python -m repro index build "$tmp/model.npz" --output "$tmp/index" --num-tasks 6 --variants 1
python -m repro index query "$tmp/model.npz" "$tmp/index" --task gcd --language c --top-k 3
# The default (one-shard) build must be fully checksummed: fsck exits
# non-zero on any file without a recorded checksum.
python -m repro fsck "$tmp/index"

echo "== smoke: sharded index build -> query =="
python -m repro index build "$tmp/model.npz" --output "$tmp/sharded" --num-tasks 6 --variants 1 --shard-size 2
python -m repro index query "$tmp/model.npz" "$tmp/sharded" --task gcd --language c --top-k 3

echo "== smoke: repro serve (JSON-lines stdin/stdout) =="
python - "$tmp" <<'EOF'
import base64, json, sys
from repro.core.pipeline import compile_to_views
from repro.lang.generator import SolutionGenerator
tmp = sys.argv[1]
gen = SolutionGenerator(seed=0, independent=True)
binary = gen.generate("gcd", 0, "c")
views = compile_to_views(binary.text, "c", name=binary.identifier)
source = gen.generate("sum_array", 0, "java")
with open(f"{tmp}/requests.jsonl", "w") as fh:
    fh.write(json.dumps({"id": "bin", "k": 3,
        "binary_b64": base64.b64encode(views.binary_bytes).decode()}) + "\n")
    fh.write(json.dumps({"id": "src", "k": 3,
        "source": source.text, "language": "java"}) + "\n")
EOF
python -m repro serve "$tmp/model.npz" "$tmp/sharded" --batch 2 \
  < "$tmp/requests.jsonl" > "$tmp/responses.jsonl" 2> "$tmp/serve-stdin.log"
python - "$tmp" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(f"{sys.argv[1]}/responses.jsonl")]
assert [l.get("id") for l in lines] == ["bin", "src"], lines
assert all(len(l["hits"]) == 3 for l in lines), lines
print("serve smoke: OK")
EOF
# Like the socket smoke's log check below: the summary line must report
# both requests and no errors, and nothing may have logged a traceback.
if grep -q "Traceback" "$tmp/serve-stdin.log" \
    || ! grep -q "^served 2 requests in .* batches (0 errors)$" "$tmp/serve-stdin.log"; then
  echo "verify: FAIL — stdin server logged a traceback or a wrong summary" >&2
  cat "$tmp/serve-stdin.log" >&2
  exit 1
fi

echo "== smoke: repro serve --socket (concurrent unix-socket service) =="
python -m repro serve "$tmp/model.npz" "$tmp/sharded" \
  --socket "unix:$tmp/serve.sock" --workers 1 --max-batch 4 --max-delay-ms 5 \
  2> "$tmp/serve-socket.log" &
serve_pid=$!
python - "$tmp" <<'EOF'
import json, socket, sys, time
tmp = sys.argv[1]
deadline = time.time() + 120
while True:  # wait for the server to bind
    try:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(f"{tmp}/serve.sock")
        break
    except OSError:
        if time.time() > deadline:
            raise SystemExit("socket serve smoke: server never bound")
        time.sleep(0.2)
s.settimeout(120)
with open(f"{tmp}/requests.jsonl", "rb") as fh:
    s.sendall(fh.read())  # both pipelined requests at once
s.sendall(b'{"control": "stats", "id": "st"}\n')
buf = b""
while buf.count(b"\n") < 3:
    chunk = s.recv(65536)
    assert chunk, "server hung up early"
    buf += chunk
lines = [json.loads(l) for l in buf.splitlines()]
assert [l.get("id") for l in lines] == ["bin", "src", "st"], lines
assert all(len(l["hits"]) == 3 for l in lines[:2]), lines
# The snapshot is taken when the control arrives; the reader thread has
# ingested all three lines by then, but query responses may be in flight.
assert lines[2]["stats"]["requests"] == 3, lines
assert lines[2]["stats"]["workers"] == 1, lines
# With both answers back every batch has been formed: each one is
# counted under exactly one flush reason (no reload or drain barrier
# has run yet), and the first request met an idle worker.
s.sendall(b'{"control": "stats", "id": "st2"}\n')
buf = b""
while b"\n" not in buf:
    chunk = s.recv(65536)
    assert chunk, "server hung up early"
    buf += chunk
stats = json.loads(buf)["stats"]
assert stats["flushed_on_idle"] >= 1, stats
assert stats["flushed_on_barrier"] == 0, stats
flushes = sum(stats[f"flushed_on_{r}"] for r in ("idle", "size", "deadline"))
assert flushes == stats["batches"], stats
# A repeated binary is answered from the payload memo: same hits, bit for bit.
repeat = json.loads(open(f"{tmp}/requests.jsonl").readline())
repeat["id"] = "bin-again"
s.sendall((json.dumps(repeat) + "\n").encode())
buf = b""
while b"\n" not in buf:
    chunk = s.recv(65536)
    assert chunk, "server hung up early"
    buf += chunk
again = json.loads(buf)
assert again["id"] == "bin-again" and again["hits"] == lines[0]["hits"], again
s.close()
print("socket serve smoke: OK")
EOF
stop_started="$(date +%s%N)"
kill -INT "$serve_pid"
if ! wait "$serve_pid"; then
  echo "verify: FAIL — socket server did not exit cleanly" >&2
  cat "$tmp/serve-socket.log" >&2
  exit 1
fi
stop_ms=$(( ($(date +%s%N) - stop_started) / 1000000 ))
if [ "$stop_ms" -gt 2000 ]; then
  echo "verify: FAIL — socket server took ${stop_ms} ms to exit after SIGINT" >&2
  exit 1
fi
# An exception in a server thread only prints to stderr while later
# requests hang, so the log itself is checked: no traceback anywhere, and
# the shutdown line reports a crash-free run.
if grep -q "Traceback" "$tmp/serve-socket.log" \
    || ! grep -q ", 0 worker crashes)" "$tmp/serve-socket.log"; then
  echo "verify: FAIL — socket server logged a traceback or worker crashes" >&2
  cat "$tmp/serve-socket.log" >&2
  exit 1
fi

echo "== smoke: corpus build cold -> warm artifact cache =="
python -m repro corpus build --num-tasks 4 --variants 1 --languages c,java --store "$tmp/artifacts"
warm_out="$(python -m repro corpus build --num-tasks 4 --variants 1 --languages c,java --store "$tmp/artifacts")"
echo "$warm_out"
if ! grep -q ", 0 misses" <<<"$warm_out"; then
  echo "verify: FAIL — warm corpus rebuild did not hit the artifact store" >&2
  exit 1
fi
# Entries no longer carry IR modules (store format 3): a third rebuild
# re-hashes every entry's payload on read and must still hit throughout.
verified_out="$(REPRO_VERIFY_READS=1 python -m repro corpus build --num-tasks 4 --variants 1 --languages c,java --store "$tmp/artifacts")"
echo "$verified_out"
if ! grep -q ", 0 misses" <<<"$verified_out"; then
  echo "verify: FAIL — checksum-verified warm rebuild missed the artifact store" >&2
  exit 1
fi
# Both stores share one checksummed entry format: fsck must recognize
# each store's kind from its entries and find every entry intact.
python -m repro fsck "$tmp/artifacts" | tee "$tmp/fsck-artifacts.txt"
if ! grep -q "^fsck artifacts at " "$tmp/fsck-artifacts.txt"; then
  echo "verify: FAIL — fsck did not recognize the artifact store" >&2
  exit 1
fi

echo "== bench: corpus build gates =="
# Gates: a warm rebuild ≥5x faster than cold, and cold, warm and parallel
# builds agree on every graph fingerprint and binary byte.  The same
# command CI runs.
python -m pytest benchmarks/bench_corpus_build.py -x -q -s

echo "== smoke: experiment run cold -> warm model cache =="
exp_args=(--binary-langs c --source-langs java --num-tasks 6 --variants 1 --epochs 2)
python -m repro experiment run "${exp_args[@]}" --store "$tmp/models"
warm_exp="$(python -m repro experiment run "${exp_args[@]}" --store "$tmp/models")"
echo "$warm_exp"
if ! grep -q "cache hit" <<<"$warm_exp"; then
  echo "verify: FAIL — warm experiment run did not hit the model store" >&2
  exit 1
fi
python -m repro experiment list "$tmp/models"
python -m repro fsck "$tmp/models" | tee "$tmp/fsck-models.txt"
if ! grep -q "^fsck models at " "$tmp/fsck-models.txt"; then
  echo "verify: FAIL — fsck did not recognize the model store" >&2
  exit 1
fi

echo "== smoke: robustness sweep (transform cache + clean-index reuse) =="
rob_out="$(python -m repro robustness "$tmp/model.npz" --num-tasks 6 \
  --transforms deadcode,regrename --intensities 1 \
  --store "$tmp/rob-artifacts" --index "$tmp/rob-index" --json "$tmp/matrix.json")"
echo "$rob_out"
# Warm rerun must hit the artifact store for every compilation.
warm_rob="$(python -m repro robustness "$tmp/model.npz" --num-tasks 6 \
  --transforms deadcode,regrename --intensities 1 \
  --store "$tmp/rob-artifacts" --index "$tmp/rob-index")"
if ! grep -q ", 0 misses" <<<"$warm_rob"; then
  echo "verify: FAIL — warm robustness rerun did not hit the artifact store" >&2
  exit 1
fi
if [ ! -s "$tmp/matrix.json" ]; then
  echo "verify: FAIL — robustness --json wrote no matrix" >&2
  exit 1
fi

echo "== bench: fault-tolerance gates (smoke scale) =="
# Gates: every injected fault kind ends in a clean descriptive error, an
# observable miss, or a bit-identical result (never wrong, never hung);
# a build crash-killed mid-commit recovers byte-identical; fsck repairs
# bit-identical; a corrupt shard degrades service instead of downing it;
# a hung worker turns into a retryable deadline error.  Timeout so a
# missed deadline fails the gate rather than wedging it.
REPRO_BENCH_SMOKE=1 timeout --signal=INT 900 \
  python -m pytest benchmarks/bench_faults.py -x -q
if [ ! -f benchmarks/perf/BENCH_faults.json ]; then
  echo "verify: FAIL — bench_faults did not write benchmarks/perf/BENCH_faults.json" >&2
  exit 1
fi

echo "== bench: index-scale gates (smoke scale) =="
# Gates: the ANN recall@10-vs-speedup frontier has a point at or above the
# recall floor that clears the speedup floor, recall is monotone in
# nprobe, and the quantized mmap path's dequantized working set stays a
# small fraction of the flat float32 matrix.  Writes BENCH_index_scale.json.
REPRO_BENCH_SMOKE=1 timeout --signal=INT 900 \
  python -m pytest benchmarks/bench_index_scale.py -x -q
if [ ! -f benchmarks/perf/BENCH_index_scale.json ]; then
  echo "verify: FAIL — bench_index_scale did not write benchmarks/perf/BENCH_index_scale.json" >&2
  exit 1
fi

echo "== bench: dataflow-analysis gates (smoke scale) =="
# Gates: analysis-derived dataflow/callsummary edges bit-identical across
# fresh processes, verify-after-every-pass corpus sweep with zero error
# findings, dataflow-on retrieval no worse than dataflow-off on clean
# queries.  Writes BENCH_dataflow.json.
REPRO_BENCH_SMOKE=1 timeout --signal=INT 900 \
  python -m pytest benchmarks/bench_dataflow.py -x -q
if [ ! -f benchmarks/perf/BENCH_dataflow.json ]; then
  echo "verify: FAIL — bench_dataflow did not write benchmarks/perf/BENCH_dataflow.json" >&2
  exit 1
fi

echo "== examples: every examples/*.py must exit 0 under smoke settings =="
for example in examples/*.py; do
  echo "-- $example"
  REPRO_SMOKE=1 python "$example" > /dev/null
done

echo "== docs: link check (no dangling files or anchors) =="
python scripts/check_doc_links.py

echo "== bench: training-throughput gates (smoke scale) =="
# Gates: warm experiment ≥5x with identical rows, parallel grid identical
# to serial, fused optimizer parity + step speedup.  Also refreshes the
# perf record at benchmarks/perf/BENCH_train.json.  Runs late: its
# parallel-grid speed floor currently fails on 2-core hosts (see
# ROADMAP.md item 10), and the fault, index-scale and dataflow gates
# above must still run.
REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_train.py -x -q
if [ ! -f benchmarks/perf/BENCH_train.json ]; then
  echo "verify: FAIL — bench_train did not write benchmarks/perf/BENCH_train.json" >&2
  exit 1
fi

echo "== bench: robustness gates (smoke scale) =="
# Gates: every transform bit-deterministic under a fixed seed, clean
# baseline equal to the direct retrieval sweep, warm sweep ≥3x via the
# cached clean embeddings + artifact store.  Writes BENCH_robustness.json.
# Runs late: its warm ≥3x floor currently fails on 2-core hosts (see
# ROADMAP.md item 9), and every check above must still run.
REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/bench_robustness.py -x -q
if [ ! -f benchmarks/perf/BENCH_robustness.json ]; then
  echo "verify: FAIL — bench_robustness did not write benchmarks/perf/BENCH_robustness.json" >&2
  exit 1
fi

echo "== bench: concurrent serving gates (smoke scale) =="
# Gates: 8 pipelined socket clients at max_batch=8 ≥3x the same load at
# max_batch=1, hit lists bit-identical to the sequential stdin path and
# to the unbatched server, p50/p99 recorded.  Runs last: its
# speed floor currently fails on 2-core hosts (see ROADMAP.md), and every
# check above must still run.  Timeout so a wedged server/worker
# fails the gate rather than hanging it.
REPRO_BENCH_SMOKE=1 timeout --signal=INT 900 \
  python -m pytest benchmarks/bench_concurrent_serve.py -x -q
if [ ! -f benchmarks/perf/BENCH_concurrent_serve.json ]; then
  echo "verify: FAIL — bench_concurrent_serve did not write benchmarks/perf/BENCH_concurrent_serve.json" >&2
  exit 1
fi

echo "verify: OK"

#!/usr/bin/env bash
# Tier-1 verification + telemetry smoke test.
#
# Builds the tree, runs every ctest suite, then drives a short
# snowplow_cli campaign with --metrics-out and asserts the emitted file
# is valid JSONL carrying the events and registry snapshot the
# observability layer promises (see DESIGN.md "Observability").
#
# Stage index:
#   1  baseline campaign telemetry (JSONL events + registry snapshot)
#   2  PMM train + async-inference campaign telemetry
#   3  ThreadSanitizer pass over the concurrency-bearing suites
#   4  perf gates: NN/trace/exec micro benches + covmap overhead;
#      prints the end-to-end share (Syzkaller campaign execs/s over
#      fast-backend programs/s), informational only
#   5  introspection smoke: /metrics /status /coverage /timeline
#      scraped over HTTP, trace_event export validated
#   6  coverage-cartography round trip (covmap log -> analyze ->
#      fuzz --directed-from)
#   7  dataset store round trip + streaming-training parity
#   8  decision-policy ablation sweep gate (thompson >= static)
#   9  timeline observatory: artifact/report schema checks, byte
#      equality and compare gate vs the committed BENCH_timeline.json
#      baseline, byte equality of a PMM-localized campaign vs
#      BENCH_timeline_pmm.json,
#      static-vs-thompson verdict, recording-overhead gate (<1% of a
#      checkpoint interval)
#  10  fleet fabric: localhost coordinator + 4 nodes (one abandons its
#      first lease mid-campaign) drain the stage-9 campaign budget;
#      the merged fleet timeline must be regression-free vs the
#      committed BENCH_timeline.json; coordinator /status and /metrics
#      validated against fleet_status.schema.json and the [fleet]
#      section of metrics.required.txt, /coverage against stage 5's
#      coverage.schema.json
#  11  AddressSanitizer + UndefinedBehaviorSanitizer pass over the full
#      ctest
#  12  compile check: the campaign benchmark (perfbench/, which also
#      links bench/common.cc) still builds against this tree
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

baseline=$(mktemp /tmp/sp_ci_baseline.XXXXXX.jsonl)
snowplow=$(mktemp /tmp/sp_ci_snowplow.XXXXXX.jsonl)
ckpt=$(mktemp /tmp/sp_ci_pmm.XXXXXX.ckpt)
trap 'rm -f "$baseline" "$snowplow" "$ckpt"' EXIT

# validate_jsonl FILE REQUIRED_EVENT... — every line parses, every
# required event type appears, and the registry snapshot carries the
# headline metrics.
validate_jsonl() {
    python3 - "$@" <<'PY'
import json
import sys

path, required = sys.argv[1], sys.argv[2:]
events = {}
snapshot = None
with open(path) as f:
    for lineno, line in enumerate(f, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"{path}:{lineno}: invalid JSON: {e}")
        if "ev" not in record or "t_us" not in record:
            sys.exit(f"{path}:{lineno}: missing ev/t_us")
        events[record["ev"]] = events.get(record["ev"], 0) + 1
        if record["ev"] == "registry_snapshot":
            snapshot = record["registry"]

for ev in required:
    if ev not in events:
        sys.exit(f"{path}: missing required event type: {ev}")
if snapshot is None:
    sys.exit(f"{path}: no registry snapshot")
if "campaign_summary" in required:
    counters = snapshot["counters"]
    if counters.get("fuzz.execs", 0) < 5000:
        sys.exit(f"{path}: fuzz.execs too low: "
                 f"{counters.get('fuzz.execs')}")
    if snapshot["gauges"].get("fuzz.execs_per_sec", 0) <= 0:
        sys.exit(f"{path}: fuzz.execs_per_sec not set")
    if "fuzz.mutant_success.arg" not in snapshot["gauges"]:
        sys.exit(f"{path}: fuzz.mutant_success.arg not set")
    if snapshot["histograms"]["exec.run_us"]["count"] < 5000:
        sys.exit(f"{path}: exec.run_us histogram underpopulated")
if "inference_latency" in required:
    latency = snapshot["histograms"].get("infer.latency_us", {})
    if latency.get("count", 0) <= 0 or "p95" not in latency:
        sys.exit(f"{path}: infer.latency_us p95 missing")
print(f"{path}: {sum(events.values())} events "
      f"({', '.join(f'{k}x{v}' for k, v in sorted(events.items()))})")
PY
}

# Stage 1: baseline campaign — coverage/mutation/crash telemetry.
./build/examples/snowplow_cli fuzz --budget 5000 --seed 1 \
    --metrics-out "$baseline" > /dev/null
validate_jsonl "$baseline" \
    coverage_checkpoint mutation_outcome campaign_summary \
    registry_snapshot

# Stage 2: train a small PMM, then an async-inference Snowplow
# campaign — adds train_epoch and inference_latency telemetry.
./build/examples/snowplow_cli train --corpus 80 --mutations 80 \
    --epochs 2 --out "$ckpt" > /dev/null 2>&1
./build/examples/snowplow_cli fuzz --budget 5000 --seed 1 \
    --pmm "$ckpt" --async 2 --metrics-out "$snowplow" > /dev/null
validate_jsonl "$snowplow" \
    coverage_checkpoint mutation_outcome inference_latency \
    campaign_summary registry_snapshot

# Stage 3: ThreadSanitizer pass over the concurrency-bearing suites —
# the sharded corpus, campaign engine, prediction cache and telemetry
# registry all run multi-threaded in production, so they must be clean
# under -fsanitize=thread (a separate build tree; TSan and the regular
# flags cannot share objects).
cmake -B build-tsan -S . -DSP_SANITIZE=thread
cmake --build build-tsan -j"$(nproc)" --target \
    fuzz_test campaign_test policy_test fuzz_ext_test core_test \
    core_ext_test obs_test trace_test data_test covmap_test \
    exec_backend_test timeline_test fleet_test
ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
    -R '^(fuzz_test|campaign_test|policy_test|fuzz_ext_test|core_test|core_ext_test|obs_test|trace_test|data_test|covmap_test|exec_backend_test|timeline_test|fleet_test)$'

# Stage 4: NN hot-path perf smoke — run the GEMM / inference-latency /
# service-throughput benchmarks briefly (min_time is a bare double;
# this google-benchmark predates unit suffixes) and keep the JSON
# report as a build artifact for eyeballing regressions. The tracer
# benchmarks also gate the disabled path: with no tracer installed an
# instrumentation site must cost so little that a full slot's worth of
# span sites stays under 1% of the slot itself.
./build/bench/sec55_perf \
    --benchmark_filter='BM_RawMatmul|BM_PmmInferenceLatency|BM_InferenceServiceThroughput/workers:1|BM_TraceSpanDisabled|BM_TraceOverhead|BM_ExecThroughput|BM_FuzzThroughputSyzkaller' \
    --benchmark_min_time=0.01 \
    --benchmark_out=BENCH_sec55.json --benchmark_out_format=json \
    > /dev/null
python3 - <<'PY'
import json

with open("BENCH_sec55.json") as f:
    report = json.load(f)
names = [b["name"] for b in report["benchmarks"]]
for needle in ("BM_RawMatmul", "BM_PmmInferenceLatency",
               "BM_InferenceServiceThroughput", "BM_TraceSpanDisabled",
               "BM_TraceOverhead", "BM_ExecThroughput",
               "BM_FuzzThroughputSyzkaller"):
    if not any(needle in n for n in names):
        raise SystemExit(f"BENCH_sec55.json: missing {needle} results")

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def time_ns(needle):
    bench = next(b for b in report["benchmarks"] if needle in b["name"])
    return bench["real_time"] * UNIT_NS[bench["time_unit"]]

# Disabled-path gate: ~6 span/status sites fire per pipeline slot
# (schedule, localize, instantiate, execute, triage, board update).
span_ns = time_ns("BM_TraceSpanDisabled")
slot_ns = time_ns("BM_TraceOverhead/traced:0")
overhead = 6.0 * span_ns / slot_ns
print(f"BENCH_sec55.json: {len(names)} benchmark results; "
      f"disabled-path span {span_ns:.1f} ns, slot {slot_ns:.0f} ns "
      f"-> {100.0 * overhead:.3f}% per slot")
if overhead >= 0.01:
    raise SystemExit("tracing-disabled overhead exceeds 1% of a slot")

# Exec-backend gate: the fast backend (dirty-state restore + dense
# coverage, the campaign default) must hold >=3x the reference
# interpreter's single-thread program throughput (ISSUE acceptance).
def progs_per_sec(needle):
    bench = next(b for b in report["benchmarks"] if needle in b["name"])
    return bench["items_per_second"]

ref = progs_per_sec("BM_ExecThroughput/fast:0/real_time/threads:1")
fast = progs_per_sec("BM_ExecThroughput/fast:1/real_time/threads:1")
speedup = fast / ref
print(f"BENCH_sec55.json: exec backend ref {ref / 1e3:.0f}k "
      f"fast {fast / 1e3:.0f}k programs/sec -> {speedup:.2f}x")
if speedup < 3.0:
    raise SystemExit(
        f"fast exec backend speedup {speedup:.2f}x below the 3x gate")

# End-to-end share: how much of the bare executor's throughput a whole
# Syzkaller-mode campaign keeps once scheduling, mutation, triage and
# checkpoints are paid for. Informational: the 2-iteration campaign
# benchmark reads 0.15-0.23 from run to run on a 4-vCPU host, too
# spread out to gate on.
campaign = progs_per_sec("BM_FuzzThroughputSyzkaller")
print(f"BENCH_sec55.json: Syzkaller campaign {campaign / 1e3:.0f}k "
      f"execs/sec -> end-to-end share {campaign / fast:.3f} of the "
      f"fast backend (informational)")
PY

# Coverage-cartography perf gate: hit recording must cost under 2% of
# a full campaign slot, and the disabled site must be unmeasurable.
# The ratio is derived from the stable micro numbers (per-program
# recording cost / per-execution campaign slot cost) rather than by
# differencing two noisy end-to-end runs; the end-to-end enabled:0/1
# pair still lands in BENCH_covmap.json for eyeballing.
./build/bench/covmap \
    --benchmark_min_time=0.02 \
    --benchmark_out=BENCH_covmap.json --benchmark_out_format=json \
    > /dev/null
python3 - <<'PY'
import json

with open("BENCH_covmap.json") as f:
    report = json.load(f)
names = [b["name"] for b in report["benchmarks"]]
for needle in ("BM_CovmapOverhead/enabled:0", "BM_CovmapOverhead/enabled:1",
               "BM_CovmapDisabledSite", "BM_CovmapRecordProgram",
               "BM_CovmapMerge"):
    if not any(needle in n for n in names):
        raise SystemExit(f"BENCH_covmap.json: missing {needle} results")

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def bench(needle):
    return next(b for b in report["benchmarks"] if needle in b["name"])

def time_ns(needle):
    b = bench(needle)
    return b["real_time"] * UNIT_NS[b["time_unit"]]

# Per-execution cost of one plain campaign slot (schedule through
# checkpoint; items are executions).
slot_ns = 1e9 / bench("BM_CovmapOverhead/enabled:0")["items_per_second"]
record_ns = time_ns("BM_CovmapRecordProgram")  # per executed program
site_ns = time_ns("BM_CovmapDisabledSite")     # null-shard branch
enabled = record_ns / slot_ns
disabled = site_ns / slot_ns
print(f"BENCH_covmap.json: slot {slot_ns:.0f} ns, "
      f"record {record_ns:.1f} ns/exec, site {site_ns:.2f} ns -> "
      f"enabled {100.0 * enabled:.2f}%, "
      f"disabled {100.0 * disabled:.4f}% per slot")
if enabled >= 0.02:
    raise SystemExit("covmap hit-recording overhead exceeds 2% of a slot")
if disabled >= 0.0001:
    raise SystemExit("covmap disabled-site overhead is measurable")
PY

# Stage 5: introspection smoke — a short multi-worker campaign with
# span tracing and the status server up, scraped over HTTP while the
# process idles in --status-hold. Validates /metrics, /status,
# /coverage and /timeline against the checked-in schemas (ci/schemas/)
# and that the exported trace parses as Chrome trace_event JSON
# covering the pipeline.
trace_json=$(mktemp /tmp/sp_ci_trace.XXXXXX.json)
introspect=$(mktemp /tmp/sp_ci_introspect.XXXXXX.jsonl)
cov_live=$(mktemp /tmp/sp_ci_covlive.XXXXXX.jsonl)
tl_live=$(mktemp /tmp/sp_ci_tllive.XXXXXX.jsonl)
trap 'rm -f "$baseline" "$snowplow" "$ckpt" "$trace_json" "$introspect" "$cov_live" "$tl_live"' EXIT
python3 - "$trace_json" "$introspect" "$cov_live" "$tl_live" <<'PY'
import json
import re
import subprocess
import sys
import urllib.request

trace_path, metrics_path, covmap_path, timeline_path = sys.argv[1:5]
proc = subprocess.Popen(
    ["./build/examples/snowplow_cli", "fuzz",
     "--budget", "5000", "--seed", "1", "--workers", "4",
     "--metrics-out", metrics_path,
     "--covmap-out", covmap_path,
     "--timeline-out", timeline_path,
     "--trace-out", trace_path, "--trace-sample", "1",
     "--status-port", "0", "--status-hold", "1"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

# The driver owns stdin: --status-hold blocks on it until released.
port = None
final_seen = False
for line in proc.stdout:
    match = re.match(r"status server listening on port (\d+)", line)
    if match:
        port = int(match.group(1))
    final_seen |= line.startswith("final:")
    if line.startswith("status-hold:"):
        break
if port is None:
    sys.exit("introspection smoke: no status-server port line")
if not final_seen:
    sys.exit("introspection smoke: campaign never printed final:")

def get(path):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10) as response:
        return response.read().decode()

with open("ci/schemas/status.schema.json") as f:
    schema = json.load(f)

TYPES = {"int": int, "str": str, "list": list, "dict": dict,
         "bool": bool}

def check(obj, spec, where):
    for key, type_name in spec.items():
        if key not in obj:
            sys.exit(f"/status: {where} missing key {key!r}")
        if not isinstance(obj[key], TYPES[type_name]):
            sys.exit(f"/status: {where}.{key} is not {type_name}")

status = json.loads(get("/status"))
check(status, schema["required"], "top level")
if len(status["workers"]) != 4:
    sys.exit(f"/status: expected 4 workers, got {len(status['workers'])}")
for worker in status["workers"]:
    check(worker, schema["worker"], f"workers[{worker.get('id')}]")
    if worker["stage"] not in schema["worker_stages"]:
        sys.exit(f"/status: unknown stage {worker['stage']!r}")
check(status["campaign"], schema["campaign"], "campaign")
if status["campaign"]["completed"] < 5000:
    sys.exit("/status: campaign.completed below the budget")

metrics = get("/metrics")
# The unsectioned prefix of metrics.required.txt applies to every
# fuzz campaign; [role] sections below it (e.g. [fleet]) are checked
# by their own stages.
required = []
with open("ci/schemas/metrics.required.txt") as f:
    for line in f:
        line = line.strip()
        if line.startswith("["):
            break
        if line and not line.startswith("#"):
            required.append(line)
for name in required:
    if not re.search(rf"^{re.escape(name)}(\{{| )", metrics, re.M):
        sys.exit(f"/metrics: missing required metric {name}")

if get("/healthz").strip() != "ok":
    sys.exit("/healthz: not ok")

# /coverage serves the frozen end-of-campaign covmap summary while the
# process idles in --status-hold.
with open("ci/schemas/coverage.schema.json") as f:
    cov_schema = json.load(f)

def check_coverage(coverage):
    def shape(obj, spec, where):
        for key, type_name in spec.items():
            if key not in obj:
                sys.exit(f"/coverage: {where} missing key {key!r}")
            value = obj[key]
            if not isinstance(value, TYPES[type_name]) or (
                    type_name == "int" and isinstance(value, bool)):
                sys.exit(f"/coverage: {where}.{key} is not {type_name}")
    shape(coverage, cov_schema["required"], "top level")
    if coverage["enabled"] is not True:
        sys.exit("/coverage: not enabled")
    if len(coverage["frontier"]) > coverage["frontier_size"]:
        sys.exit("/coverage: more frontier entries than frontier_size")
    for i, entry in enumerate(coverage["frontier"]):
        shape(entry, cov_schema["frontier_entry"], f"frontier[{i}]")

coverage = json.loads(get("/coverage"))
check_coverage(coverage)
if coverage["execs"] < 5000 or coverage["blocks_hit"] <= 0:
    sys.exit(f"/coverage: implausible summary: {coverage}")

# /timeline serves the recorder's recent-sample window (frozen at
# end-of-campaign while the process idles in --status-hold).
timeline = json.loads(get("/timeline"))
if timeline.get("enabled") is not True:
    sys.exit("/timeline: not enabled despite --timeline-out")
for key in ("samples", "ring_capacity", "window"):
    if key not in timeline:
        sys.exit(f"/timeline: missing key {key!r}")
if timeline["samples"] <= 0 or not timeline["window"]:
    sys.exit(f"/timeline: empty window: {timeline}")
for entry in timeline["window"]:
    for key in ("execs", "edges", "blocks", "crashes", "corpus",
                "counters", "gauges", "hists"):
        if key not in entry:
            sys.exit(f"/timeline: window entry missing {key!r}")
if timeline["window"][-1]["execs"] < 5000:
    sys.exit("/timeline: window never reached the campaign budget")

# Release the hold and let the process export the trace and exit.
proc.stdin.write("\n")
proc.stdin.close()
if proc.wait(timeout=60) != 0:
    sys.exit(f"snowplow_cli exited {proc.returncode}")

with open(trace_path) as f:
    events = json.load(f)
complete = [e for e in events if e.get("ph") == "X"]
if not complete:
    sys.exit("trace: no complete events")
for event in complete:
    for key in ("name", "pid", "tid", "ts", "dur"):
        if key not in event:
            sys.exit(f"trace: event missing {key}: {event}")
stages = {e["name"] for e in complete}
for stage in ("schedule", "localize", "instantiate", "execute",
              "triage", "checkpoint"):
    if stage not in stages:
        sys.exit(f"trace: no {stage} spans")
print(f"introspection smoke: port {port}, {len(status['workers'])} "
      f"workers, {len(events)} trace events, "
      f"{len(required)} required metrics present")
PY

# Stage 6: coverage-cartography round trip — profile a short campaign
# (--covmap-out), validate the snapshot log against its checked-in
# schema, run `analyze` and validate the report, then feed the ranked
# cold-frontier targets back through `fuzz --directed-from`.
cov_log=$(mktemp /tmp/sp_ci_covlog.XXXXXX.jsonl)
cov_report=$(mktemp /tmp/sp_ci_covreport.XXXXXX.json)
trap 'rm -f "$baseline" "$snowplow" "$ckpt" "$trace_json" "$introspect" "$cov_live" "$cov_log" "$cov_report"' EXIT
./build/examples/snowplow_cli fuzz --budget 5000 --seed 1 --workers 2 \
    --covmap-out "$cov_log" > /dev/null
./build/examples/snowplow_cli analyze "$cov_log" --seed 1 \
    --targets 16 --out "$cov_report" \
    | grep -q 'cold-frontier targets' || {
        echo "analyze: missing heat report"; exit 1; }
python3 - "$cov_log" "$cov_report" <<'PY'
import json
import sys

log_path, report_path = sys.argv[1], sys.argv[2]
TYPES = {"int": int, "str": str, "list": list, "dict": dict,
         "bool": bool}

def check(obj, spec, where):
    for key, type_name in spec.items():
        if key not in obj:
            sys.exit(f"{where}: missing key {key!r}")
        value = obj[key]
        if not isinstance(value, TYPES[type_name]) or (
                type_name == "int" and isinstance(value, bool)):
            sys.exit(f"{where}.{key} is not {type_name}")

# --- snapshot log: header, windows, final --------------------------
with open("ci/schemas/covmap_log.schema.json") as f:
    log_schema = json.load(f)
with open(log_path) as f:
    lines = [json.loads(line) for line in f]
if len(lines) < 3:
    sys.exit(f"{log_path}: expected header + windows + final")
header, windows, final = lines[0], lines[1:-1], lines[-1]

check(header, log_schema["header"], "covmap_header")
if header["type"] != "covmap_header":
    sys.exit("covmap log: first line is not covmap_header")
if header["version"] != log_schema["version"]:
    sys.exit(f"covmap log: version {header['version']} unsupported")
if len(header["edges"]) != header["num_edges"]:
    sys.exit("covmap log: edges length != num_edges")
for pair in header["edges"]:
    if not (isinstance(pair, list) and len(pair) == 2):
        sys.exit(f"covmap log: malformed edge {pair!r}")

hits = [0] * header["num_blocks"]
for i, window in enumerate(windows):
    check(window, log_schema["window"], f"window[{i}]")
    if window["type"] != "covmap_window":
        sys.exit(f"covmap log: line {i + 2} is not covmap_window")
    for index, delta in window["block_deltas"]:
        if delta <= 0:
            sys.exit(f"window[{i}]: non-positive block delta")
        hits[index] += delta

check(final, log_schema["final"], "covmap_final")
if final["type"] != "covmap_final":
    sys.exit("covmap log: last line is not covmap_final")
if final["windows"] != len(windows):
    sys.exit("covmap log: final window count disagrees")
reached = sum(1 for h in hits if h)
if reached != final["blocks_hit"]:
    sys.exit(f"covmap log: delta reconstruction gives {reached} "
             f"reached blocks, final says {final['blocks_hit']}")

# --- analyze report ------------------------------------------------
with open("ci/schemas/analyze_report.schema.json") as f:
    report_schema = json.load(f)
with open(report_path) as f:
    report = json.load(f)
check(report, report_schema["required"], "report")
if report["type"] != "covmap_report":
    sys.exit("report: type is not covmap_report")
if report["version"] != report_schema["version"]:
    sys.exit(f"report: version {report['version']} unsupported")
check(report["heat"], report_schema["heat"], "report.heat")
for i, subsystem in enumerate(report["subsystems"]):
    check(subsystem, report_schema["subsystem"], f"subsystems[{i}]")
for i, window in enumerate(report["timeline"]):
    check(window, report_schema["window"], f"timeline[{i}]")
if not report["targets"]:
    sys.exit("report: empty cold-frontier target set")
for i, target in enumerate(report["targets"]):
    check(target, report_schema["target"], f"targets[{i}]")
    if hits[target["block"]] != 0:
        sys.exit(f"targets[{i}]: block {target['block']} was reached")
bands = report["heat"]
if (bands["unreached"] + bands["cold"] + bands["warm"] + bands["hot"]
        != report["blocks_total"]):
    sys.exit("report: heat bands do not partition the block set")
print(f"covmap schemas: {len(windows)} windows, "
      f"{len(report['targets'])} targets, "
      f"{len(report['subsystems'])} subsystems validated")
PY
./build/examples/snowplow_cli fuzz --budget 3000 --seed 2 \
    --directed-from "$cov_report" \
    | grep -q '^directed: reached' || {
        echo "fuzz --directed-from: missing directed summary"; exit 1; }
echo "coverage cartography round trip: OK"

# Stage 7: dataset store round-trip smoke — collect a store into
# shards, merge/compact them, then train one epoch streamed from disk
# and one epoch in-memory and require identical eval metrics (the
# determinism-parity contract of data::StreamSource), plus a short
# harvesting campaign whose shard must load and stat cleanly.
store_dir=$(mktemp -d /tmp/sp_ci_store.XXXXXX)
trap 'rm -f "$baseline" "$snowplow" "$ckpt" "$trace_json" "$introspect"; rm -rf "$store_dir"' EXIT
./build/examples/snowplow_cli dataset collect --out "$store_dir" \
    --shards 2 --corpus 60 --mutations 60 > /dev/null
./build/examples/snowplow_cli dataset merge \
    --out "$store_dir/merged.spds" \
    "$store_dir"/shard-000.spds "$store_dir"/shard-001.spds > /dev/null
./build/examples/snowplow_cli dataset stats "$store_dir/merged.spds" \
    | grep -q 'truncated' || {
        echo "dataset stats: missing summary line"; exit 1; }
./build/examples/snowplow_cli train --data "$store_dir/merged.spds" \
    --stream 1 --epochs 1 --dim 16 --token-dim 8 \
    | grep '^eval:' > "$store_dir/eval_stream.txt"
./build/examples/snowplow_cli train --data "$store_dir/merged.spds" \
    --stream 0 --epochs 1 --dim 16 --token-dim 8 \
    | grep '^eval:' > "$store_dir/eval_memory.txt"
diff "$store_dir/eval_stream.txt" "$store_dir/eval_memory.txt" || {
    echo "stream/in-memory training parity broken"; exit 1; }
./build/examples/snowplow_cli fuzz --budget 3000 --seed 1 --workers 2 \
    --harvest-dir "$store_dir/harvest" > /dev/null
./build/examples/snowplow_cli dataset stats \
    "$store_dir/harvest/harvest-000.spds" > /dev/null
echo "dataset store round-trip + streaming parity: OK"

# Stage 8: decision-policy ablation gate — run the A6 sweep (small
# freshly-trained PMM, three seeds, three policy modes), validate
# BENCH_ablations.json against its checked-in schema, and require the
# Thompson policy to match or beat the static policy's mean final
# coverage on the smoke kernel.
./build/bench/ablations --sweep-only BENCH_ablations.json > /dev/null
python3 - <<'PY'
import json
import sys

with open("ci/schemas/ablations.schema.json") as f:
    schema = json.load(f)
with open("BENCH_ablations.json") as f:
    sweep = json.load(f)

TYPES = {"int": int, "str": str, "list": list, "dict": dict,
         "float": float}

def check(obj, spec, where):
    for key, type_name in spec.items():
        if key not in obj:
            sys.exit(f"BENCH_ablations.json: {where} missing {key!r}")
        value = obj[key]
        if not isinstance(value, TYPES[type_name]) or (
                type_name == "int" and isinstance(value, bool)):
            sys.exit(f"BENCH_ablations.json: {where}.{key} "
                     f"is not {type_name}")

check(sweep, schema["required"], "top level")
if sweep["type"] != "ablations_sweep":
    sys.exit("BENCH_ablations.json: type is not ablations_sweep")
if sweep["version"] != schema["version"]:
    sys.exit(f"BENCH_ablations.json: version {sweep['version']} "
             "unsupported")

modes = {}
for i, mode in enumerate(sweep["modes"]):
    check(mode, schema["mode"], f"modes[{i}]")
    if len(mode["edges"]) != len(sweep["seeds"]):
        sys.exit(f"modes[{i}]: {len(mode['edges'])} curves for "
                 f"{len(sweep['seeds'])} seeds")
    for curve in mode["edges"]:
        if len(curve) != len(sweep["checkpoints"]):
            sys.exit(f"modes[{i}]: curve length disagrees with the "
                     "checkpoint grid")
    modes[mode["name"]] = mode
for name in ("static", "pure-pmm", "thompson"):
    if name not in modes:
        sys.exit(f"BENCH_ablations.json: missing mode {name!r}")

static_mean = modes["static"]["final_mean"]
thompson_mean = modes["thompson"]["final_mean"]
print(f"policy sweep: static {static_mean:.1f}, "
      f"pure-pmm {modes['pure-pmm']['final_mean']:.1f}, "
      f"thompson {thompson_mean:.1f} mean final edges")
if thompson_mean < static_mean:
    sys.exit(f"thompson mean final coverage {thompson_mean:.1f} "
             f"fell below static {static_mean:.1f}")
PY

# Stage 9: timeline observatory regression gate.
#
# BENCH_timeline.json is the committed --timeline-out artifact of the
# canonical campaign below (no metrics sink => no wall clock anywhere
# in the artifact; --workers 1 => the serialized checkpoint owner is
# the only sampler; the bytes are reproducible run-to-run). The stage
# re-runs that campaign, schema-checks the artifacts, and requires the
# fresh artifact to equal the baseline byte for byte and
# `sp_analysis compare` to come back clean against it (exit 3 =
# regression verdict). A thompson campaign over the same seed set
# must then match or beat the static baseline's final edges — the same
# direction stage 8's ablation gate enforces. Finally the recording
# overhead is gated: one checkpoint sample must cost under 1% of a
# checkpoint interval's worth of campaign slots.
#
# To refresh the baseline after an intentional behavior change:
#   ./build/examples/snowplow_cli fuzz --budget 6000 --seed 5 \
#       --workers 1 --policy static --covmap-out /tmp/cov.jsonl \
#       --timeline-out BENCH_timeline.json
# then commit the regenerated BENCH_timeline.json.
tl_fresh=$(mktemp /tmp/sp_ci_tlfresh.XXXXXX.jsonl)
tl_thompson=$(mktemp /tmp/sp_ci_tlthom.XXXXXX.jsonl)
tl_pmm=$(mktemp /tmp/sp_ci_tlpmm.XXXXXX.jsonl)
tl_cov=$(mktemp /tmp/sp_ci_tlcov.XXXXXX.jsonl)
cmp_base=$(mktemp /tmp/sp_ci_cmpbase.XXXXXX.json)
cmp_policy=$(mktemp /tmp/sp_ci_cmppol.XXXXXX.json)
trap 'rm -f "$baseline" "$snowplow" "$ckpt" "$trace_json" "$introspect" "$cov_live" "$tl_live" "$tl_fresh" "$tl_thompson" "$tl_pmm" "$tl_cov" "$cmp_base" "$cmp_policy"; rm -rf "$store_dir"' EXIT
./build/examples/snowplow_cli fuzz --budget 6000 --seed 5 --workers 1 \
    --policy static --covmap-out "$tl_cov" \
    --timeline-out "$tl_fresh" > /dev/null
./build/examples/snowplow_cli fuzz --budget 6000 --seed 5 --workers 1 \
    --policy thompson --covmap-out "$tl_cov" \
    --timeline-out "$tl_thompson" > /dev/null
# The fresh static artifact must equal the baseline byte for byte: a
# change that moves the RNG stream or any recorded figure fails here
# even when the compare verdict below stays clean.
cmp BENCH_timeline.json "$tl_fresh" || {
    echo "timeline: fresh static artifact differs from BENCH_timeline.json"
    echo "(if intentional, refresh BENCH_timeline.json — see above)"
    exit 1; }
# The same pin for a Snowplow-mode campaign: the pinned perfbench
# model localizes every round, so a change to the PMM forward pass that
# moves one prediction moves the mutants and fails here. Refresh with
#   ./build/examples/snowplow_cli fuzz --budget 6000 --seed 5 \
#       --workers 1 --policy static --pmm perfbench/model/pmm.ckpt \
#       --timeline-out BENCH_timeline_pmm.json
./build/examples/snowplow_cli fuzz --budget 6000 --seed 5 --workers 1 \
    --policy static --pmm perfbench/model/pmm.ckpt \
    --timeline-out "$tl_pmm" > /dev/null
cmp BENCH_timeline_pmm.json "$tl_pmm" || {
    echo "timeline: fresh PMM artifact differs from BENCH_timeline_pmm.json"
    echo "(if intentional, refresh BENCH_timeline_pmm.json — see above)"
    exit 1; }
./build/examples/sp_analysis compare BENCH_timeline.json "$tl_fresh" \
    --out "$cmp_base" || {
        echo "timeline: fresh campaign regressed vs the committed baseline"
        echo "(if intentional, refresh BENCH_timeline.json — see above)"
        exit 1; }
./build/examples/sp_analysis compare "$tl_fresh" "$tl_thompson" \
    --out "$cmp_policy" || {
        echo "timeline: thompson regressed vs static on the compare grid"
        exit 1; }
python3 - BENCH_timeline.json "$tl_fresh" "$tl_thompson" \
    "$cmp_base" "$cmp_policy" <<'PY'
import json
import sys

TYPES = {"int": int, "str": str, "list": list, "dict": dict,
         "float": (int, float), "bool": bool}

def check(obj, spec, where):
    for key, type_name in spec.items():
        if key not in obj:
            sys.exit(f"{where}: missing key {key!r}")
        value = obj[key]
        if not isinstance(value, TYPES[type_name]) or (
                type_name in ("int", "float")
                and isinstance(value, bool)):
            sys.exit(f"{where}.{key} is not {type_name}")

# --- timeline artifacts: header + delta samples + final ------------
with open("ci/schemas/timeline_log.schema.json") as f:
    log_schema = json.load(f)

def validate_log(path):
    with open(path) as f:
        lines = [json.loads(line) for line in f]
    if len(lines) < 3:
        sys.exit(f"{path}: expected header + samples + final")
    header, samples, final = lines[0], lines[1:-1], lines[-1]
    check(header, log_schema["header"], f"{path}: header")
    if header["type"] != "timeline_header":
        sys.exit(f"{path}: first line is not timeline_header")
    if header["version"] != log_schema["version"]:
        sys.exit(f"{path}: version {header['version']} unsupported")
    if header["timing"]:
        sys.exit(f"{path}: baseline campaign must not record wall "
                 "clock (it would not be reproducible)")
    prev = -1
    for i, sample in enumerate(samples):
        check(sample, log_schema["sample"], f"{path}: sample[{i}]")
        if sample["type"] != "timeline_sample":
            sys.exit(f"{path}: line {i + 2} is not timeline_sample")
        if sample["execs"] <= prev:
            sys.exit(f"{path}: sample grid is not monotone")
        prev = sample["execs"]
        if "cov" in sample:
            check(sample["cov"], log_schema["cov"],
                  f"{path}: sample[{i}].cov")
        if "policy" in sample:
            check(sample["policy"], log_schema["policy"],
                  f"{path}: sample[{i}].policy")
    check(final, log_schema["final"], f"{path}: final")
    if final["type"] != "timeline_final":
        sys.exit(f"{path}: last line is not timeline_final")
    # The final record is itself the last recorded sample, so its
    # cumulative count is one past the delta-encoded grid lines.
    if final["samples"] != len(samples) + 1:
        sys.exit(f"{path}: final sample count disagrees with the "
                 "recorded grid")
    if "gauges" in final:
        sys.exit(f"{path}: final record must not carry gauges")
    return final

base_final = validate_log(sys.argv[1])
fresh_final = validate_log(sys.argv[2])
validate_log(sys.argv[3])

# --- compare reports -----------------------------------------------
with open("ci/schemas/compare_report.schema.json") as f:
    report_schema = json.load(f)

def validate_report(path, name):
    with open(path) as f:
        report = json.load(f)
    check(report, report_schema["required"], name)
    if report["type"] != "compare_report":
        sys.exit(f"{name}: type is not compare_report")
    if report["version"] != report_schema["version"]:
        sys.exit(f"{name}: version {report['version']} unsupported")
    check(report["aligned"], report_schema["aligned"],
          f"{name}.aligned")
    if report["aligned"]["samples"] < 2:
        sys.exit(f"{name}: fewer than 2 aligned samples")
    coverage = report["coverage"]
    for key in ("final_edges", "auc"):
        check(coverage[key], report_schema["delta"],
              f"{name}.coverage.{key}")
        if coverage[key]["verdict"] not in report_schema["verdicts"]:
            sys.exit(f"{name}: unknown verdict "
                     f"{coverage[key]['verdict']!r}")
    check(coverage["time_to_target"],
          report_schema["time_to_target"],
          f"{name}.coverage.time_to_target")
    check(report["thresholds"], report_schema["thresholds"],
          f"{name}.thresholds")
    if report["verdict"] not in ("ok", "regressed"):
        sys.exit(f"{name}: unknown overall verdict "
                 f"{report['verdict']!r}")
    return report

base = validate_report(sys.argv[4], "baseline compare")
policy = validate_report(sys.argv[5], "policy compare")
if base["regressions"]:
    sys.exit("baseline compare: regressions slipped past the exit "
             f"code: {base['regressions']}")
# The compare verdict must agree with stage 8's ablation direction:
# thompson's final coverage matches or beats static's.
edges = policy["coverage"]["final_edges"]
if edges["verdict"] not in ("ok", "improved"):
    sys.exit(f"policy compare: static -> thompson final edges "
             f"{edges['a']} -> {edges['b']} contradicts the stage-8 "
             "ablation gate")
print(f"timeline compare: baseline {base_final['edges']} / fresh "
      f"{fresh_final['edges']} final edges, static -> thompson "
      f"{edges['a']} -> {edges['b']} ({edges['verdict']})")
PY

# Recording-overhead gate: one per-checkpoint sample (registry sweep,
# delta encode, artifact append, ring push) must cost under 1% of a
# checkpoint interval's worth of campaign slot time, and the null-
# recorder branch every timeline-less campaign pays per checkpoint
# must be unmeasurable. Same stable-micro-ratio construction as the
# covmap gate in stage 4.
./build/bench/timeline \
    --benchmark_min_time=0.02 \
    --benchmark_out=BENCH_timeline_perf.json --benchmark_out_format=json \
    > /dev/null
python3 - <<'PY'
import json

with open("BENCH_timeline_perf.json") as f:
    report = json.load(f)
names = [b["name"] for b in report["benchmarks"]]
for needle in ("BM_TimelineOverhead/enabled:0",
               "BM_TimelineOverhead/enabled:1",
               "BM_TimelineSample", "BM_TimelineDisabledSite"):
    if not any(needle in n for n in names):
        raise SystemExit(
            f"BENCH_timeline_perf.json: missing {needle} results")

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def bench(needle):
    return next(b for b in report["benchmarks"] if needle in b["name"])

def time_ns(needle):
    b = bench(needle)
    return b["real_time"] * UNIT_NS[b["time_unit"]]

# Per-execution cost of one recorder-less campaign slot; the sampler
# runs once per checkpoint_every = 625 executions (the eval grid).
slot_ns = 1e9 / bench("BM_TimelineOverhead/enabled:0")["items_per_second"]
sample_ns = time_ns("BM_TimelineSample")
site_ns = time_ns("BM_TimelineDisabledSite")
interval_ns = 625.0 * slot_ns
enabled = sample_ns / interval_ns
disabled = site_ns / interval_ns
print(f"BENCH_timeline_perf.json: slot {slot_ns:.0f} ns, sample "
      f"{sample_ns:.0f} ns, site {site_ns:.2f} ns -> enabled "
      f"{100.0 * enabled:.3f}%, disabled {100.0 * disabled:.6f}% "
      "per checkpoint interval")
if enabled >= 0.01:
    raise SystemExit(
        "timeline sampling overhead exceeds 1% of a checkpoint interval")
if disabled >= 0.0001:
    raise SystemExit("timeline disabled-site overhead is measurable")
PY

# Stage 10: fleet fabric gate (DESIGN.md §16).
#
# A localhost coordinator and four nodes — one of which abandons its
# first lease mid-campaign, forcing a disconnect-reclaim — drain the
# same canonical campaign stage 9 replays (--budget 6000 --seed 5,
# static policy). The fleet is not bit-reproducible (lease->node
# assignment is timing-dependent), so the gate is directional, not
# byte-equal: the merged fleet timeline goes through `sp_analysis
# compare` against the committed single-process BENCH_timeline.json
# and must come back regression-free. The coordinator's /status and
# /metrics are validated against ci/schemas/fleet_status.schema.json
# and the [fleet] section of metrics.required.txt, and its /coverage
# against ci/schemas/coverage.schema.json (the campaign's shape), while
# the process idles in --status-hold.
fleet_tl=$(mktemp /tmp/sp_ci_fleettl.XXXXXX.jsonl)
fleet_cmp=$(mktemp /tmp/sp_ci_fleetcmp.XXXXXX.json)
trap 'rm -f "$baseline" "$snowplow" "$ckpt" "$trace_json" "$introspect" "$cov_live" "$tl_live" "$tl_fresh" "$tl_thompson" "$tl_pmm" "$tl_cov" "$cmp_base" "$cmp_policy" "$fleet_tl" "$fleet_cmp"; rm -rf "$store_dir"' EXIT
python3 - "$fleet_tl" <<'PY'
import json
import re
import subprocess
import sys
import urllib.request

timeline_path = sys.argv[1]
coord = subprocess.Popen(
    ["./build/examples/snowplow_cli", "fleet", "coordinator",
     "--port", "0", "--budget", "6000", "--seed", "5",
     "--policy", "static", "--timeline-out", timeline_path,
     "--drain-timeout-ms", "120000",
     "--status-port", "0", "--status-hold", "1"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

# Read until the coordinator is listening, launch the nodes, then keep
# reading until --status-hold: everything the fleet produced is frozen
# behind the status server by then.
status_port = None
fleet_port = None
drained = False
nodes = []
for line in coord.stdout:
    match = re.match(r"status server listening on port (\d+)", line)
    if match:
        status_port = int(match.group(1))
    match = re.match(r"fleet coordinator listening on port (\d+)", line)
    if match:
        fleet_port = int(match.group(1))
        for i in range(4):
            argv = ["./build/examples/snowplow_cli", "fleet", "node",
                    "--connect", f"127.0.0.1:{fleet_port}",
                    "--name", f"ci{i}"]
            if i == 0:
                argv += ["--abandon-first", "1"]
            nodes.append(subprocess.Popen(
                argv, stdout=subprocess.DEVNULL))
    drained |= line.startswith("fleet drained: yes")
    if line.startswith("status-hold:"):
        break
if fleet_port is None or status_port is None:
    sys.exit("fleet: missing listening-port lines")
if not drained:
    sys.exit("fleet: coordinator never drained the budget")
for i, node in enumerate(nodes):
    if node.wait(timeout=60) != 0:
        sys.exit(f"fleet: node ci{i} exited {node.returncode}")

def get(path):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{status_port}{path}",
            timeout=10) as response:
        return response.read().decode()

TYPES = {"int": int, "str": str, "list": list, "dict": dict,
         "float": (int, float), "bool": bool}

with open("ci/schemas/fleet_status.schema.json") as f:
    schema = json.load(f)

def check(obj, spec, where):
    for key, type_name in spec.items():
        if key not in obj:
            sys.exit(f"/status: {where} missing key {key!r}")
        value = obj[key]
        if not isinstance(value, TYPES[type_name]) or (
                type_name in ("int", "float")
                and isinstance(value, bool)):
            sys.exit(f"/status: {where}.{key} is not {type_name}")

status = json.loads(get("/status"))
check(status, schema["required"], "top level")
campaign = status["campaign"]
check(campaign, schema["campaign"], "campaign")
check(campaign["policy"], schema["policy"], "campaign.policy")
if campaign["type"] != "fleet":
    sys.exit(f"/status: campaign.type is {campaign['type']!r}")
if not campaign["drained"] or campaign["watermark"] != 6000:
    sys.exit(f"/status: fleet did not drain cleanly: {campaign}")
if campaign["nodes_seen"] < 4 or campaign["leases_reclaimed"] < 1:
    sys.exit("/status: abandoned lease was not observed/reclaimed: "
             f"{campaign}")
if campaign["edges"] <= 0 or campaign["corpus_size"] <= 0:
    sys.exit(f"/status: empty merged aggregate: {campaign}")

# The fleet's /coverage has the campaign's shape (stage 5's schema).
with open("ci/schemas/coverage.schema.json") as f:
    cov_schema = json.load(f)

def check_coverage(coverage):
    def shape(obj, spec, where):
        for key, type_name in spec.items():
            if key not in obj:
                sys.exit(f"/coverage: {where} missing key {key!r}")
            value = obj[key]
            if not isinstance(value, TYPES[type_name]) or (
                    type_name == "int" and isinstance(value, bool)):
                sys.exit(f"/coverage: {where}.{key} is not {type_name}")
    shape(coverage, cov_schema["required"], "top level")
    if coverage["enabled"] is not True:
        sys.exit("/coverage: not enabled")
    if len(coverage["frontier"]) > coverage["frontier_size"]:
        sys.exit("/coverage: more frontier entries than frontier_size")
    for i, entry in enumerate(coverage["frontier"]):
        shape(entry, cov_schema["frontier_entry"], f"frontier[{i}]")

coverage = json.loads(get("/coverage"))
check_coverage(coverage)
if coverage["execs"] < 6000 or coverage["blocks_hit"] <= 0:
    sys.exit(f"/coverage: implausible fleet summary: {coverage}")

metrics = get("/metrics")
section = None
required = []
for line in open("ci/schemas/metrics.required.txt"):
    line = line.strip()
    if line.startswith("["):
        section = line.strip("[]")
        continue
    if section == "fleet" and line and not line.startswith("#"):
        required.append(line)
if not required:
    sys.exit("metrics.required.txt: no [fleet] section")
for name in required:
    if not re.search(rf"^{re.escape(name)}(\{{| )", metrics, re.M):
        sys.exit(f"/metrics: missing required fleet metric {name}")

# Release the hold and let the coordinator exit.
coord.stdin.write("\n")
coord.stdin.close()
if coord.wait(timeout=60) != 0:
    sys.exit(f"fleet: coordinator exited {coord.returncode}")
print(f"fleet fabric: port {fleet_port}, {campaign['nodes_seen']} "
      f"nodes, {campaign['leases_granted']} leases "
      f"({campaign['leases_reclaimed']} reclaimed), "
      f"{campaign['edges']} merged edges, "
      f"{len(required)} fleet metrics present")
PY
./build/examples/sp_analysis compare BENCH_timeline.json "$fleet_tl" \
    --out "$fleet_cmp" || {
        echo "fleet: merged fleet timeline regressed vs the committed"
        echo "single-process baseline (BENCH_timeline.json)"
        exit 1; }
python3 - "$fleet_cmp" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
if report["verdict"] != "ok" or report["regressions"]:
    sys.exit(f"fleet compare: {report['verdict']}: "
             f"{report['regressions']}")
edges = report["coverage"]["final_edges"]
print(f"fleet compare: single-process {edges['a']} -> fleet "
      f"{edges['b']} final edges ({edges['verdict']})")
PY

# Stage 11: AddressSanitizer + UndefinedBehaviorSanitizer pass over the
# full ctest (a separate build tree, like stage 3's). halt_on_error turns
# every UBSan report into a failing suite instead of a logged warning.
cmake -B build-asan -S . -DSP_SANITIZE=address,undefined
cmake --build build-asan -j"$(nproc)"
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j"$(nproc)"

# Stage 12: compile-only check of the campaign benchmark. perfbench/
# is its own CMake package over src/ and bench/common.cc and pins
# engine seams (Scheduler, makeScheduler, the Localizer virtuals) and
# metric names; nothing else in this script builds it, so a refactor
# that breaks it would otherwise only surface when the benchmark runs.
cmake -B build-perfbench -S perfbench
cmake --build build-perfbench -j"$(nproc)" --target campaign_bench

echo "tier-1 + telemetry + perf + introspection + cartography + policy + timeline + fleet + sanitizer + perfbench-build smoke: OK"

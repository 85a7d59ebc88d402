#!/usr/bin/env python3
"""Campaign benchmark of record.

Builds the benchmark package (perfbench/CMakeLists.txt) against the
repository sources, checks the pinned model against its stored checksum,
runs one workload and prints its result as the last line of stdout:

    python3 perfbench/run.py --workload syz-w1 --seed 1 --seconds 35 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). `python3 perfbench/run.py --train` rebuilds
the pinned model deterministically and rewrites its checksum.
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODEL_DIR = HERE / "model"
SUMS = MODEL_DIR / "SHA256SUMS"
MODEL_FILES = ("pmm.ckpt", "pmm.threshold")
# Campaign streams per untraced run, one process each. The single-worker
# workloads run one per CPU of the 4-CPU host, so a run samples every
# CPU instead of the one the scheduler happened to pick; the others
# already spread their threads over the CPUs.
STREAMS = {"syz-w1": 4, "snowplow-sync-w1": 4, "snowplow-async-w2": 1,
           "fleet-3": 1}
WORKLOADS = tuple(STREAMS)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configure once, then let ninja bring the binary up to date."""
    out = build_dir()
    if not (out / "build.ninja").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    step = ["cmake", "--build", str(out), "--target", "campaign_bench",
            "-j", "3"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "campaign_bench"


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_model():
    if not SUMS.is_file():
        fail(f"missing {SUMS.relative_to(ROOT)}")
    expected = {}
    for line in SUMS.read_text().splitlines():
        if line.strip():
            hexsum, name = line.split()
            expected[name] = hexsum
    for name in MODEL_FILES:
        path = MODEL_DIR / name
        if not path.is_file() or digest(path) != expected.get(name):
            fail(f"pinned model file {name} is missing or fails its checksum")


def train(binary):
    MODEL_DIR.mkdir(exist_ok=True)
    if subprocess.run([str(binary), "train", "--out", str(MODEL_DIR)],
                      stdout=sys.stderr).returncode != 0:
        fail("training failed")
    SUMS.write_text("".join(f"{digest(MODEL_DIR / n)}  {n}\n"
                            for n in MODEL_FILES))


def run_processes(cmds):
    """Run the commands side by side; return each one's last stdout line
    as JSON. Every process is stopped and waited for on every path."""
    procs = []
    try:
        for cmd in cmds:
            procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                          text=True))
        deadline = time.monotonic() + RUN_TIMEOUT_S
        outputs = []
        for proc in procs:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                fail(f"campaign_bench exited with {proc.returncode}")
            outputs.append(out)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    results = []
    for out in outputs:
        try:
            results.append(json.loads(out.strip().splitlines()[-1]))
        except (IndexError, json.JSONDecodeError):
            fail("campaign_bench printed no result")
    return results


def end_to_end(reports, streams):
    """Merge the streams' campaigns into the end-to-end metrics.

    Per seed, the wall time is the median over every run of it in any
    stream. The streams run side by side, so the run's throughput is
    the per-campaign rate times the streams. Throughput is reported per
    reference duration, the median time of the host reference routine
    timed beside the campaigns: the shared host's speed drifts by tens
    of percent within minutes, and the ratio cancels that drift.
    """
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    walls, first = {}, {}
    for report in reports:
        for seed, wall, execs, edges, crashes, digest in report["campaigns"]:
            walls.setdefault(seed, []).append(wall)
            if seed not in first:
                first[seed] = (execs, edges, crashes, digest)
            elif report["deterministic"] and digest != first[seed][3]:
                # workers = 1 with the static policy repeats exactly.
                print(f"perfbench: seed {seed}: rerun diverged",
                      file=sys.stderr)
                failed += 1
    wall = sum(statistics.median(w) for w in walls.values()) / streams
    reference = statistics.median(
        s for r in reports for s in r["reference_s"])
    execs = sum(f[0] for f in first.values())
    edges = sum(f[1] for f in first.values())
    crashes = sum(f[2] for f in first.values())
    print(f"{'execs_per_s':32} {execs / wall:16.6g}  1/s\n"
          f"{'edges_per_s':32} {edges / wall:16.6g}  1/s\n"
          f"{'reference_ms':32} {1e3 * reference:16.6g}  ms", file=sys.stderr)
    metrics = {
        "execs_per_ref": (execs / wall * reference, "1/ref"),
        "edges_per_ref": (edges / wall * reference, "1/ref"),
        "final_edges": (edges / len(first), "count"),
        "final_crashes": (crashes / len(first), "count"),
        "setup_s": (statistics.median(
            s for r in reports for s in r["setup_s"]), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:16.6g}  {unit}", file=sys.stderr)
    print(f"{'error_ratio':32} {failed / attempted:16.6g}  ratio "
          f"({failed}/{attempted})", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--train", action="store_true",
                        help="rebuild the pinned model and its checksum")
    args = parser.parse_args()
    if not args.train and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in [1, 120]")

    # A terminated run still stops and waits for its processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    binary = build()
    if args.train:
        train(binary)
        return

    check_model()
    cmd = [str(binary), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--model", str(MODEL_DIR)]
    if args.trace:
        result = run_processes([cmd])[0]
    else:
        streams = STREAMS[args.workload]
        result = end_to_end(run_processes(
            [cmd + ["--stream", str(k), "--streams", str(streams)]
             for k in range(streams)]), streams)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result")
    if set(result["metrics"]) != declared_metrics(args.trace):
        fail("reported metrics differ from BENCHMARK.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

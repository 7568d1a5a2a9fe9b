#!/usr/bin/env python3
"""CubicleOS repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/CMakeLists.txt (the CubicleOS libraries from src/ plus
the harness in perfbench/harness/) as a Release tree with the lock-order
checker and sanitizers off, in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Then runs one workload (untraced single-client
workloads as concurrent instances, see instance_count) and prints, as
the last line of stdout, a JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The line before it is
the full record with provenance (git sha, build type, lockdep and
sanitizer flags, nproc, seed, op counts, each instance's figures);
records and span dumps are also kept under the build directory.

Workloads, metrics and the layer table are documented in
BENCHMARK.json and perfbench/layers.json. The benchmark's own tests:

    python3 -m unittest discover -s perfbench/tests
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def per_layer_metrics(record, declared):
    """Maps the harness's per-layer metrics onto the declared list.

    Call edges the list does not name are summed into calls.other_per_op;
    metrics a workload does not exercise (see layers.json) read 0.
    """
    got = {k: v["value"] for k, v in record["metrics"].items()}
    names = {m["name"] for m in declared}
    other = sum(v for k, v in got.items()
                if k.startswith("calls.") and k not in names)
    got["calls.other_per_op"] = got.get("calls.other_per_op", 0) + other
    return {m["name"]: {"value": got.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared}


def instance_count(workload, trace):
    """Harness processes that run an untraced single-client workload.

    Each vCPU of a shared host flips between a fast and a slow state
    (about 1.4x apart on a 4-vCPU VM) for seconds at a time, independently
    of the others, so one process measures whichever vCPUs it happened to
    get. min(4, nproc) concurrent instances, each its own deployment with
    one closed-loop client, sample every vCPU at once; their end-to-end
    metrics are averaged. mt-grant already runs one worker per vCPU, and
    a traced run counts work rather than timing it, so both use one.
    """
    if trace or workload == "mt-grant":
        return 1
    return max(1, min(4, os.cpu_count() or 1))


def run_instances(cmd, n, timeout):
    """Runs n copies of cmd at once; returns their JSON records.

    Every process is killed and reaped if one fails or time runs out.
    """
    deadline = time.monotonic() + timeout
    procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
             for _ in range(n)]
    try:
        outs = [p.communicate(
                    timeout=max(0.0, deadline - time.monotonic()))[0]
                for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    codes = [p.returncode for p in procs]
    if any(codes):
        raise RuntimeError(f"harness exited with {codes}")
    return [json.loads(o.strip().splitlines()[-1]) for o in outs]


def combine(records):
    """One record for concurrent instances: counts summed, metrics averaged."""
    record = dict(records[0])
    record["attempted"] = sum(r["attempted"] for r in records)
    record["failed"] = sum(r["failed"] for r in records)
    record["metrics"] = {
        name: {"value": sum(r["metrics"][name]["value"] for r in records)
                        / len(records), "unit": m["unit"]}
        for name, m in records[0]["metrics"].items()}
    record["instances"] = [
        {k: r[k] for k in ("attempted", "failed", "info", "metrics")}
        for r in records]
    return record


def end_to_end_metrics(record, declared):
    out = {}
    for m in declared:
        v = record["metrics"].get(m["name"])
        if v is None or not math.isfinite(v["value"]) or v["value"] <= 0:
            raise RuntimeError(f"end-to-end metric {m['name']} missing or "
                               f"not positive: {v}")
        out[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; choose from {workloads}")
        return 2
    if not args.seconds > 0 or args.seed < 0:
        log("--seconds must be positive and --seed non-negative")
        return 2

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    traces = os.path.join(out, "traces")
    records = os.path.join(out, "records")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(records, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.json")]
    try:
        record = combine(run_instances(
            cmd, instance_count(args.workload, args.trace),
            timeout=min(150, 30 + 3 * args.seconds)))
    except subprocess.TimeoutExpired:
        log("harness timed out")
        return 1
    except (OSError, RuntimeError, ValueError) as e:
        log(str(e))
        return 1
    record["provenance"]["git_sha"] = git_sha()

    try:
        if args.trace:
            metrics = per_layer_metrics(record, spec["per_layer"])
        else:
            metrics = end_to_end_metrics(record, spec["end_to_end"])
    except RuntimeError as e:
        log(str(e))
        return 1
    result = {
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(records, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

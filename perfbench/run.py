#!/usr/bin/env python3
"""Run one workload of the optrep benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the repository's libraries and the
benchmark binary from source (CMake, RelWithDebInfo) into the build directory
($CARGO_TARGET_DIR, default .bench_build), runs the workload, checks that its
metrics are exactly the ones BENCHMARK.json names with their units, and
prints the run's detail record followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and writes the run's spans to <build>/spans/<workload>.json. A per-layer
metric of a layer the workload does not exercise is reported as 0. Exits 0
only for a correct run; a failed build exits non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-mixed", "gossip-heal", "state-batch")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build the benchmark binary (a no-op when up to date)."""
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            # Leave no half-configured tree behind for the next run.
            cache = os.path.join(build_dir, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    b = subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "optrep_perfbench"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "optrep_perfbench")


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_dir, "perfbench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--source-rev", source_rev()]
    if args.trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        # One file per workload, the latest traced run's: spans are large.
        cmd += ["--spans-out", os.path.join(spans_dir, f"{args.workload}.json")]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"{args.workload} exited {run.returncode} without a result")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])

    # The metrics must be exactly the declared ones, each with its unit.
    got = result["metrics"]
    for name, m in got.items():
        if name not in units:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if m["unit"] != units[name]:
            fail(f"metric {name} has unit {m['unit']}, BENCHMARK.json says {units[name]}")
    missing = [n for n in units if n not in got]
    if args.trace == "0" and missing:
        fail(f"end-to-end metrics missing: {', '.join(missing)}")
    result["metrics"] = {n: got.get(n, {"value": 0, "unit": units[n]}) for n in units}

    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)

    print(json.dumps(detail))
    print(json.dumps(result))
    if run.returncode != 0 or not result["correct"]:
        print(f"perfbench: {args.workload} failed its checks: {detail.get('failures')}",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

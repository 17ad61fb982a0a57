#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench-<hash of this checkout's path> (the target
dir defaults to .bench_build; a relative one is taken from the checkout
root), so checkouts that share an absolute target dir never build each
other's sources; a build dir configured from another source dir is
configured afresh. The build is incremental and logs to stderr. The
workload's report goes to stdout; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics. The exit code is 0 only when the build
succeeded, every correctness check passed and the printed metrics match
BENCHMARK.json by name and unit.

--scale and --corrupt are for perfbench/selftest.py: --scale shrinks every
input, --corrupt 1 damages one released output so the gate must trip.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_PREFIX = "PERFBENCH_RESULT "
DEADLINE_S = 175.0


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def configured_source(build_dir):
    """The source dir an existing CMake cache was configured from, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures (when needed) and builds the perfbench target; returns
    its path."""
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    build_dir = os.path.join(ROOT, target_dir, "perfbench-" + tag)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = configured_source(build_dir)
    if (configured is None
            or os.path.realpath(configured) != os.path.realpath(HERE)):
        if configured is not None:
            log("build dir %s was configured from %s; reconfiguring"
                % (build_dir, configured))
            shutil.rmtree(build_dir, ignore_errors=True)
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        status = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if status.returncode:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    binary = build()
    if binary is None:
        return 1
    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--scale=%g" % args.scale,
               "--corrupt=%d" % args.corrupt]
    # A first run in a checkout spends most of its time building.
    budget = max(60.0, DEADLINE_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=budget, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %.0f s" % budget)
        return 1

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None:
        log("perfbench printed no result (exit %d)" % proc.returncode)
        return 1

    expected = expected_metrics(args.trace)
    printed = {name: row["unit"] for name, row in result["metrics"].items()}
    if printed != expected:
        log("metrics differ from BENCHMARK.json: printed %s, expected %s"
            % (sorted(printed.items()), sorted(expected.items())))
        return 1
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

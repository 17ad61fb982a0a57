#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

    python3 perfbench/selftest.py

Run it from the repository root. For every workload in BENCHMARK.json it
runs perfbench/run.py at a tiny input scale and checks that:

  * the untraced and the traced run exit 0, and their result lines carry
    exactly the end_to_end or per_layer metrics of BENCHMARK.json, by name
    and unit, each a finite number;
  * a run with one released output deliberately corrupted (a flipped window
    report count in stream-collect, a flipped record or estimate elsewhere)
    exits non-zero and reports failed > 0, i.e. a positive error ratio.

It also checks that the per-layer table of perfbench/METRICS.md (the one
place that says which workload drives each row and which end-to-end
metric it moves) lists exactly the per_layer metrics of BENCHMARK.json
with the same units, and that run.py fails without printing a result in
a directory that holds only BENCHMARK.json and perfbench/, even when
that copy shares an absolute CARGO_TARGET_DIR with this checkout's build.
Exits 0 when every check holds.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"
SECONDS = "1"


def run(args, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600, env=env)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def documented_per_layer_rows():
    """{name: unit} of the per-layer table in METRICS.md."""
    with open(os.path.join(HERE, "METRICS.md")) as f:
        text = f.read()
    section = text.split("## Per-layer metrics", 1)[1]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("| `") or len(cells) < 2:
            continue
        for name in re.findall(r"`([^`]+)`", cells[0]):
            rows[name] = cells[1]
    return rows


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "7", "--seconds", SECONDS,
                "--scale", SCALE]
        for trace in (0, 1):
            proc, result = run(base + ["--trace", str(trace)])
            label = "%s --trace %d" % (workload, trace)
            check(proc.returncode == 0 and result is not None
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  label + ": exits 0 with a correct result")
            if result is None:
                continue
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == expected[trace],
                  label + ": metric names and units match BENCHMARK.json")
            check(all(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"])
                      for v in result["metrics"].values()),
                  label + ": every metric value is a finite number")
        proc, result = run(base + ["--trace", "0", "--corrupt", "1"])
        check(proc.returncode != 0 and result is not None
              and result["failed"] > 0
              and result["failed"] / result["attempted"] > 0,
              workload + " --corrupt 1: the gate trips and error ratio > 0")

    check(documented_per_layer_rows() == expected[1],
          "METRICS.md documents exactly the per_layer metrics, same units")

    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                     ".bench_build"))
    bare = os.path.join(target_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    # The same absolute target dir as the build above: the copy must not
    # reuse that build.
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc, result = run(["--workload", "party-session", "--seed", "1",
                        "--seconds", SECONDS], cwd=bare, env=env)
    check(proc.returncode != 0 and result is None,
          "without the library sources run.py fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

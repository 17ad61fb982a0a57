#!/usr/bin/env python3
"""Alternated-pair perfbench gate: a head checkout against a base checkout.

    python3 tools/perf_gate.py BASE HEAD OUT

BASE and HEAD are two checkouts of this repository and OUT is the JSON
report to write (the nightly keeps it as BENCH_perfbench.json). For every
workload in HEAD's BENCHMARK.json the gate runs its command
(`python3 perfbench/run.py`) with `--trace 0 --seconds <run_seconds>` in
BASE and in HEAD over five seed pairs, alternating which side runs first so
that drift across a block of runs lands on both sides, and then one
`--trace 1` run in HEAD for the per-layer rows. The report holds every
end-to-end metric's samples, median and quartiles per side, and the traced
per-layer rows.

The exit code is non-zero when any run fails or reports an incorrect
result, or when a head median is worse than the base median by more than
both the metric's BENCHMARK.json bound (relative to the base median) and
3x the base interquartile range (FLAG). A head median worse by more than
the bound but not by more than 3x the base IQR, because that spread itself
exceeds the bound, is marked NOISY and listed under "unresolved": the
pairs can neither show nor rule out a regression there. It does not fail
the gate.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = (61, 62, 63, 64, 65)
IQR_FACTOR = 3.0


def log(message):
    print("perf_gate: " + message, file=sys.stderr, flush=True)


def commit_of(checkout):
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(checkout, command, workload, seed, seconds, trace):
    """One perfbench run; returns its result object, or None on failure."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if (proc.returncode != 0 or result is None or not result["correct"]
            or result["failed"] > 0):
        log("FAILED: %s seed %d trace %d in %s" % (workload, seed, trace,
                                                   checkout))
        return None
    return result


def summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "median": median, "q1": q1, "q3": q3}


def main():
    if len(sys.argv) != 4:
        print("usage: python3 tools/perf_gate.py BASE HEAD OUT",
              file=sys.stderr)
        return 2
    base, head, out = (os.path.abspath(a) for a in sys.argv[1:])
    with open(os.path.join(head, "BENCHMARK.json")) as f:
        spec = json.load(f)
    command, seconds = spec["command"], spec["run_seconds"]
    report = {"base": commit_of(base), "head": commit_of(head),
              "seeds": list(SEEDS), "run_seconds": seconds,
              "iqr_factor": IQR_FACTOR, "workloads": []}
    failed, flagged, unresolved = [], [], []

    for workload in [w["name"] for w in spec["workloads"]]:
        samples = {"base": [], "head": []}
        for i, seed in enumerate(SEEDS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                log("%s seed %d %s" % (workload, seed, side))
                result = run(base if side == "base" else head, command,
                             workload, seed, seconds, 0)
                if result is None:
                    failed.append("%s/%s/seed %d" % (workload, side, seed))
                else:
                    samples[side].append(result["metrics"])
        log("%s traced head" % workload)
        traced = run(head, command, workload, SEEDS[0], seconds, 1)
        if traced is None:
            failed.append("%s/head/trace" % workload)

        rows = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = {side: [m[name]["value"] for m in runs if name in m]
                     for side, runs in samples.items()}
            if any(len(values) < 2 for values in sides.values()):
                continue
            b, h = summary(sides["base"]), summary(sides["head"])
            worse = h["median"] - b["median"]
            if metric["better"] == "higher":
                worse = -worse
            past_bound = worse > metric["bound"] * abs(b["median"])
            flag = past_bound and worse > IQR_FACTOR * (b["q3"] - b["q1"])
            noisy = past_bound and not flag
            if flag:
                flagged.append("%s/%s" % (workload, name))
            elif noisy:
                unresolved.append("%s/%s" % (workload, name))
            rows.append({"name": name, "unit": metric["unit"],
                         "better": metric["better"], "bound": metric["bound"],
                         "base": b, "head": h, "flagged": flag,
                         "noisy": noisy,
                         "change": (h["median"] / b["median"] - 1.0
                                    if b["median"] else None)})
        per_layer = ([{"name": k, "unit": v["unit"], "value": v["value"]}
                      for k, v in traced["metrics"].items()]
                     if traced else [])
        report["workloads"].append({"name": workload, "end_to_end": rows,
                                    "per_layer": per_layer})

    report["failed_runs"], report["flagged"] = failed, flagged
    report["unresolved"] = unresolved
    report["ok"] = not failed and not flagged
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")

    print("%-24s %-16s %14s %12s %14s %12s %8s  %s" % (
        "workload", "metric", "base median", "base IQR", "head median",
        "head IQR", "change", "flag"))
    for w in report["workloads"]:
        for row in w["end_to_end"]:
            b, h = row["base"], row["head"]
            change = ("%+.1f%%" % (100 * row["change"])
                      if row["change"] is not None else "-")
            print("%-24s %-16s %14.6g %12.3g %14.6g %12.3g %8s  %s" % (
                w["name"], row["name"], b["median"], b["q3"] - b["q1"],
                h["median"], h["q3"] - h["q1"], change,
                "FLAG" if row["flagged"] else
                "NOISY" if row["noisy"] else ""))
    for what in failed:
        print("failed run: " + what)
    print("%s: %d flagged, %d noisy, %d failed run(s)" % (
        "ok" if report["ok"] else "FAIL", len(flagged), len(unresolved),
        len(failed)))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

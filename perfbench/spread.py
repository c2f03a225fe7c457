#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload calls-tcp --runs 10
    python3 perfbench/spread.py --runs 10 --save a.json   # declared workloads
    python3 perfbench/spread.py --workload all --runs 10 --against a.json

For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json. A spread above the bound marks the
metric unsteady; with --against, a median worse than the saved one by
more than the bound marks a regression. Exits 1 when either happens
(setup_s is exempt from the spread check, as its bound is for drift).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402
from run import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError("%s seed %d failed: %s" % (workload, seed, lines[-1]))
    steal = [float(l.split()[2].rstrip("%")) for l in lines
             if l.strip().startswith("host steal")]
    return {k: v["value"] for k, v in result["metrics"].items()}, steal


def worse_by(new, old, better):
    """Relative worsening of `new` against `old` (negative = better)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return -change if better == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save", help="write the medians to this JSON file")
    ap.add_argument("--against", help="compare medians with a --save file")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)

    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else (args.workload,))
    medians = {}
    bad = 0
    for w in names:
        values = {m["name"]: [] for m in metrics}
        steals = []
        for i in range(args.runs):
            got, steal = one_run(w, args.first_seed + i, seconds, 0)
            steals += steal
            for name in values:
                values[name].append(got[name])
        print("%s: %d runs of %d s, host steal %s" % (
            w, args.runs, seconds,
            "%.1f-%.1f%%" % (min(steals), max(steals)) if steals else "unknown"))
        print("  %-18s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        medians[w] = {}
        for m in metrics:
            v = values[m["name"]]
            q1, q2, q3 = stats.quartiles(v)
            sp = stats.spread(v) if q2 else 0.0
            flag = ""
            if m["name"] != "setup_s" and sp > m["bound"]:
                flag, bad = "UNSTEADY", bad + 1
            elif m["name"] != "setup_s" and sp > m["bound"] / 3:
                flag = "(over a third of the bound)"
            old = previous.get(w, {}).get(m["name"])
            if old is not None and worse_by(q2, old, m["better"]) > m["bound"]:
                flag, bad = flag + " REGRESSED vs %.6g" % old, bad + 1
            medians[w][m["name"]] = q2
            print("  %-18s %12.6g %12.6g %12.6g %8.4f %6.3f %s" %
                  (m["name"], q2, q1, q3, sp, m["bound"], flag))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Cross-PR bench comparator: flags throughput regressions.

Reads two bench-smoke artifacts (one JSON record per line, as written by
tier1.sh's DPS_BENCH_SMOKE stage) and compares the throughput of every
config of the watched benches. A config counts as regressed when its
current throughput falls more than --threshold below the baseline; any
regression makes the script exit nonzero so CI fails loudly.

Wall-clock loopback configs (fig6's real-TCP `dps/` and `sockets/`
series) are compared and printed but never fatal: on the shared 1-core
host even the raw-socket control series — which contains no DPS code at
all — swings up to +-40% between runs (EXPERIMENTS.md documents 8-200
MB/s at 1 kB), so a hard gate there measures the neighbours, not the
engine. The deterministic virtual-time series (`sim/` and everything in
fig15_lu) reproduce bit-stable medians and carry the gate.

Usage:
  scripts/bench_compare.py BENCH_pr3.json BENCH_pr5.json
  scripts/bench_compare.py old.json new.json --benches fig15_lu \
      --threshold 0.05
"""
import argparse
import json
import sys


def load(path):
    records = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                r = json.loads(line)
            except json.JSONDecodeError:
                continue  # tolerate stray non-JSON output in the artifact
            if "bench" in r and "config" in r and "throughput" in r:
                records[(r["bench"], r["config"])] = float(r["throughput"])
    return records


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--benches",
        default="fig15_lu,fig6_throughput,fig9_life",
        help="comma-separated bench names to compare (default: %(default)s)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="fractional throughput drop that counts as a regression "
        "(default: %(default)s)",
    )
    # shm/* is advisory because the futex-parked rings make every size a
    # scheduler-luck measurement on a single-core host: a 1 MB token dwarfs
    # the ring and forces producer/consumer lockstep (269-377 MB/s across
    # identical-binary runs, +-30%), and small sizes are no better —
    # back-to-back size=3000 runs of the same binary measured 160-295
    # tokens/s. A 10% gate on any of them only flakes. shm end to end is
    # guarded by perfbench's ring-1k-shm workload (BENCHMARK.json) instead.
    # fig9_life's leaf=* configs are the wall-clock naive/LUT kernel
    # microbench: real CPU time on a shared host, so cross-run deltas are
    # noise. The LUT win is gated in-binary by fig9_life --check-leaf
    # (>= 3x on multi-core hosts); only fig9's deterministic simulated
    # world=* series carry the comparator gate.
    ap.add_argument(
        "--advisory-prefixes",
        default="dps/,sockets/,shm/,leaf=",
        help="comma-separated config prefixes whose regressions are "
        "reported but not fatal (wall-clock loopback noise; default: "
        "%(default)s)",
    )
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    watched = set(args.benches.split(","))
    advisory = tuple(p for p in args.advisory_prefixes.split(",") if p)

    regressions = []
    compared = 0
    for key in sorted(base):
        bench, config = key
        if bench not in watched or key not in cur:
            continue
        compared += 1
        b, c = base[key], cur[key]
        delta = (c - b) / b if b > 0 else 0.0
        marker = ""
        if b > 0 and c < b * (1.0 - args.threshold):
            if config.startswith(advisory):
                marker = "  (noisy wall-clock config, not gated)"
            else:
                marker = "  <-- REGRESSION"
                regressions.append((bench, config, b, c, delta))
        print(f"{bench:20s} {config:28s} {b:10.3f} -> {c:10.3f} "
              f"({delta:+7.1%}){marker}")

    if compared == 0:
        print("bench_compare: no overlapping configs to compare", file=sys.stderr)
        return 1
    if regressions:
        print(
            f"bench_compare: {len(regressions)} config(s) regressed more "
            f"than {args.threshold:.0%} vs {args.baseline}",
            file=sys.stderr,
        )
        return 1
    print(f"bench_compare: {compared} configs within {args.threshold:.0%} "
          f"of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

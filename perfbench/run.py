#!/usr/bin/env python3
"""Wall-clock benchmark of the DPS engine: Fig. 6 rings and Table 2 calls.

    python3 perfbench/run.py --workload ring-1k-tcp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, tracing off

Builds perfbench_driver (and the engine from ../src) under
.bench_build/perfbench, runs one workload, checks its outputs, prints each
metric by name and unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits non-zero when any output was wrong, a flow account leaked or an
encode outgrew its buffer. See perfbench/README.md.
"""

import argparse
import csv
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")

# BENCHMARK.json declares the rings only: calls-tcp runs and checks the
# same way but is not steady enough on a shared host to gate on (README).
WORKLOADS = ("ring-1k-tcp", "ring-100k-tcp", "ring-1k-shm", "calls-tcp")

# name -> unit; BENCHMARK.json declares the same (test_stats.py checks it).
END_TO_END = {
    "setup_s": "s",
    "throughput_MBps": "MB/s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "cpu_us_per_op": "us",
    "peak_rss_MB": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "net.sockets.MBps": "MB/s",
    "net.fabric.MBps": "MB/s",
    "net.fabric.frames_per_batch": "count",
    "net.fabric.send_us_p50": "us",
    "net.fabric.rtt_us_p50": "us",
    "net.shm.doorbell_wakes_per_frame": "ratio",
    "net.shm.space_parks_per_frame": "ratio",
    "net.frames_per_op": "count",
    "net.wire_bytes_per_op": "B",
    "serial.encode_ns_per_op": "ns",
    "serial.decode_ns_per_op": "ns",
    "serial.pool_reuse_ratio": "ratio",
    "serial.encode_growths": "count",
    "core.inproc.MBps": "MB/s",
    "core.inproc.call_p50_ms": "ms",
    "core.dispatched_per_op": "count",
    "ladder.transport_share": "ratio",
    "gen.late_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# A call that overlaps a 100-ms interval in which other guests of the host
# took more than this share of the CPU time measured the neighbours, not
# the engine, and is left out of the latency and throughput figures.
STEAL_LIMIT = 0.05

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets cmake rebuild whatever changed."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def host_cpu_times():
    """The aggregate `cpu` line of /proc/stat, or None where there is none."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time a hypervisor gave to other guests (field 8, steal)
    between two host_cpu_times() readings; None when unknown."""
    if not before or not after or len(before) < 8:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    return deltas[7] / sum(deltas) if sum(deltas) > 0 else None


def run_driver(workload, seed, seconds, trace):
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (workload, seed, trace))
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", stem + ".json"]
    if trace:
        cmd += ["--spans", stem + ".spans.csv"]
    before = host_cpu_times()
    subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
    steal = steal_share(before, host_cpu_times())
    with open(stem + ".json") as f:
        raw = json.load(f)
    spans = read_spans(stem + ".spans.csv") if trace else {}
    return raw, spans, steal


def read_spans(path):
    """Span name -> list of (duration_ns, value)."""
    out = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            dur = int(row["end_ns"]) - int(row["start_ns"])
            out.setdefault(row["name"], []).append((dur, int(row["value"])))
    return out


# --- metrics ----------------------------------------------------------------

def is_ring(raw):
    return raw["workload"].startswith("ring-")


def kept_calls(run):
    """(latencies, payload bytes, number left out) of the verified calls
    that overlap no interval of host steal above STEAL_LIMIT. When fewer
    than a quarter of the calls qualify, the host was busy most of the run
    and the quarter that saw the least steal is kept."""
    spans = [(end - ms / 1e3, end)
             for end, ms in zip(run["call_end_s"], run["call_ms"])]
    keep = stats.least_stolen(stats.span_steal(run["host"], spans), STEAL_LIMIT)
    ms = [m for m, k in zip(run["call_ms"], keep) if k]
    payload = [b for b, k in zip(run["call_bytes"], keep) if k]
    return ms, payload, len(keep) - len(ms)


def throughput_mbps(run, ring):
    """Ring: median over calls of payload bytes per wall second of the call.
    Calls: verified subset bytes per wall second of the timed region."""
    if ring:
        ms, payload, _ = kept_calls(run)
        return stats.median([b / (t * 1e3) for b, t in zip(payload, ms)])
    return sum(run["call_bytes"]) / run["wall_s"] / 1e6


def us_per_op(run, raw):
    """Wall time per op: per ring block from the median call throughput,
    or the median latency of one service call."""
    if is_ring(raw):
        return raw["block_bytes"] / throughput_mbps(run, True)
    return stats.median(kept_calls(run)[0]) * 1e3


def tally(raw):
    """(attempted ops, failed ops, failure messages) over every engine run.
    A leaked flow account or an encode growth counts as a failed op."""
    attempted = failed = 0
    errors = []
    for name, run in raw["runs"].items():
        attempted += int(run["ops"])
        failed += int(run["failed_ops"]) + int(run["leaked_flow_accounts"])
        errors += ["%s: %s" % (name, e) for e in run["errors"]]
        if run["leaked_flow_accounts"]:
            errors.append("%s: %d flow accounts leaked"
                          % (name, run["leaked_flow_accounts"]))
    growths = int(raw["encode_growths_total"])
    if growths:
        failed += growths
        errors.append("%d encodes outgrew their buffers" % growths)
    return attempted, failed, errors


def setup_seconds(raw):
    """Median build time over the set-ups kept by the same steal rule."""
    setups = raw["setups"]
    shares = [steal / total if total > 0 else 0.0 for _, steal, total in setups]
    keep = stats.least_stolen(shares, STEAL_LIMIT)
    return stats.median([secs for (secs, _, _), k in zip(setups, keep) if k])


def end_to_end(raw):
    run = raw["runs"]["e2e"]
    lat, _, left_out = kept_calls(run)
    p, tail_ms = stats.windowed_tail(lat)
    attempted, failed, _ = tally(raw)
    m = {
        "setup_s": setup_seconds(raw),
        "throughput_MBps": throughput_mbps(run, is_ring(raw)),
        "call_p50_ms": stats.median(lat),
        "call_p99_ms": tail_ms,
        "cpu_us_per_op": run["cpu_s"] / run["ops"] * 1e6,
        "peak_rss_MB": raw["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
    }
    notes = ["%d calls, %d left out for host steal; call_p99_ms is the "
             "median p%g over %d windows"
             % (len(lat), left_out, p, max(1, len(lat) // 1000))]
    return m, notes


def per_layer(raw, spans):
    e2e, traced, inproc = (raw["runs"][k] for k in ("e2e", "e2e_traced", "inproc"))
    lad = raw["ladder"]
    ring = is_ring(raw)

    def span_median(name, per_value=False):
        rows = spans.get(name)
        if not rows:
            raise ValueError("no %s spans recorded" % name)
        return stats.median([d / v if per_value else d for d, v in rows])

    overhead = us_per_op(traced, raw) / us_per_op(e2e, raw) - 1.0
    ops = traced["ops"]
    return {
        "net.sockets.MBps": stats.median(lad["sockets_mbps"]),
        "net.fabric.MBps": stats.median(lad["fabric_mbps"]),
        "net.fabric.frames_per_batch": lad["fabric_frames"] / lad["fabric_batches"],
        "net.fabric.send_us_p50": span_median("fabric.send") / 1e3,
        "net.fabric.rtt_us_p50": stats.median(lad["rtt_us"]),
        "net.shm.doorbell_wakes_per_frame": lad["shm_doorbell_wakes"] / lad["shm_frames"],
        "net.shm.space_parks_per_frame": lad["shm_space_parks"] / lad["shm_frames"],
        "net.frames_per_op": traced["frames"] / ops,
        "net.wire_bytes_per_op": traced["wire_bytes"] / ops,
        "serial.encode_ns_per_op": span_median("serial.encode", per_value=True),
        "serial.decode_ns_per_op": span_median("serial.decode", per_value=True),
        "serial.pool_reuse_ratio": traced["pool_reuses"] / traced["pool_acquires"],
        "serial.encode_growths": raw["encode_growths_total"],
        "core.inproc.MBps": throughput_mbps(inproc, ring),
        "core.inproc.call_p50_ms": stats.median(kept_calls(inproc)[0]),
        "core.dispatched_per_op": traced["dispatched"] / ops,
        "ladder.transport_share": stats.transport_share(
            us_per_op(inproc, raw), us_per_op(e2e, raw)),
        "gen.late_p99_ms": stats.tail(traced["late_ms"], 99.0)[1],
        "trace.overhead_frac": overhead,
    }


def run_one(workload, seed, seconds, trace):
    raw, spans, steal = run_driver(workload, seed, seconds, trace)
    attempted, failed, errors = tally(raw)
    if trace:
        values, notes = per_layer(raw, spans), []
        if raw["spans_dropped"]:
            notes.append("%d spans dropped" % raw["spans_dropped"])
        units = PER_LAYER
    else:
        values, notes = end_to_end(raw)
        units = END_TO_END
    if steal is not None:
        # Time other guests took from this VM's vCPUs: runs with a large
        # share measure the neighbours as much as the engine.
        notes.append("host steal %.1f%% of CPU time" % (100 * steal))
    print("%s seed %d (%s)" % (workload, seed, "per-layer" if trace else "end-to-end"))
    for name, unit in units.items():
        print("  %-34s %14.6g %s" % (name, values[name], unit))
    for line in notes + errors:
        print("  " + line)
    correct = failed == 0 and not errors
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace)
            if len(names) > 1:
                print(json.dumps(results[name]), flush=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError, ArithmeticError) as e:
        log("perfbench: %s" % e)
        return 2
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, n): v for w, r in results.items()
                        for n, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Session benchmark driver: builds sessionbench, runs one workload, reports.

Usage (from the repository root):

    python3 sessionbench/run.py --workload tree_search --seed 1 --seconds 30 --trace 0

Builds the library and the benchmark program from source into .bench_build/
(CMake, Release), runs the program for one workload and turns its raw record
into metrics. With --trace 0 it reports the end-to-end metrics, measured with
tracing off; with --trace 1 it reports the per-layer metrics of a traced run.
A table with units goes to stdout first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when the program ran and every output check passed.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "sessionbench")
BINARY = os.path.join(BUILD_DIR, "sessionbench")

# An untraced run is split over this many processes, each timing its share
# of --seconds. Thread placement and wake-up cost differ from process to
# process, so timings are the median over the processes; set-up is timed in
# each of them.
PROCESSES = 6

# Message kinds whose per-session counts and virtual round-trip times are
# reported per layer.
KINDS = ["CALL", "FETCH", "WB_PREPARE", "WB_COMMIT", "INVALIDATE", "ALLOC_BATCH"]

# Benchmark span name -> per-layer metric (mean self time per session, µs).
SPAN_METRICS = {
    "session.begin": "session.begin_us",
    "session.call": "session.call_us",
    "session.alloc": "session.alloc_us",
    "session.local": "session.local_us",
    "session.end": "session.commit_us",
}


def fail(message):
    print(f"sessionbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds the program; returns True if it compiled."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "sessionbench", "-j", jobs])
        before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: " + log_path + ")")
        return before != os.path.getmtime(BINARY)


def run_program(cmd, deadline):
    """Runs sessionbench and returns the JSON record on its last stdout line."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("sessionbench did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("sessionbench exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def summed_counters(doc):
    """Sums every counter and gauge of World::metrics_json() over spaces."""
    totals = {}
    for space in doc.values():
        for section in ("counters", "gauges"):
            for name, value in space.get(section, {}).items():
                totals[name] = totals.get(name, 0) + value
    return totals


def histogram_delta(before, after, name):
    """(count, sum) of a histogram over the window, summed over spaces."""
    count = total = 0
    for space, doc in after.items():
        h1 = doc.get("histograms", {}).get(name)
        if h1 is None:
            continue
        h0 = before.get(space, {}).get("histograms", {}).get(name, {"count": 0, "sum": 0})
        count += h1["count"] - h0["count"]
        total += h1["sum"] - h0["sum"]
    return count, total


def span_self_times(path):
    """Per span name: total self time in µs (duration minus the union of the
    intervals its children cover)."""
    spans_by_ground = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans_by_ground.setdefault(s["ground"], []).append(s)
    totals = {}
    for spans in spans_by_ground.values():
        children = {}
        for s in spans:
            if s["parent"] >= 0:
                children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
        for i, s in enumerate(spans):
            covered = 0.0
            cursor = s["start_ns"]
            for start, end in sorted(children.get(i, [])):
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            own = (s["end_ns"] - s["start_ns"]) - covered
            totals[s["name"]] = totals.get(s["name"], 0.0) + own / 1000.0
    return totals


def end_to_end(records):
    """Timings are medians over the processes; cost-model figures and memory
    come from the one that ran the cost batch (the first)."""
    def median(key):
        return statistics.median(key(r) for r in records)

    cost = records[0]
    sessions = cost["cost_sessions"]
    return {
        "session_p50_us": (median(lambda r: r["session_p50_us"]), "us"),
        "sessions_per_s": (median(lambda r: r["committed"] / r["window_s"]), "1/s"),
        "virtual_ms_per_session": (cost["cost_virtual_ns"] / sessions / 1e6, "ms"),
        "wire_bytes_per_session": (cost["cost_wire_bytes"] / sessions, "bytes"),
        "setup_s": (median(lambda r: r["setup_s"]), "s"),
        "peak_rss_mb": (cost["peak_rss_mb"], "MB"),
    }


def per_layer(raw, spans_path):
    n = raw["committed"]  # sessions of every block, traced or not
    traced = raw["traced_committed"]
    if traced == 0:
        fail("the traced blocks committed no session")
    m0, m1 = raw["metrics_before"], raw["metrics_after"]
    c0, c1 = summed_counters(m0), summed_counters(m1)

    def delta(name):
        return c1.get(name, 0) - c0.get(name, 0)

    def per_session(name):
        return delta(name) / n

    net0, net1 = raw["net_before"], raw["net_after"]
    out = {}
    self_us = span_self_times(spans_path)
    for span, metric in SPAN_METRICS.items():
        out[metric] = (self_us.get(span, 0.0) / traced, "us")

    out["rpc.messages"] = ((net1["messages"] - net0["messages"]) / n, "count")
    for kind in KINDS:
        sent = net1["by_type"].get(kind, 0) - net0["by_type"].get(kind, 0)
        out["rpc.msgs." + kind] = (sent / n, "count")
    for kind in KINDS:
        count, total = histogram_delta(m0, m1, "rpc.roundtrip_ns{kind=%s}" % kind)
        out["rpc.roundtrip_virtual_us." + kind] = (total / count / 1000.0 if count else 0.0, "us")

    out["vm.read_faults"] = (per_session("cache.read_faults"), "count")
    out["vm.write_faults"] = (per_session("cache.write_faults"), "count")
    out["vm.fault_us"] = (raw["fault_us"], "us")
    out["swizzle.lookup_ns"] = (raw["lookup_ns"], "ns")
    out["swizzle.insert_ns"] = (raw["insert_ns"], "ns")
    out["cache.fetches"] = (per_session("cache.fetches"), "count")
    out["cache.objects_filled"] = (per_session("cache.objects_filled"), "count")
    hits = delta("cache.closure_prefetch_hits")
    misses = delta("cache.closure_prefetch_misses")
    out["cache.closure_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["closure.pack_us"] = (raw["pack_us"], "us")
    out["closure.objects_per_pack"] = (raw["objects_per_pack"], "count")
    out["graph.encode_us"] = (raw["encode_us"], "us")
    out["graph.decode_us"] = (raw["decode_us"], "us")
    out["graph.bytes"] = (raw["graph_bytes"], "bytes")
    out["commit.modified_bytes"] = (per_session("runtime.modified_bytes_shipped"), "bytes")
    out["commit.delta_bytes"] = (per_session("runtime.delta_bytes_shipped"), "bytes")
    out["commit.deltas_skipped"] = (per_session("runtime.deltas_skipped_by_epoch"), "count")
    out["mem.heap_alloc_ns"] = (raw["heap_alloc_ns"], "ns")
    out["net.mailbox_handoff_us.p50"] = (raw["mailbox_p50_us"], "us")
    out["net.mailbox_handoff_us.p99"] = (raw["mailbox_p99_us"], "us")
    out["concurrency.wb_conflicts"] = (per_session("runtime.wb_conflicts"), "count")
    out["concurrency.retries_per_commit"] = ((raw["attempts"] - n) / n, "count")
    out["concurrency.lock_ns"] = (raw["lock_ns"], "ns")
    count, total = histogram_delta(m0, m1, "concurrency.lock_wait_ns")
    out["concurrency.lock_wait_virtual_us"] = (total / count / 1000.0 if count else 0.0, "us")
    out["critical_path.network_frac"] = (raw["cp_network_frac"], "ratio")
    out["critical_path.execution_frac"] = (raw["cp_execution_frac"], "ratio")
    out["critical_path.lock_frac"] = (raw["cp_lock_frac"], "ratio")
    out["host.steal_frac"] = (raw["steal_frac"], "ratio")
    out["trace.overhead_frac"] = (raw["traced_p50_us"] / raw["untraced_p50_us"] - 1.0, "ratio")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    built = build()
    # A run exits within 180 s; the run that compiled the program gets the
    # first-run allowance.
    deadline = started + (880 if built else 170)

    common = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace)]
    spans_path = os.path.join(BUILD_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    if args.trace:
        records = [run_program(common + ["--seconds", str(args.seconds),
                                         "--spans", spans_path], deadline)]
    else:
        share = str(args.seconds / PROCESSES)
        records = [run_program(common + ["--seconds", share,
                                         "--cost-batch", "1" if i == 0 else "0"], deadline)
                   for i in range(PROCESSES)]
    raw = records[0]

    attempted = sum(int(r["attempted"]) + int(r["cost_sessions"]) for r in records)
    violations = sum(int(r["violations"]) for r in records)
    failed = sum(int(r["failed"]) for r in records) + violations
    committed = sum(int(r["committed"]) for r in records)
    correct = failed == 0 and attempted > 0
    metrics = per_layer(raw, spans_path) if args.trace else end_to_end(records)

    print("workload %s  seed %d  %s run, %d process(es): %d sessions, %d timed, "
          "%d failed, %d coherency violations"
          % (args.workload, args.seed, "traced" if args.trace else "untraced",
             len(records), attempted, committed, failed - violations, violations))
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g  %s" % (name, value, unit))
    if not args.trace:
        # Printed, not gated in BENCHMARK.json: on a shared host the tail
        # moves with outside interference more than a bound can absorb.
        for tail in ("session_p90_us", "session_p99_us"):
            print("  %-32s %14.6g  %s" % (tail, statistics.median(r[tail] for r in records), "us"))
        print("  %-32s %14.6g  %s" % ("failed_frac", failed / attempted, "ratio"))
        print("  %-32s %14s  %s" % ("session samples per process",
                                    ",".join(str(int(r["committed"])) for r in records),
                                    "count"))
        print("  %-32s %14.6g  %s" % ("host steal share of the window", statistics.median(
            r["steal_frac"] for r in records), "ratio"))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env bash
# Build and exercise the distributed-tracing pipeline end to end:
#
#   1. run the `obs`-labelled test suite (span-tree invariants under fault
#      injection),
#   2. run the three-space trace_demo with SRPC_TRACE=1 and validate the
#      merged Chrome trace-event JSON it writes — parses, every non-root
#      span's parent resolves, and every wire kind the run exercises has at
#      least one span,
#   3. run a traced bench figure and check its BENCH json carries the
#      per-kind p50/p95/p99 roundtrip latency block.
#
#   scripts/trace.sh            # default build dir ./build
#   SRPC_TRACE_OUT=/tmp/t scripts/trace.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build"
OUT="${SRPC_TRACE_OUT:-${ROOT}/trace-results}"

cmake -B "${BUILD}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j "$(nproc)" --target trace_test trace_demo fig4_methods

ctest --test-dir "${BUILD}" --output-on-failure -L obs

mkdir -p "${OUT}"
cd "${OUT}"

echo "=== trace_demo (SRPC_TRACE=1) ==="
SRPC_TRACE=1 "${BUILD}/examples/trace_demo"

echo "=== validating trace_demo.json ==="
python3 - <<'EOF'
import json, sys

with open("trace_demo.json") as f:
    doc = json.load(f)

events = doc["traceEvents"]
spans = [e for e in events if e["ph"] == "X"]
by_id = {e["args"]["span_id"]: e for e in spans}
if not spans:
    sys.exit("no spans in trace")

orphans = [e for e in spans
           if e["args"]["parent_span_id"] not in (0, *by_id)]
if orphans:
    sys.exit(f"{len(orphans)} orphaned spans, first: {orphans[0]['name']}")

roots = [e for e in spans if e["args"]["parent_span_id"] == 0]
names = " ".join(e["name"] for e in spans)
# The demo's three-space nested-call run exercises every wire kind below;
# each must appear as at least one serve-side span.
missing = [k for k in ("CALL", "FETCH", "ALLOC_BATCH", "DEREF", "INVALIDATE",
                       "WB_PREPARE", "WB_COMMIT")
           if f"serve {k}" not in names]
if missing:
    sys.exit(f"wire kinds with no span: {missing}")

procs = {e["args"]["name"] for e in events if e["ph"] == "M"}
print(f"OK: {len(spans)} spans across {sorted(procs)}, "
      f"{len(roots)} root(s), all parents resolve")
EOF

echo "=== traced bench figure (fig4, smoke size) ==="
SRPC_TRACE=1 SRPC_BENCH_NODES=511 "${BUILD}/bench/fig4_methods" > /dev/null

echo "=== validating BENCH_fig4_methods.json latency block ==="
python3 - <<'EOF'
import json, sys

with open("BENCH_fig4_methods.json") as f:
    doc = json.load(f)

latency = doc.get("latency_ns")
if not latency:
    sys.exit("BENCH json has no latency_ns block")
for kind, h in latency.items():
    for key in ("count", "p50", "p95", "p99"):
        if key not in h:
            sys.exit(f"latency_ns[{kind}] missing {key}")
print(f"OK: per-kind latency for {sorted(latency)}")
EOF

echo "trace pipeline OK; artifacts in ${OUT}"

#!/usr/bin/env bash
# Build and run the full benchmark suite (every binary in
# bench/CMakeLists.txt); every binary prints its paper table and drops a
# machine-readable BENCH_<name>.json into the output directory
# (bench-results/ by default). A failing bench does not stop the run; the
# script exits non-zero at the end and names each bench that failed.
#
#   scripts/bench.sh                 # all benches, full size
#   scripts/bench.sh fig7            # only binaries matching "fig7"
#   SRPC_BENCH_NODES=1023 scripts/bench.sh   # scaled-down trees
set -euo pipefail

FILTER="${1:-}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build"
OUT="${SRPC_BENCH_OUT:-${ROOT}/bench-results}"

# Every binary listed in SRPC_BENCHES in bench/CMakeLists.txt.
mapfile -t BENCHES < <(sed -n '/^set(SRPC_BENCHES/,/^)/s/^  \([a-z0-9_]*\)$/\1/p' \
  "${ROOT}/bench/CMakeLists.txt")
if [ "${#BENCHES[@]}" -eq 0 ]; then
  echo "no benches found in bench/CMakeLists.txt" >&2
  exit 1
fi

cmake -B "${BUILD}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j "$(nproc)" --target "${BENCHES[@]}"

mkdir -p "${OUT}"
cd "${OUT}"
# A failing bench does not stop the suite; the failures are named at the end.
FAILED=()
for b in "${BENCHES[@]}"; do
  if [ -n "${FILTER}" ] && [[ "${b}" != *"${FILTER}"* ]]; then continue; fi
  echo "=== ${b} ==="
  if ! "${BUILD}/bench/${b}"; then
    echo "=== ${b} FAILED ===" >&2
    FAILED+=("${b}")
  fi
done
"${ROOT}/scripts/bench_summary.sh" "${OUT}" || true
echo "results in ${OUT}:"
ls -1 "${OUT}"/BENCH_*.json 2>/dev/null || echo "  (no JSON emitted)"
if [ "${#FAILED[@]}" -gt 0 ]; then
  echo "failed benches: ${FAILED[*]}" >&2
  exit 1
fi

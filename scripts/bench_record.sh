#!/usr/bin/env bash
# Run the record-producing benches and append their run records to
# BENCH_service.json at the repo root (JSONL: one record per line, each
# with an ISO-8601 timestamp — see jrbench::appendRunRecord).
#
#   scripts/bench_record.sh [build-dir]
#
# The build dir defaults to ./build and must already be configured and
# built (scripts/tier1.sh does both).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

if [[ ! -d "$BUILD/bench" ]]; then
  echo "error: $BUILD/bench not found — build first (scripts/tier1.sh)" >&2
  exit 1
fi

export JROUTE_BENCH_RECORD="$PWD/BENCH_service.json"
echo "recording to $JROUTE_BENCH_RECORD"

"$BUILD/bench/bench_service_throughput" "${BENCH_PRODUCERS:-4}" "${BENCH_REPS:-3}" \
  --requests "${BENCH_REQUESTS:-10000}"
# Same workload with the jrcheck lock-order checker armed: the paired
# records in BENCH_service.json (kv "lockcheck" 0 vs 1) measure the
# checker's overhead, and the run doubles as a deadlock-freedom gate —
# the bench exits non-zero if the armed run reports any finding.
JROUTE_LOCKCHECK=1 \
  "$BUILD/bench/bench_service_throughput" "${BENCH_PRODUCERS:-4}" "${BENCH_REPS:-3}" \
  --requests "${BENCH_REQUESTS:-10000}"
# And with the jrprof profiler armed: the paired records (kv "prof" 0
# vs 1) are the EXPERIMENTS.md E20 overhead evidence (budget: <1%
# disarmed — the first record above — and <5% armed).
JROUTE_PROF=1 \
  "$BUILD/bench/bench_service_throughput" "${BENCH_PRODUCERS:-4}" "${BENCH_REPS:-3}" \
  --requests "${BENCH_REQUESTS:-10000}"
# Per-device bring-up records (ArchDb, Graph, PipTable, lookahead build
# seconds and peak RSS) over the whole family: EXPERIMENTS.md E1.
"$BUILD/bench/bench_e1_arch_inventory"
"$BUILD/bench/bench_e3_template_vs_maze"
"$BUILD/bench/bench_e6_greedy_vs_pathfinder"
"$BUILD/bench/bench_e18_lookahead"

# jrload mixed-workload record: throughput, span shares and the
# SLO-tagged p50/p99 of the session mix (EXPERIMENTS.md E19).
if [[ -x "$BUILD/examples/jrload" ]]; then
  "$BUILD/examples/jrload" --device "${JRLOAD_DEVICE:-XCV300}" \
    --sessions 50 --requests "${JRLOAD_REQUESTS:-20000}" \
    --slo "latency_us=5000,target=0.999,burn=8"
else
  echo "bench_record: $BUILD/examples/jrload not built; skipping jrload records"
fi

echo "done: $(wc -l < "$JROUTE_BENCH_RECORD") record(s) in BENCH_service.json"

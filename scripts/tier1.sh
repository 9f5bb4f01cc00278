#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the jrplan
# workload-lint gate (the anomaly smoke script must lint clean, a
# malformed script must fail), then a bench smoke that appends run
# records to BENCH_service.json and re-validates the JSONL, then a
# 10^5-request jrload smoke, then a forced-anomaly smoke that
# schema-checks a flight-recorder dump, then a lockcheck-armed pass
# (JROUTE_LOCKCHECK=1) over the service and lockcheck tests asserting an
# empty potential-deadlock report, then a ThreadSanitizer pass over the
# concurrent routing service and the telemetry subsystem with seeded
# schedule perturbation (JROUTE_LOCKCHECK=perturb), then an ASan+UBSan
# pass over the service, DRC analyzer, model-verifier, and telemetry
# tests, then a telemetry-compiled-out build (-DJROUTE_NO_TELEMETRY) to
# prove the zero-overhead configuration still builds and passes.
#
#   scripts/tier1.sh [jobs]
#
# The sanitizer and no-telemetry builds live in build-tsan/, build-asan/,
# and build-notelem/ so they never pollute the regular build tree; the
# sanitizer passes run only the concurrency-bearing tests (the rest of
# the suite is single-threaded and already covered by the first pass).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "== tier 1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "== tier 1: lock-order gate (jrcheck armed over service tests) =="
# JROUTE_LOCKCHECK=1 arms the run-time lock-order checker in every test
# process and installs an exit hook that fails the process on any
# finding — so a lock inversion anywhere in the service/queue/obs
# protocols fails tier 1 here even though no deadlock fired.
JROUTE_LOCKCHECK=1 ctest --test-dir build --output-on-failure -j "$JOBS" \
  -R 'Service|Lockcheck|Prof'

echo
echo "== tier 1: static model verification (jrverify over every device) =="
# The model verifier's exit code is its finding count: any architecture,
# graph, template-library, or slot-table inconsistency on any shipped
# device fails tier 1 here, before a router ever runs on the broken model.
build/examples/jrverify

echo
echo "== tier 1: jrplan workload lint gate =="
# The static linter must pass the documented anomaly-smoke script (its
# deliberate same-session double-claim is a warning, not an error), and
# must fail a malformed workload with a non-zero exit before it ever
# reaches an engine.
build/examples/jrplan lint scripts/anomaly_smoke.jr
printf 'auto 1 1 NO_SUCH_WIRE 2 2 S0F1\nunroute 9 9 S1_YQ\n' \
  > build/plan-bad.jr
if build/examples/jrplan lint build/plan-bad.jr >/dev/null; then
  echo "jrplan: malformed workload script did not fail the lint" >&2
  exit 1
fi
echo "jrplan lint gate OK (clean smoke accepted, malformed rejected)"

echo
echo "== tier 1: jrsh help / README sync =="
scripts/check_jrsh_help.sh build

echo
echo "== tier 1: bench smoke + run record =="
# Every verified build leaves a record trail: the cheap bench configuration
# appends one JSONL line per mode to BENCH_service.json, and the RFC 8259
# validator in tests/obs_test.cpp then re-reads the whole file, so a
# malformed record fails the build that wrote it.
BENCH_PRODUCERS="${BENCH_PRODUCERS:-2}" BENCH_REPS="${BENCH_REPS:-1}" \
  scripts/bench_record.sh build
JROUTE_BENCH_JSONL="$PWD/BENCH_service.json" \
  ctest --test-dir build --output-on-failure -R 'ObsBenchRecord'

echo
echo "== tier 1: jrload mixed-workload smoke + SLO record =="
# A malformed --slo spec must fail fast with a parse error (exit 2), not
# silently measure against a default objective.
if build/examples/jrload --slo "bogus" >/dev/null 2>&1; then
  echo "jrload: malformed --slo spec did not fail" >&2
  exit 1
fi
# 10^5 mixed requests (p2p / fanout / bus / unroute / reconnect) across
# 100 concurrent sessions on the XCV1000, with a live SLO objective and
# the jrprof profiler armed (JROUTE_PROF=1): the run doubles as the
# profiler smoke — the top-contenders report must be non-empty, its JSON
# dump must parse, and the documented root of the lock hierarchy
# (service.fabric) must appear in it. The SLO-tagged p50/p99 record
# appends to BENCH_service.json and the JSONL validator then re-reads
# the whole file including it.
# Lint the exact seeded stream the run below will replay, before it
# costs a 10^5-request execution: the stream generator is deterministic,
# so jrplan vets the very same requests jrload is about to submit.
build/examples/jrplan stream --device XCV1000 --sessions 100 \
  --requests "${JRLOAD_REQUESTS:-100000}"
PROF_JSON=build/jrload-prof.json
JROUTE_BENCH_RECORD="$PWD/BENCH_service.json" JROUTE_PROF=1 \
  build/examples/jrload --device XCV1000 --sessions 100 \
  --requests "${JRLOAD_REQUESTS:-100000}" \
  --slo "latency_us=5000,target=0.999,burn=8" \
  --prof-json "$PROF_JSON"
if [[ ! -s "$PROF_JSON" ]]; then
  echo "jrload prof smoke: expected profiler JSON at $PROF_JSON" >&2
  exit 1
fi
if command -v python3 >/dev/null; then
  python3 - "$PROF_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
locks = d["prof"]["locks"]
assert locks, "prof report: empty top-contenders lock list"
names = [l["name"] for l in locks]
assert "service.fabric" in names, f"prof report: service.fabric missing from {names}"
print(f"prof smoke OK: {len(locks)} lock(s) profiled, service.fabric present")
EOF
else
  grep -q '"service.fabric"' "$PROF_JSON"
  echo "prof smoke OK (python3 absent; grep-only check)"
fi
JROUTE_BENCH_JSONL="$PWD/BENCH_service.json" \
  ctest --test-dir build --output-on-failure -R 'ObsBenchRecord'

echo
echo "== tier 1: anomaly flight-recorder smoke =="
# One synthetic contention through jrsh must dump a self-contained JSON
# bundle (scripts/anomaly_smoke.jr documents the scenario). The gtest
# suite validates bundle contents in-process; this pass proves the same
# thing end to end through the shell binary and an external JSON parser.
rm -rf build/flightrec-smoke && mkdir -p build/flightrec-smoke
build/examples/jrsh scripts/anomaly_smoke.jr >/dev/null
BUNDLE=build/flightrec-smoke/flightrec-1-contention.json
if [[ ! -f "$BUNDLE" ]]; then
  echo "anomaly smoke: expected bundle at $BUNDLE" >&2
  exit 1
fi
if command -v python3 >/dev/null; then
  python3 -m json.tool "$BUNDLE" >/dev/null
fi
grep -q '"kind":"contention"' "$BUNDLE"
grep -q '"events":\[' "$BUNDLE"
grep -q '"metrics":{' "$BUNDLE"
echo "anomaly bundle OK: $BUNDLE"

echo
echo "== tier 1: ThreadSanitizer pass (routing service + telemetry) =="
cmake -B build-tsan -S . -DJROUTE_TSAN=ON -DJROUTE_BUILD_BENCH=OFF \
  -DJROUTE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "$JOBS" --target jr_tests
# Perturb mode: jrcheck injects seeded yields/sleeps at instrumented
# lock points, so TSAN explores interleavings the host scheduler would
# never produce. Any failure is replayable from the printed seed.
JROUTE_LOCKCHECK=perturb JROUTE_LOCKCHECK_SEED=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'Service|Obs|Lookahead|Lockcheck|Prof|Plan'

echo
echo "== tier 1: ASan+UBSan pass (service + DRC analyzer + telemetry) =="
cmake -B build-asan -S . -DJROUTE_ASAN=ON -DJROUTE_UBSAN=ON \
  -DJROUTE_BUILD_BENCH=OFF -DJROUTE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j "$JOBS" --target jr_tests
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'Service|Drc|Obs|Verify|Lookahead|Lockcheck|Prof|Plan'

echo
echo "== tier 1: telemetry-compiled-out build (JROUTE_NO_TELEMETRY) =="
cmake -B build-notelem -S . -DJROUTE_NO_TELEMETRY=ON \
  -DJROUTE_BUILD_BENCH=OFF -DJROUTE_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-notelem -j "$JOBS" --target jr_tests
ctest --test-dir build-notelem --output-on-failure -j "$JOBS" \
  -R 'Service|Drc|Obs|Verify|Lookahead|Lockcheck|Prof|Plan'

echo
echo "== tier 1: lint =="
scripts/lint.sh "$JOBS"

echo
echo "== tier 1: bench regression sentinel (non-fatal) =="
# Warn-level only: compares the newest record per bench/mode group in
# BENCH_service.json against the median of its recent predecessors and
# prints anything slower than the threshold. Perf noise must not make
# the build red, so the sentinel's exit code is ignored by design.
scripts/bench_regress.sh || true

echo
echo "tier 1: OK"

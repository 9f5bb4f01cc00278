#!/usr/bin/env bash
# Bench regression sentinel: compares the newest record of every
# configuration group in BENCH_service.json against the median of up to
# three prior records of the same group, and prints a warn line for any
# throughput drop or p99 latency rise beyond the threshold (default
# 20%). A group is (bench, mode) plus every perf-relevant config field
# present in the record — producers, requests, workload, device, armed
# checkers, build mode — so an armed run is never compared against a
# disarmed one, nor a 10^4-request workload against the old 42-request
# one (which lacks the "workload" field entirely).
#
# Device bring-up records (bench e1_bringup) group by device and warn
# when graph_s, pip_table_s, lookahead_s or peak_rss_mb rises beyond the
# same threshold. Records of retired engine configurations (certified
# planning, certify 1; batch linger, linger_us > 0) are skipped; records
# without those keys compare as the default configuration.
#
#   scripts/bench_regress.sh [jsonl-file]
#
# Warn-level by design: benchmarks on shared CI hosts are noisy, so the
# sentinel always exits 0 and leaves the red/green decision to a human
# reading the report. tier1.sh runs it (non-fatally) after the bench
# smoke has appended fresh records.
set -euo pipefail
cd "$(dirname "$0")/.."

JSONL="${1:-BENCH_service.json}"
THRESHOLD_PCT="${BENCH_REGRESS_THRESHOLD:-20}"

if [[ ! -f "$JSONL" ]]; then
  echo "bench_regress: $JSONL not found; nothing to compare"
  exit 0
fi
if ! command -v python3 >/dev/null; then
  echo "bench_regress: python3 not installed; skipping"
  exit 0
fi

python3 - "$JSONL" "$THRESHOLD_PCT" <<'EOF'
import json
import sys
from statistics import median

path, threshold = sys.argv[1], float(sys.argv[2])

# Fields that define a comparable configuration. Anything not listed
# (timestamps, measured results) must not split groups.
KEY_FIELDS = [
    "bench", "mode", "workload", "device", "producers", "requests",
    "sessions", "slots", "threads", "plan_threads", "seed", "batch",
    "drc_paranoid", "lockcheck", "prof", "telemetry", "slo_enabled",
]
# Bring-up seconds and peak RSS: lower is better, compared per device.
BRINGUP_FIELDS = ["graph_s", "pip_table_s", "lookahead_s", "peak_rss_mb"]

def retired(rec):
    """Certified planning and batch linger are gone from the engine; their
    old records have no successor to compare against."""
    return rec.get("certify", 0) == 1 or rec.get("linger_us", 0) > 0

groups = {}
skipped = 0
with open(path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if rec.get("bench") == "e1_bringup":
            key = (("bench", "e1_bringup"), ("device", rec.get("device")))
        elif "bench" in rec and "req_per_sec" in rec and not retired(rec):
            key = tuple((k, rec.get(k)) for k in KEY_FIELDS)
        else:
            skipped += 1
            continue
        groups.setdefault(key, []).append(rec)

def p99_of(rec):
    for field in ("p99_ms", "hist_p99_us"):
        if field in rec:
            return field, float(rec[field])
    return None, None

warnings = 0
compared = 0

def warn_rise(field, base, new, n, label):
    """Warn when a lower-is-better figure rose beyond the threshold."""
    global warnings
    if base <= 0:
        return
    rise = 100.0 * (new - base) / base
    if rise > threshold:
        warnings += 1
        print(f"WARN: {field} +{rise:.1f}% "
              f"({base:.3f} -> {new:.3f}, median of {n} prior) [{label}]")

# Sort by stringified key: tuples mixing None and values don't compare.
for key, recs in sorted(groups.items(), key=lambda kv: str(kv[0])):
    if len(recs) < 2:
        continue
    newest, prior = recs[-1], recs[-4:-1]
    compared += 1
    label = " ".join(f"{k}={v}" for k, v in key if v is not None)

    if newest["bench"] == "e1_bringup":
        for field in BRINGUP_FIELDS:
            base = [float(r[field]) for r in prior if field in r]
            if field in newest and base:
                warn_rise(field, median(base), float(newest[field]),
                          len(base), label)
        continue

    base_rps = median(float(r["req_per_sec"]) for r in prior)
    new_rps = float(newest["req_per_sec"])
    if base_rps > 0:
        drop = 100.0 * (base_rps - new_rps) / base_rps
        if drop > threshold:
            warnings += 1
            print(f"WARN: throughput -{drop:.1f}% "
                  f"({base_rps:.0f} -> {new_rps:.0f} req/s, "
                  f"median of {len(prior)} prior) [{label}]")

    field, new_p99 = p99_of(newest)
    if field is not None:
        prior_p99 = [p99_of(r)[1] for r in prior if p99_of(r)[0] == field]
        if prior_p99:
            warn_rise(field, median(prior_p99), new_p99, len(prior_p99),
                      label)

note = f", {skipped} record(s) skipped" if skipped else ""
if warnings:
    print(f"bench_regress: {warnings} warning(s) over {compared} "
          f"comparable group(s) at >{threshold:.0f}%{note}")
else:
    print(f"bench_regress: no regressions beyond {threshold:.0f}% in "
          f"{compared} comparable group(s){note}")
EOF
exit 0

#!/usr/bin/env bash
# Perf-trajectory harness: runs one acceptance/ablation bench per subsystem
# area and snapshots every JSON measurement line it prints into
# BENCH_<area>.json at the repo root, so the measured trajectory of the
# repo is versioned alongside the code that produced it.
#
# Areas (bench binaries):
#   core       bench_perf_layout        shuffle hot path (DESIGN.md §11)
#   faults     bench_ablation_faults    fault-injection ablation
#   reuse      bench_ablation_reuse     cross-job artifact reuse
#   resilience bench_ablation_resilience service-level resilience
#   obs        bench_obs_overhead       observability overhead
#   skew       bench_ablation_skew      skew matrix + salting (DESIGN.md §12)
#   store      bench_ablation_store     packed-store batch depth (DESIGN.md §13)
#   service    bench_service            multi-tenant job service (DESIGN.md §14)
#   recovery   bench_recovery           crash recovery / replay (DESIGN.md §15)
#
# Usage: scripts/bench_trajectory.sh [options] [area...]
#   --build-dir DIR   bench binaries live in DIR/bench (default: build)
#   --out-dir DIR     write BENCH_<area>.json there instead of the repo
#                     root (use a scratch dir to check without churning
#                     the committed snapshots)
#   --check           enforce the per-area wall-clock budget: exit nonzero
#                     if an area's summed wall_ms exceeds its budget.
#                     Budgets are pinned below with generous headroom for
#                     noisy CI hosts, and have no overrides. A bench
#                     exiting nonzero (failed acceptance check) always
#                     fails the run.
# With no area arguments, all areas run.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build
OUT_DIR=.
CHECK=0
AREAS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD="$2"; shift 2 ;;
    --out-dir) OUT_DIR="$2"; shift 2 ;;
    --check) CHECK=1; shift ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) AREAS+=("$1"); shift ;;
  esac
done
[ ${#AREAS[@]} -eq 0 ] && AREAS=(core faults reuse resilience obs skew store service recovery)

bench_for() {
  case "$1" in
    core) echo bench_perf_layout ;;
    faults) echo bench_ablation_faults ;;
    reuse) echo bench_ablation_reuse ;;
    resilience) echo bench_ablation_resilience ;;
    obs) echo bench_obs_overhead ;;
    skew) echo bench_ablation_skew ;;
    store) echo bench_ablation_store ;;
    service) echo bench_service ;;
    recovery) echo bench_recovery ;;
    *) echo "unknown area: $1" >&2; return 1 ;;
  esac
}

# Pinned wall-clock budgets (ms, per area, summed over the bench's
# measurement lines). Pinned at roughly 5x the values observed on the
# 1-core reference container, so they trip on real regressions (an
# accidental O(n^2), a lost fast path), not on host noise.
budget_for() {
  case "$1" in
    core) echo 4000 ;;
    faults) echo 5000 ;;
    reuse) echo 20000 ;;
    resilience) echo 4000 ;;
    obs) echo 10000 ;;
    skew) echo 15000 ;;
    store) echo 8000 ;;
    service) echo 20000 ;;
    recovery) echo 3000 ;;
  esac
}

FAIL=0
for area in "${AREAS[@]}"; do
  bin="$BUILD/bench/$(bench_for "$area")"
  out="$OUT_DIR/BENCH_${area}.json"
  raw="$(mktemp)"
  rc=0
  "$bin" --benchmark_list_tests=true > "$raw" 2>/dev/null || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "bench_trajectory: $area: $bin exited $rc (acceptance failure)" >&2
    FAIL=1
  fi
  budget="$(budget_for "$area")"
  AREA="$area" RAW="$raw" OUT="$out" BUDGET="$budget" CHECK="$CHECK" \
    python3 - <<'EOF' || FAIL=1
import json, os, sys

area, raw, out = os.environ["AREA"], os.environ["RAW"], os.environ["OUT"]
budget, check = float(os.environ["BUDGET"]), os.environ["CHECK"] == "1"

measurements = []
with open(raw) as f:
    for line in f:
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "bench" in obj:
            measurements.append(obj)

total_wall_ms = sum(m["wall_ms"] for m in measurements if "wall_ms" in m)
snapshot = {
    "area": area,
    "budget_wall_ms": budget,
    "total_wall_ms": round(total_wall_ms, 3),
    "measurements": measurements,
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=1)
    f.write("\n")

status = "ok" if total_wall_ms <= budget else "OVER BUDGET"
print(f"bench_trajectory: {area}: {len(measurements)} measurements, "
      f"{total_wall_ms:.0f}ms / budget {budget:.0f}ms ({status}) -> {out}")
if check and total_wall_ms > budget:
    sys.exit(1)
EOF
  rm -f "$raw"
done

if [ "$FAIL" -ne 0 ]; then
  echo "bench_trajectory: FAILED" >&2
  exit 1
fi
echo "bench_trajectory: OK"

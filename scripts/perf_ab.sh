#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark (perfbench/, BENCHMARK.json)
# between two git revisions.
#
#   scripts/perf_ab.sh [options] PARENT [CHANGE]
#
# Checks out PARENT and CHANGE (default HEAD) as detached `git worktree`s
# under a scratch directory, builds each with perfbench/run.py, then runs N
# pairs per workload and seed. Pair i runs both sides back to back and
# alternates which side goes first, so slow drifts of the host (hypervisor
# steal comes and goes over minutes) hit both sides alike. It prints, per
# metric of BENCHMARK.json (the per-layer ones only under --trace 1): each
# side's median and quartiles, how many pairs the change won (by the
# metric's "better" direction), the median `proc.steal_share` of the runs,
# and each side's failed ops and incorrect runs. Raw results stay in the
# scratch directory.
#
# With --cells it times bench cells instead: the named measurements of the
# bench binaries (the "bench" field of their JSON wall lines, e.g.
# fig11f_synthetic/l=100B/repart, printed by build/bench/bench_fig11f_synthetic).
# Each side builds the benches it needs with CMake in its worktree, and the
# pairs run per bench at --threads 1 and nproc. Per cell and thread count it
# prints each side's wall_ms median and quartiles and the pairs the change
# won, and per bench whether every run printed the same simulated table
# (all but the wall lines).
#
# Options:
#   --pairs N          pairs per workload and seed, or per cell (default 10)
#   --workloads A,B    perfbench workloads (default: all of BENCHMARK.json)
#   --seeds S,T        seeds (default 1,7777)
#   --seconds S        perfbench --seconds (default 10)
#   --trace 0|1        perfbench --trace (default 0)
#   --cells C,D        time these bench cells instead of the workloads
#   --scratch DIR      scratch directory (default: a fresh mktemp -d)
#   --keep             keep the worktrees (they are removed on exit)
#   --help             print this help
#
# The script never edits perfbench/ or BENCHMARK.json; it only runs them.
set -euo pipefail

usage() { sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//'; }

PAIRS=10
WORKLOADS=""
SEEDS="1,7777"
SECONDS_ARG=10
TRACE=0
CELLS=""
SCRATCH=""
KEEP=0
REVS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --help|-h) usage; exit 0 ;;
    --pairs) PAIRS="$2"; shift 2 ;;
    --workloads) WORKLOADS="$2"; shift 2 ;;
    --seeds) SEEDS="$2"; shift 2 ;;
    --seconds) SECONDS_ARG="$2"; shift 2 ;;
    --trace) TRACE="$2"; shift 2 ;;
    --cells) CELLS="$2"; shift 2 ;;
    --scratch) SCRATCH="$2"; shift 2 ;;
    --keep) KEEP=1; shift ;;
    -*) echo "perf_ab: unknown option $1" >&2; usage >&2; exit 2 ;;
    *) REVS+=("$1"); shift ;;
  esac
done
if [[ ${#REVS[@]} -lt 1 || ${#REVS[@]} -gt 2 ]]; then
  usage >&2
  exit 2
fi

REPO="$(git rev-parse --show-toplevel)"
PARENT_SHA="$(git -C "$REPO" rev-parse --verify "${REVS[0]}^{commit}")"
CHANGE_SHA="$(git -C "$REPO" rev-parse --verify "${REVS[1]:-HEAD}^{commit}")"
SCRATCH="${SCRATCH:-$(mktemp -d -t perf_ab.XXXXXX)}"
mkdir -p "$SCRATCH/results"
if [[ -z "$WORKLOADS" ]]; then
  WORKLOADS="$(python3 -c 'import json,sys
print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$REPO/BENCHMARK.json")"
fi

cleanup() {
  if [[ $KEEP -eq 0 ]]; then
    for side in parent change; do
      if [[ -d "$SCRATCH/$side" ]]; then
        git -C "$REPO" worktree remove --force "$SCRATCH/$side" || true
      fi
    done
  fi
}
trap cleanup EXIT

# A unit is what one set of pairs measures: "WORKLOAD-sSEED", or
# "bench_FIGURE-tTHREADS" under --cells. run_side SIDE UNIT OUT runs one side
# of one pair of a unit.
UNITS=()
if [[ -n "$CELLS" ]]; then
  # The benches the cells come from: bench_<figure> for cell <figure>/...
  BENCHES="$(tr ',' '\n' <<< "$CELLS" | cut -d/ -f1 | sort -u |
             sed 's/^/bench_/' | tr '\n' ' ')"
  for t in $(printf '%s\n' 1 "$(nproc)" | sort -un); do
    for b in $BENCHES; do UNITS+=("$b-t$t"); done
  done
  build_side() {
    cmake -S "$SCRATCH/$1" -B "$SCRATCH/$1/build" \
      -DCMAKE_BUILD_TYPE=Release > /dev/null
    # shellcheck disable=SC2086  # BENCHES is a word list.
    cmake --build "$SCRATCH/$1/build" -j"$(nproc)" --target $BENCHES \
      > /dev/null
  }
  run_side() {
    "$SCRATCH/$1/build/bench/${2%-t*}" --threads="${2##*-t}" \
      --benchmark_list_tests=true > "$3" 2> /dev/null
  }
else
  IFS=, read -r -a WL <<< "$WORKLOADS"
  IFS=, read -r -a SD <<< "$SEEDS"
  for w in "${WL[@]}"; do
    for s in "${SD[@]}"; do UNITS+=("$w-s$s"); done
  done
  build_side() {
    # A one-second run builds the tree and checks that it runs at all.
    (cd "$SCRATCH/$1" &&
     python3 perfbench/run.py --workload store_join --seed 1 --seconds 1 \
       --trace 0 > /dev/null)
  }
  run_side() {
    (cd "$SCRATCH/$1" &&
     python3 perfbench/run.py --workload "${2%-s*}" --seed "${2##*-s}" \
       --seconds "$SECONDS_ARG" --trace "$TRACE" 2> /dev/null) > "$3"
  }
fi

for side in parent change; do
  sha="$PARENT_SHA"
  [[ $side == change ]] && sha="$CHANGE_SHA"
  if [[ ! -d "$SCRATCH/$side" ]]; then
    git -C "$REPO" worktree add --detach "$SCRATCH/$side" "$sha" >&2
  fi
  echo "perf_ab: building $side ($sha)" >&2
  build_side "$side"
done

run_pair_side() {  # run_pair_side SIDE UNIT PAIR
  local out="$SCRATCH/results/$2-p$3-$1.txt"
  run_side "$1" "$2" "$out" || echo "perf_ab: $1 run failed ($out)" >&2
}
for u in "${UNITS[@]}"; do
  for ((p = 0; p < PAIRS; p++)); do
    echo "perf_ab: $u pair $((p + 1))/$PAIRS" >&2
    if ((p % 2 == 0)); then
      run_pair_side parent "$u" "$p"; run_pair_side change "$u" "$p"
    else
      run_pair_side change "$u" "$p"; run_pair_side parent "$u" "$p"
    fi
  done
done

UNIT_LIST="$(IFS=,; echo "${UNITS[*]}")"
python3 - "$REPO/BENCHMARK.json" "$SCRATCH/results" "$UNIT_LIST" "$CELLS" \
  "$PAIRS" "$PARENT_SHA" "$CHANGE_SHA" <<'EOF'
import json, os, statistics, sys

bench, results, units, cells, pairs, parent, change = sys.argv[1:]
bench = json.load(open(bench))
metrics = bench["end_to_end"] + bench["per_layer"]
cells = cells.split(",") if cells else []
pairs = int(pairs)

def load_workload(path):
    """(metric values by name, the lines to print above the unit's table)
    of one perfbench run: the end-to-end metrics from the JSON result line,
    the per-layer ones from the `metric NAME VALUE UNIT` lines."""
    with open(path) as f:
        lines = f.read().splitlines()
    values = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "metric":
            values[parts[1]] = float(parts[2])
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}  # A failed run prints no result line.
    for k, v in result.get("metrics", {}).items():
        values[k] = v["value"]
    # A run without a result line counts as one failed, incorrect op.
    values["ops.attempted"] = result.get("attempted", 1)
    values["ops.failed"] = result.get("failed", 1)
    values["ops.incorrect_runs"] = 0 if result.get("correct") else 1
    return values

def load_cells(path):
    """(wall_ms by cell, plus the output without its wall lines under the
    key "table") of one bench run."""
    values, table = {}, []
    with open(path) as f:
        for line in f:
            if '"wall_ms"' not in line:
                table.append(line)
                continue
            m = json.loads(line)
            values[m.get("bench")] = m["wall_ms"]
    values["table"] = "".join(table)
    return values

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

print(f"parent {parent}\nchange {change}")
for u in units.split(","):
    runs = {side: [(load_cells if cells else load_workload)(
                       os.path.join(results, f"{u}-p{p}-{side}.txt"))
                   for p in range(pairs)]
            for side in ("parent", "change")}
    if cells:
        b, t = u.rsplit("-t", 1)
        same = len({v["table"] for side in runs for v in runs[side]}) == 1
        print(f"\n{b} threads {t}: {pairs} pairs, simulated table "
              f"{'identical in every run' if same else 'DIFFERS'}")
        rows = [(c, True) for c in cells if "bench_" + c.split("/")[0] == b]
    else:
        w, s = u.rsplit("-s", 1)
        steals = [v["proc.steal_share"] for side in runs for v in runs[side]
                  if "proc.steal_share" in v]
        steal = statistics.median(steals) if steals else float("nan")
        print(f"\n{w} seed {s}: {pairs} pairs, median steal {steal:.4f}")
        for side in runs:
            total = lambda k: int(sum(v[k] for v in runs[side]))
            print(f"  {side}: {total('ops.failed')}/{total('ops.attempted')} "
                  f"ops failed, {total('ops.incorrect_runs')} runs incorrect")
        rows = [(m["name"], m["better"] == "lower") for m in metrics]
    print(f"  {'metric':<40} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'delta':>8} {'wins':>6}")
    for name, lower in rows:
        a = [v.get(name) for v in runs["parent"]]
        b = [v.get(name) for v in runs["change"]]
        if all(x is None for x in a + b):
            continue  # Untraced runs report no per-layer metrics,
                      # traced ones no end-to-end metrics.
        if any(x is None for x in a + b):
            print(f"  {name:<40} missing in some run")
            continue
        if a == b:
            print(f"  {name:<40} identical in every pair ({a[0]!r})")
            continue
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        qa, qb = quartiles(a), quartiles(b)
        delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        fa = "/".join(f"{x:.4g}" for x in qa)
        fb = "/".join(f"{x:.4g}" for x in qb)
        print(f"  {name:<40} {fa:>30} {fb:>30} {delta:>+8.1%} "
              f"{wins:>3}/{pairs}")
EOF

#!/usr/bin/env bash
# Tier-1 verification for the EFind reproduction repo:
#   1. configure + build everything,
#   2. full ctest suite,
#   3. the fault-injection suite alone (ctest -L faults) — includes the
#      faults_tsan_smoke ThreadSanitizer binary when the toolchain
#      supports -fsanitize=thread,
#   4. the failure-aware acceptance bench (exits nonzero unless the
#      index-locality plan rides out index-host outages within 2x with
#      byte-identical output),
#   5. the observability suite alone (ctest -L obs) plus an end-to-end
#      bench trace: run a bench with --trace-out under the fault matrix
#      and validate the produced Chrome trace with scripts/trace_lint.py,
#   6. the obs overhead bench (exits nonzero if a detached session is
#      slower than an attached one, i.e. tracing is no longer free when
#      off),
#   7. the cross-job reuse suite alone (ctest -L reuse) — includes the
#      reuse_tsan_smoke ThreadSanitizer binary and the reuse trace lint —
#      and the reuse acceptance bench (exits nonzero unless a warm store
#      serves the follow-up job's shuffle, a cold store is bit-identical
#      to no store, and Q9 stays a miss),
#   8. the service-level resilience acceptance bench (exits nonzero unless
#      hedging cuts the injected slow-replica tail excess vs the same seed
#      unhedged and corruption injection yields zero undetected
#      mismatches, outputs byte-identical throughout). The resilience
#      tests themselves (resilience_determinism_test,
#      resilience_tsan_smoke, resilience_trace_lint) ride in the
#      `faults` leg above,
#   9. the skew leg (DESIGN.md §12): the skew suite alone (ctest -L skew,
#      includes the skew trace lint) and the bench_ablation_skew winner
#      matrix (exits nonzero unless salted re-partitioning beats plain
#      re-partitioning by >= 25% simulated makespan on the skewed
#      scenarios and matches it exactly on the benign ones),
#  10. the packed-store leg (DESIGN.md §13): the store suite alone
#      (ctest -L store, includes the Elias-Fano / packed-store /
#      accessor-fingerprint tests and the store_tsan_smoke binary) and
#      the bench_ablation_store acceptance bench (exits nonzero unless
#      batch depth >= 16 delivers >= 2x the simulated lookup throughput
#      of depth 1 with byte-identical output at every depth and across
#      thread counts),
#  11. the engine perf leg (DESIGN.md §6, §11): ctest -L perf runs the
#      map-task pins (job_runner_test, record_batch_test, perf_smoke's
#      ASan/TSan binaries), the arena/batch and boundary suites, the
#      strand tests (job_runner_test's NodeStatelessPhasesRunTasks-
#      Concurrently and NodeStatePhasesKeepPerNodeStrands), and the
#      engine's threads=1 == threads=N contract (determinism_test, incl.
#      FewerNodesThanThreadsMatchAcrossThreadCounts and the task-local
#      statistics tests DeterminismStatsTest.ShadowFedStatisticsMatch-
#      AcrossThreadCounts and StatisticsRunDoesNotSerializeANodesTasks;
#      thread_pool_test, incl.
#      ResolveThreadCountTest.MalformedEnvironmentFallsBackToHardware;
#      engine_tsan_smoke, pool_tsan_smoke, and knn_tsan_smoke, which runs
#      spatial kNN lookups from concurrent map tasks) side by side; then the
#      bench_perf_layout acceptance
#      bench (exits nonzero unless the fig11a repartition leg matches its
#      pinned output digest and simulated seconds, keeps >= 10 shuffled
#      records per heap allocation, and sees no shuffle checksum
#      mismatch), and the
#      perf-trajectory budget check (scripts/bench_trajectory.sh --check
#      exits nonzero if any area blows its pinned wall-clock budget; the
#      committed BENCH_<area>.json snapshots are not rewritten here),
#  12. the multi-tenant job-service leg (DESIGN.md §14): the service suite
#      alone (ctest -L service — multi-tenant determinism under the fault
#      matrix, admission-control units, cross-tenant reuse attribution,
#      and the service trace lint) and the
#      bench_service acceptance bench (exits nonzero unless fair-share
#      holds Jain >= 0.9 over per-tenant mean slowdowns, beats FIFO's p99
#      slowdown on the same arrival seed, passes a lone job through
#      byte-identically at the direct run's sim_seconds, and surfaces
#      cross-tenant reuse hits).
#  13. the crash-safety leg (DESIGN.md §15): the crash suite alone
#      (ctest -L crash — the durable-layer units and the fork-the-child
#      crash-injection matrix, armed in-process by SetCrashConfig, over
#      the store.*, reuse.wal and service.wal commit sites × kill /
#      torn-write mode) and the bench_recovery acceptance bench (exits
#      nonzero unless a crashed service stream replays with zero lost
#      admitted jobs, every planted torn file is detected, and the summed
#      recovery replay stays under its pinned wall-clock budget), plus the
#      recovery trace lint.
#  14. the memory-safety leg: the whole suite rebuilt under AddressSanitizer
#      + UndefinedBehaviorSanitizer (-DEFIND_SANITIZE=address,undefined, in
#      <build-dir>-asan; UB aborts the test). ThreadSanitizer binaries are
#      skipped there — they run in the default build above.
#  15. the bench-harness leg: the bench flag suite alone (ctest -L bench —
#      bench_options_test: every flag spelling parses to its field, the
#      config echo is pinned, malformed or out-of-range values exit with
#      code 2, and README.md's flag rows match the knob table).
#  16. the statistics leg: the Table-1 statistics suite alone (ctest -L
#      stats — the per-task collector's unit tests, the skew-detector and
#      FM-sketch units, and stats_golden_test, which pins every collected
#      statistic and the plan chosen from it, as hex floats, for small
#      tweets / LOG / Synthetic / fault-matrix / packed-store runs at
#      threads 1 and 4).
#  17. the lookup leg: the lookup suite alone (ctest -L lookup, 86 tests
#      with the TSan smokes — stages_test, which pins both lookup stages'
#      drivers, their shared flush and the one lookup charger as hex
#      simulated times; the store-side batch contract in packed_store_test,
#      store_accessor_test and store_tsan_smoke; the failover charger in
#      fault_model_test; and strategy_property_test).
#  18. the adaptive leg: the Algorithm 1 suite alone (ctest -L adaptive —
#      adaptive_test, including the pinned Fig. 10b tail re-plan;
#      batch_boundary_test's pinned LOG re-plans; and ledger_test, which
#      checks that every run's job summaries sum to its simulated seconds,
#      with one `job` span per summary, fixed plan or adaptive).
# Usage: scripts/verify.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j"$(nproc)"

(cd "$BUILD" && ctest --output-on-failure -j"$(nproc)")
(cd "$BUILD" && ctest --output-on-failure -L faults)

"$BUILD"/bench/bench_ablation_faults --benchmark_list_tests=true \
  | grep -E '"(acceptance|speculation)"' || true
"$BUILD"/bench/bench_ablation_faults --benchmark_list_tests=true \
  > /dev/null

(cd "$BUILD" && ctest --output-on-failure -L obs)
if command -v python3 > /dev/null; then
  "$BUILD"/bench/bench_ablation_faults --benchmark_list_tests=true \
    --trace-out="$BUILD"/ablation_faults_trace.json \
    --report="$BUILD"/ablation_faults_report.json > /dev/null
  python3 scripts/trace_lint.py "$BUILD"/ablation_faults_trace.json \
    --require-span map_task \
    --require-span lookup_batch \
    --require-any-instant task_fault,lookup_failover,speculation_trigger
fi

"$BUILD"/bench/bench_obs_overhead --benchmark_list_tests=true > /dev/null

(cd "$BUILD" && ctest --output-on-failure -L reuse)
"$BUILD"/bench/bench_ablation_reuse --benchmark_list_tests=true \
  | grep -E '"(ablation_reuse/acceptance|ablation_reuse/optimized)"' || true
"$BUILD"/bench/bench_ablation_reuse --benchmark_list_tests=true > /dev/null
"$BUILD"/bench/bench_ablation_reuse --benchmark_list_tests=true \
  --no-reuse > /dev/null

"$BUILD"/bench/bench_ablation_resilience \
  | grep -E '"ablation_resilience/(hedging|integrity|acceptance)"' || true
"$BUILD"/bench/bench_ablation_resilience > /dev/null

(cd "$BUILD" && ctest --output-on-failure -L skew)
"$BUILD"/bench/bench_ablation_skew --benchmark_list_tests=true \
  | grep -E '"ablation_skew/(check|zipf1.2(\+faults)?/summary)"' || true
"$BUILD"/bench/bench_ablation_skew --benchmark_list_tests=true > /dev/null

(cd "$BUILD" && ctest --output-on-failure -L store)
"$BUILD"/bench/bench_ablation_store --benchmark_list_tests=true \
  | grep -E '"ablation_store/(check|depth(16|64)/summary)"' || true
"$BUILD"/bench/bench_ablation_store --benchmark_list_tests=true > /dev/null

(cd "$BUILD" && ctest --output-on-failure -L service)
"$BUILD"/bench/bench_service --benchmark_list_tests=true \
  | grep -E '"service/(check|(mixed|flood)/(fifo|fair)/summary)"' || true
"$BUILD"/bench/bench_service --benchmark_list_tests=true > /dev/null

(cd "$BUILD" && ctest --output-on-failure -L perf)
"$BUILD"/bench/bench_perf_layout --benchmark_list_tests=true \
  | grep -E '"perf_layout/(layout|acceptance)"' || true
"$BUILD"/bench/bench_perf_layout --benchmark_list_tests=true > /dev/null
TRAJ_DIR="$(mktemp -d)"
scripts/bench_trajectory.sh --build-dir "$BUILD" --out-dir "$TRAJ_DIR" --check
rm -rf "$TRAJ_DIR"

(cd "$BUILD" && ctest --output-on-failure -L crash)
"$BUILD"/bench/bench_recovery --benchmark_list_tests=true \
  | grep -E '"recovery/(check|replay|durable)"' || true
"$BUILD"/bench/bench_recovery --benchmark_list_tests=true > /dev/null
if command -v python3 > /dev/null; then
  "$BUILD"/bench/bench_recovery --benchmark_list_tests=true \
    --trace-out="$BUILD"/recovery_trace.json > /dev/null
  python3 scripts/trace_lint.py "$BUILD"/recovery_trace.json \
    --require-span recovery_replay \
    --require-instant torn_file_detected \
    --require-instant backlog_requeued
fi

cmake -B "$BUILD-asan" -S . -DEFIND_SANITIZE=address,undefined
cmake --build "$BUILD-asan" -j"$(nproc)"
(cd "$BUILD-asan" && ctest --output-on-failure -j"$(nproc)")

(cd "$BUILD" && ctest --output-on-failure -L bench)

(cd "$BUILD" && ctest --output-on-failure -L stats)

(cd "$BUILD" && ctest --output-on-failure -L lookup)

(cd "$BUILD" && ctest --output-on-failure -L adaptive)

echo "verify: OK"

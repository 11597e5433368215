// Property sweep: for any workload shape — key-domain skew, record size,
// map-only or map+reduce, any seed — all four fixed strategies, the static
// optimizer, and the adaptive runtime must compute identical results, and
// the counters must respect basic conservation laws.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "efind/accessors/accessors.h"
#include "efind/efind_job_runner.h"
#include "reuse/fingerprint.h"
#include "reuse/materialized_store.h"
#include "store/packed_store.h"
#include "tests/test_util.h"

namespace efind {
namespace {

using testing_util::Sorted;
using testing_util::ToyWorld;

// (key_domain, value_bytes, with_reduce, seed)
using Params = std::tuple<int, int, bool, int>;

class StrategyEquivalenceTest : public ::testing::TestWithParam<Params> {};

TEST_P(StrategyEquivalenceTest, AllExecutionModesAgree) {
  const auto [key_domain, value_bytes, with_reduce, seed] = GetParam();
  ToyWorld world(/*num_keys=*/key_domain,
                 static_cast<uint64_t>(value_bytes));
  auto input = world.MakeInput(24, 40, key_domain,
                               static_cast<uint64_t>(seed));
  IndexJobConf conf = world.MakeJoinJob(with_reduce);
  ClusterConfig config;
  EFindJobRunner runner(config);

  auto base = runner.RunWithStrategy(conf, input, Strategy::kBaseline);
  const auto expected = Sorted(base.CollectRecords());
  ASSERT_FALSE(expected.empty());

  for (Strategy s : {Strategy::kLookupCache, Strategy::kRepartition,
                     Strategy::kIndexLocality}) {
    auto result = runner.RunWithStrategy(conf, input, s);
    EXPECT_EQ(Sorted(result.CollectRecords()), expected) << ToString(s);
    // Conservation: never more lookups than baseline performed.
    EXPECT_LE(result.counters.Get("efind.h0.idx0.lookups"),
              base.counters.Get("efind.h0.idx0.lookups"))
        << ToString(s);
    // Timing is positive and bounded by a sane envelope.
    EXPECT_GT(result.sim_seconds, 0.0);
    EXPECT_LT(result.sim_seconds, base.sim_seconds * 50);
  }

  CollectedStats stats = runner.CollectStatistics(conf, input);
  auto optimized =
      runner.RunWithPlan(conf, input, runner.PlanFromStats(conf, stats),
                         &stats);
  EXPECT_EQ(Sorted(optimized.CollectRecords()), expected) << "optimized";

  auto dynamic = runner.RunDynamic(conf, input);
  EXPECT_EQ(Sorted(dynamic.CollectRecords()), expected) << "dynamic";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StrategyEquivalenceTest,
    ::testing::Values(
        // Heavy duplication, small values.
        Params{20, 30, false, 1}, Params{20, 30, true, 2},
        // Moderate duplication, bigger values.
        Params{200, 500, false, 3}, Params{200, 500, true, 4},
        // Nearly distinct keys (Theta ~ 1).
        Params{5000, 100, true, 5},
        // Single hot key (extreme skew: one reduce group).
        Params{1, 50, true, 6},
        // Different seeds on the same shape.
        Params{200, 500, true, 7}, Params{200, 500, true, 8}));

// Per-strategy timing sanity on a duplication-heavy shape: cache and
// repart must not be slower than baseline by more than the overhead of an
// extra job, regardless of the seed.
class StrategyTimingTest : public ::testing::TestWithParam<int> {};

TEST_P(StrategyTimingTest, OptimizationsNeverCatastrophic) {
  const int seed = GetParam();
  ToyWorld world(60, 200);
  auto input = world.MakeInput(48, 100, 60, static_cast<uint64_t>(seed));
  IndexJobConf conf = world.MakeJoinJob(true);
  ClusterConfig config;
  EFindJobRunner runner(config);
  const double base =
      runner.RunWithStrategy(conf, input, Strategy::kBaseline).sim_seconds;
  const double cache =
      runner.RunWithStrategy(conf, input, Strategy::kLookupCache)
          .sim_seconds;
  const double repart =
      runner.RunWithStrategy(conf, input, Strategy::kRepartition)
          .sim_seconds;
  // 60 hot keys, 4800 records: both optimizations must win here.
  EXPECT_LT(cache, base);
  EXPECT_LT(repart, base);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyTimingTest,
                         ::testing::Range(1, 6));

// Fault isolation of the statistics pipeline: the counters feeding the
// Table-1 estimates (N_ik, S_ik, S_iv, T_j, Theta, R) are collected from
// the clean data path, so injected host faults, failover and speculation
// must leave them bit-identical — only the separate availability channel
// (avail_excess / down_share / failover_share) may move. This is what makes
// re-optimization under faults trustworthy.
class StatsFaultInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(StatsFaultInvarianceTest, CleanEstimatesIdenticalUnderFaults) {
  const int seed = GetParam();
  ToyWorld world(150);
  auto input = world.MakeInput(24, 40, 150, static_cast<uint64_t>(seed));
  IndexJobConf conf = world.MakeJoinJob(true);

  ClusterConfig clean;
  ClusterConfig faulted;
  faulted.task_failure_rate = 0.2;
  faulted.straggler_rate = 0.1;
  faulted.speculative_execution = true;
  faulted.host_downtimes.push_back({3});
  faulted.host_downtimes.push_back({7});
  faulted.degraded_hosts.push_back(5);

  for (Strategy s : {Strategy::kBaseline, Strategy::kLookupCache,
                     Strategy::kRepartition, Strategy::kIndexLocality}) {
    auto h = EFindJobRunner(clean).RunWithStrategy(conf, input, s);
    auto f = EFindJobRunner(faulted).RunWithStrategy(conf, input, s);
    ASSERT_FALSE(h.stats.head.empty());
    const IndexStats& hi = h.stats.head[0].index[0];
    const IndexStats& fi = f.stats.head[0].index[0];
    EXPECT_EQ(hi.nik, fi.nik) << ToString(s);
    EXPECT_EQ(hi.sik, fi.sik) << ToString(s);
    EXPECT_EQ(hi.siv, fi.siv) << ToString(s);
    EXPECT_EQ(hi.tj, fi.tj) << ToString(s);
    EXPECT_EQ(hi.theta, fi.theta) << ToString(s);
    EXPECT_EQ(hi.miss_ratio, fi.miss_ratio) << ToString(s);
    EXPECT_EQ(h.stats.head[0].n1, f.stats.head[0].n1) << ToString(s);
    EXPECT_EQ(h.stats.head[0].spre, f.stats.head[0].spre) << ToString(s);
    // The clean run reports zero availability excess; the faulted run
    // reports it on the separate channel (remote strategies hit the two
    // whole-run-down hosts; index locality may dodge them via placement).
    EXPECT_EQ(hi.avail_excess, 0.0) << ToString(s);
    EXPECT_EQ(hi.down_share, 0.0) << ToString(s);
    if (s == Strategy::kBaseline) {
      EXPECT_GT(fi.avail_excess, 0.0);
      EXPECT_GT(fi.down_share, 0.0);
    }
    // Lookup counters (data-plane) match exactly.
    EXPECT_EQ(f.counters.Get("efind.h0.idx0.lookups"),
              h.counters.Get("efind.h0.idx0.lookups"))
        << ToString(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsFaultInvarianceTest,
                         ::testing::Range(1, 5));

// With faults disabled, the fault seed is inert: the adaptive runtime must
// pick the same plan and the same simulated time for any seed value.
class FaultSeedInertTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultSeedInertTest, DynamicPlanUnchangedByFaultSeed) {
  const int seed = GetParam();
  ToyWorld world(60);
  auto input = world.MakeInput(48, 60, 60);
  IndexJobConf conf = world.MakeJoinJob(true);

  ClusterConfig reference_config;  // fault_seed = 1, all faults off.
  auto reference = EFindJobRunner(reference_config).RunDynamic(conf, input);

  ClusterConfig config;
  config.fault_seed = static_cast<uint64_t>(seed) * 7919 + 17;
  auto run = EFindJobRunner(config).RunDynamic(conf, input);
  EXPECT_EQ(run.plan.ToString(), reference.plan.ToString());
  EXPECT_EQ(run.sim_seconds, reference.sim_seconds);
  EXPECT_EQ(run.replanned, reference.replanned);
  EXPECT_EQ(Sorted(run.CollectRecords()),
            Sorted(reference.CollectRecords()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSeedInertTest, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Artifact-fingerprint canonicalization (DESIGN.md §9): the fingerprint must
// be *invariant* under every plan rewriting Properties 1-4 permit (they do
// not change the shuffle's output) and *distinct* under anything that can
// change artifact content or reuse safety.

/// Three independent indices, one key each per record (the §3.5 shape).
class TriJoinOperator : public IndexOperator {
 public:
  std::string name() const override { return "tri_join"; }
  void PreProcess(Record* record, IndexKeyLists* keys) override {
    for (auto& k : *keys) k.push_back(record->key);
  }
  void PostProcess(const Record& record, const IndexResultLists& results,
                   Emitter* out) override {
    (void)results;
    out->Emit(record);
  }
};

struct TriWorld {
  explicit TriWorld(const char* a = "ia", const char* b = "ib",
                    const char* c = "ic") {
    KvStoreOptions kv;
    for (auto* s : {&sa, &sb, &sc}) *s = std::make_unique<KvStore>(kv);
    for (int i = 0; i < 20; ++i) {
      const std::string key = "k" + std::to_string(i);
      sa->Put(key, IndexValue("a", 8)).ok();
      sb->Put(key, IndexValue("b", 8)).ok();
      sc->Put(key, IndexValue("c", 8)).ok();
    }
    auto op = std::make_shared<TriJoinOperator>();
    op->AddIndex(std::make_shared<KvIndexAccessor>(a, sa.get()));
    op->AddIndex(std::make_shared<KvIndexAccessor>(b, sb.get()));
    op->AddIndex(std::make_shared<KvIndexAccessor>(c, sc.get()));
    conf.set_name("tri");
    conf.AddHeadIndexOperator(op);
    conf.set_input_dataset("tri_input", 1);
  }

  uint64_t Fp(
      int index,
      reuse::ArtifactLayout layout = reuse::ArtifactLayout::kRepartition,
      int partitions = 48) const {
    const uint64_t dataset_fp = reuse::DatasetFingerprint(conf, {});
    return reuse::FirstShuffleFingerprint(conf, dataset_fp,
                                          OperatorPosition::kHead, 0, index,
                                          layout, partitions);
  }

  std::unique_ptr<KvStore> sa, sb, sc;
  IndexJobConf conf;
};

OperatorPlan PlanOf(std::vector<IndexChoice> order) {
  OperatorPlan p;
  p.order = std::move(order);
  return p;
}

// The executor publishes an operator's first shuffle under the name the
// planner probes, whatever the rest of the plan does: inline accesses
// commute behind the shuffle (Property 1/4), base <-> cache swaps never
// change its output (Properties 2/3), a later shuffle cannot reach back
// into it, and a salted choice without detected hot keys runs, and is
// named, as the plain re-partitioning it degenerates to.
TEST(FingerprintCanonTest, InvariantUnderPermittedPlanRewrites) {
  TriWorld w;
  std::vector<InputSplit> input(4);
  for (size_t s = 0; s < input.size(); ++s) {
    input[s].node = static_cast<int>(s);
    for (int r = 0; r < 20; ++r) {
      input[s].records.push_back(
          Record("k" + std::to_string((s * 7 + r) % 20), "v"));
    }
  }
  const ClusterConfig config;
  const uint64_t ref = w.Fp(0, reuse::ArtifactLayout::kRepartition,
                            config.total_map_slots());
  for (const OperatorPlan& oplan :
       {PlanOf({{0, Strategy::kRepartition},
                {1, Strategy::kLookupCache},
                {2, Strategy::kBaseline}}),
        PlanOf({{0, Strategy::kRepartition},
                {2, Strategy::kBaseline},
                {1, Strategy::kLookupCache}}),
        PlanOf({{0, Strategy::kRepartition},
                {1, Strategy::kBaseline},
                {2, Strategy::kLookupCache}}),
        PlanOf({{0, Strategy::kRepartition},
                {1, Strategy::kRepartition},
                {2, Strategy::kBaseline}}),
        PlanOf({{0, Strategy::kSaltedRepartition},
                {1, Strategy::kLookupCache},
                {2, Strategy::kBaseline}})}) {
    reuse::MaterializedStore store(64ull << 20, config.num_nodes);
    EFindJobRunner runner(config);
    runner.set_reuse(&store);
    JobPlan plan;
    plan.head.push_back(oplan);
    runner.RunWithPlan(w.conf, input, plan);
    const std::vector<reuse::ArtifactMeta> entries = store.Entries();
    ASSERT_EQ(entries.size(), 1u) << plan.ToString();
    EXPECT_EQ(entries[0].fingerprint, ref) << plan.ToString();
  }
}

TEST(FingerprintCanonTest, ShuffledIndexNamesTheArtifact) {
  TriWorld w;
  EXPECT_NE(w.Fp(0), w.Fp(1));
  EXPECT_NE(w.Fp(1), w.Fp(2));
}

TEST(FingerprintCanonTest, DistinctUnderContentChangingEdits) {
  TriWorld w;
  const uint64_t ref = w.Fp(0);

  // Accessor configuration: a differently-configured index is a different
  // artifact even when everything else matches.
  TriWorld renamed("ia2");
  EXPECT_NE(ref, renamed.Fp(0));

  // Index version: a write to the shuffled index's backing store must
  // invalidate (the artifact's attachments embed looked-up state).
  w.sa->Put("k0", IndexValue("a'", 8)).ok();
  const uint64_t bumped = w.Fp(0);
  EXPECT_NE(ref, bumped);
  // ... and a write to an *inline* index too: PreProcess extracts keys for
  // every index, so all accessors shape the artifact.
  w.sb->Put("k0", IndexValue("b'", 8)).ok();
  EXPECT_NE(bumped, w.Fp(0));

  // Dataset version (ReStore-style named input).
  TriWorld v2;
  v2.conf.set_input_dataset("tri_input", 2);
  EXPECT_NE(ref, v2.Fp(0));

  // Layout: co-partitioned (idxloc) and hash-partitioned (repart)
  // artifacts are physically different.
  EXPECT_NE(ref, w.Fp(0, reuse::ArtifactLayout::kIndexLocality));

  // Partition count.
  EXPECT_NE(w.Fp(0, reuse::ArtifactLayout::kRepartition, 48),
            w.Fp(0, reuse::ArtifactLayout::kRepartition, 64));
}

// Storage-backed index version: a rebuilt packed store (DESIGN.md §13) is
// a new index generation, so artifacts recorded against the old build must
// miss — VersionFingerprint tracks the store's persisted build counter.
TEST(FingerprintCanonTest, RebuiltPackedStoreInvalidatesArtifacts) {
  store::PackedStoreOptions so;
  so.dir = ::testing::TempDir() + "efind_strategy_prop_store";
  auto build = [&]() {
    store::PackedStoreBuilder builder(so);
    for (int i = 0; i < 20; ++i) {
      builder.Add("k" + std::to_string(i), IndexValue("a", 8));
    }
    std::string error;
    auto store = builder.Build(&error);
    EXPECT_NE(store, nullptr) << error;
    return store;
  };
  auto fp_of = [](const store::PackedObjectStore* store) {
    IndexJobConf conf;
    conf.set_name("store_join");
    auto op = std::make_shared<TriJoinOperator>();
    op->AddIndex(std::make_shared<PackedStoreAccessor>("ps", store));
    conf.AddHeadIndexOperator(op);
    conf.set_input_dataset("store_input", 1);
    const uint64_t dataset_fp = reuse::DatasetFingerprint(conf, {});
    return reuse::FirstShuffleFingerprint(
        conf, dataset_fp, OperatorPosition::kHead, 0, 0,
        reuse::ArtifactLayout::kRepartition, 48);
  };

  auto v1 = build();
  const uint64_t ref = fp_of(v1.get());
  ASSERT_NE(ref, 0u);
  // Same build, fresh accessor: still the same artifact.
  EXPECT_EQ(ref, fp_of(v1.get()));
  // Rebuild into the same directory (identical content even): the version
  // bump alone must split the equivalence class.
  auto v2 = build();
  EXPECT_NE(ref, fp_of(v2.get()));
}

// The cross-job collision the store exists for: two jobs sharing the
// dataset and the first head operator have equal first-shuffle
// fingerprints regardless of their (downstream) mapper and reducer.
TEST(FingerprintCanonTest, HeadArtifactSharedAcrossJobs) {
  ToyWorld world(50);
  auto input = world.MakeInput(8, 20, 50);
  IndexJobConf job_a = world.MakeJoinJob(/*with_reduce=*/false);
  IndexJobConf job_b = world.MakeJoinJob(/*with_reduce=*/true);
  const auto fp = [](const IndexJobConf& conf,
                     const std::vector<InputSplit>& in) {
    return reuse::FirstShuffleFingerprint(
        conf, reuse::DatasetFingerprint(conf, in), OperatorPosition::kHead, 0,
        0, reuse::ArtifactLayout::kRepartition, 48);
  };
  const uint64_t fp_a = fp(job_a, input);
  ASSERT_NE(fp_a, 0u);
  EXPECT_EQ(fp_a, fp(job_b, input));
  // A different input, though, names a different dataset (content hash).
  EXPECT_NE(fp_a, fp(job_a, world.MakeInput(8, 20, 50, /*seed=*/99)));
}

}  // namespace
}  // namespace efind

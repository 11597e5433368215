// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Golden Table-1 statistics: every field of every OperatorStats / IndexStats
// the collector produces (doubles as exact hex floats, hot keys as hex) plus
// the plan chosen from them, pinned for small runs of each workload family
// at threads 1 and 4. The thread-determinism suites compare runs with each
// other; this pins the values themselves, so any change to how statistics
// are collected, merged or derived that moves a single bit fails here.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "efind/efind_job_runner.h"
#include "kvstore/kv_store.h"
#include "store/packed_store.h"
#include "tests/test_util.h"
#include "workloads/log_trace.h"
#include "workloads/synthetic.h"
#include "workloads/tweets.h"

namespace efind {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Appends `fields` (each "name=value") after `indent`, wrapped at 79
/// columns so the pinned literals below stay readable.
void AppendFields(const std::string& indent,
                  const std::vector<std::string>& fields, std::string* out) {
  std::string line = indent;
  for (const std::string& f : fields) {
    if (line.size() > indent.size() && line.size() + 1 + f.size() > 79) {
      *out += line + "\n";
      line = indent;
    }
    if (line.size() > indent.size()) line += " ";
    line += f;
  }
  *out += line + "\n";
}

std::string Field(const char* name, double v) {
  return std::string(name) + "=" + Hex(v);
}

std::string Flag(const char* name, bool v) {
  return std::string(name) + "=" + (v ? "1" : "0");
}

void AppendIndex(const IndexStats& is, std::string* out) {
  std::vector<std::string> fields = {
      Field("nik", is.nik),
      Field("sik", is.sik),
      Field("siv", is.siv),
      Field("tj", is.tj),
      Field("theta", is.theta),
      Field("R", is.miss_ratio),
      Flag("repart", is.repartitionable),
      Field("max_key_share", is.max_key_share),
      "hot_keys=" + std::to_string(is.hot_keys.size())};
  for (uint64_t hk : is.hot_keys) fields.push_back("hot=" + Hex64(hk));
  for (std::string f :
       {"salt_fanout=" + std::to_string(is.salt_fanout),
        Field("avail_excess", is.avail_excess), Field("down", is.down_share),
        Field("failover", is.failover_share), Field("hedge", is.hedge_share),
        Field("hedge_win", is.hedge_win_share),
        Field("flaky", is.flaky_share), Field("corrupt", is.corrupt_share),
        Field("breaker", is.breaker_share),
        Field("pages", is.pages_per_lookup),
        Flag("idempotent", is.idempotent),
        Flag("scheme", is.has_partition_scheme),
        Field("remote_overhead", is.remote_overhead),
        Flag("artifact_repart", is.artifact_repart),
        Flag("artifact_idxloc", is.artifact_idxloc)}) {
    fields.push_back(std::move(f));
  }
  AppendFields("    ", fields, out);
}

void AppendGroup(const char* tag, const std::vector<OperatorStats>& group,
                 std::string* out) {
  for (size_t i = 0; i < group.size(); ++i) {
    const OperatorStats& st = group[i];
    *out += tag + std::to_string(i) + ":\n";
    AppendFields("  ",
                 {Flag("valid", st.valid), Field("n1", st.n1),
                  Field("s1", st.s1), Field("spre", st.spre),
                  Field("spost", st.spost), Field("smap", st.smap),
                  "tasks=" + std::to_string(st.tasks_sampled),
                  Field("max_cov", st.max_cov)},
                 out);
    for (size_t j = 0; j < st.index.size(); ++j) {
      *out += "  index " + std::to_string(j) + ":\n";
      AppendIndex(st.index[j], out);
    }
  }
}

/// The whole snapshot, one leading newline included so each pinned raw
/// literal starts on a line of its own.
std::string Serialize(const CollectedStats& stats, const JobPlan& plan) {
  std::string out = "\n";
  AppendGroup("head", stats.head, &out);
  AppendGroup("body", stats.body, &out);
  AppendGroup("tail", stats.tail, &out);
  out += "plan: " + plan.ToString() + "\n";
  return out;
}

/// Runs `body(threads)` at threads 1 and 4 and compares each serialization
/// with `expected`; on mismatch the actual text is printed whole so it can
/// be pasted back after an intended change.
template <typename Body>
void ExpectGolden(const std::string& expected, Body body) {
  for (int threads : {1, 4}) {
    const std::string actual = body(threads);
    EXPECT_TRUE(actual == expected)
        << "threads=" << threads << " actual:\n" << actual;
  }
}

EFindOptions Threads(int threads) {
  EFindOptions options;
  options.threads = threads;
  return options;
}

// ------------------------------------------------------------------ tweets --

class TweetsGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_.num_tweets = 3000;
    options_.num_users = 600;
    options_.num_cities = 12;
    options_.num_days = 5;
    options_.num_splits = 24;
    data_ = GenerateTweets(options_, config_.num_nodes);
    conf_ = MakeTweetTopicsJob(data_, options_);
  }

  ClusterConfig config_;
  TweetOptions options_;
  TweetData data_;
  IndexJobConf conf_;
};

const char kTweetsCollect[] = R"(
head0:
  valid=1 n1=0x1.f4p+7 s1=0x1.69b851eb851ecp+6 spre=0x1.7650e56041893p+6
  spost=0x1.0b6d3a06d3a07p+5 smap=0x1.b07983c131d5bp+4 tasks=24
  max_cov=0x1.fd625fa2e5466p-7
  index 0:
    nik=0x1p+0 sik=0x1.93126e978d4fep+1 siv=0x1.84072b020c49cp+6
    tj=0x1.6f829c3580ef3p-12 theta=0x1.2210f5c28f5c3p+2 R=0x1.372015d867c3fp-1
    repart=1 max_key_share=0x1.3e1f671529a48p-4 hot_keys=1 hot=1830b309f176c5b1
    salt_fanout=8 avail_excess=0x0p+0 down=0x0p+0 failover=0x0p+0 hedge=0x0p+0
    hedge_win=0x0p+0 flaky=0x0p+0 corrupt=0x0p+0 breaker=0x0p+0 pages=0x0p+0
    idempotent=1 scheme=1 remote_overhead=0x0p+0 artifact_repart=0
    artifact_idxloc=0
body0:
  valid=1 n1=0x1.f4p+7 s1=0x1.b07983c131d5bp+4 spre=0x1.424189374bc6ap+5
  spost=0x1.ff900aec33e1fp+3 smap=0x0p+0 tasks=24 max_cov=0x1.4c75fcb06f907p-6
  index 0:
    nik=0x1p+0 sik=0x1.a8131d5acb6f4p+3 siv=0x1.f5b22d0e56042p+2
    tj=0x1.a36e2eb1c432p-11 theta=0x1.017d07d516f7fp+1 R=0x1.d7e4b17e4b17ep-1
    repart=1 max_key_share=0x1.b4e81b4e81b4fp-9 hot_keys=0 salt_fanout=8
    avail_excess=0x0p+0 down=0x0p+0 failover=0x0p+0 hedge=0x0p+0
    hedge_win=0x0p+0 flaky=0x0p+0 corrupt=0x0p+0 breaker=0x0p+0 pages=0x0p+0
    idempotent=1 scheme=0 remote_overhead=0x0p+0 artifact_repart=0
    artifact_idxloc=0
tail0:
  valid=1 n1=0x1.4p+2 s1=0x1.3dddddddddddep+5 spre=0x1.7f33333333333p+5
  spost=0x1.2144444444444p+6 smap=0x0p+0 tasks=35 max_cov=0x1.0adad68107b4cp-1
  index 0:
    nik=0x1p+0 sik=0x1.0555555555555p+3 siv=0x1.76eeeeeeeeeefp+4
    tj=0x1.a36e2eb1c432cp-11 theta=0x1p+0 R=0x1p+0 repart=1
    max_key_share=0x1.1111111111111p-6 hot_keys=0 salt_fanout=8
    avail_excess=0x0p+0 down=0x0p+0 failover=0x0p+0 hedge=0x0p+0
    hedge_win=0x0p+0 flaky=0x0p+0 corrupt=0x0p+0 breaker=0x0p+0 pages=0x0p+0
    idempotent=1 scheme=0 remote_overhead=0x0p+0 artifact_repart=0
    artifact_idxloc=0
plan: head0[idx0=cache] body0[idx0=cache] tail0[idx0=base]
)";

TEST_F(TweetsGoldenTest, CollectStatisticsShadowCache) {
  ExpectGolden(kTweetsCollect, [&](int threads) {
    EFindJobRunner runner(config_, Threads(threads));
    const CollectedStats stats = runner.CollectStatistics(conf_, data_.tweets);
    return Serialize(stats, runner.PlanFromStats(conf_, stats));
  });
}

const char kTweetsCache[] = R"(
head0:
  valid=1 n1=0x1.f4p+7 s1=0x1.69b851eb851ecp+6 spre=0x1.7650e56041893p+6
  spost=0x1.0b6d3a06d3a07p+5 smap=0x1.b07983c131d5bp+4 tasks=24
  max_cov=0x1.fd625fa2e5466p-7
  index 0:
    nik=0x1p+0 sik=0x1.93126e978d4fep+1 siv=0x1.84104a255a937p+6
    tj=0x1.6f829f450bc17p-12 theta=0x1.2210f5c28f5c3p+2 R=0x1.372015d867c3fp-1
    repart=1 max_key_share=0x1.3e1f671529a48p-4 hot_keys=1 hot=1830b309f176c5b1
    salt_fanout=8 avail_excess=0x0p+0 down=0x0p+0 failover=0x0p+0 hedge=0x0p+0
    hedge_win=0x0p+0 flaky=0x0p+0 corrupt=0x0p+0 breaker=0x0p+0 pages=0x0p+0
    idempotent=1 scheme=1 remote_overhead=0x0p+0 artifact_repart=0
    artifact_idxloc=0
body0:
  valid=1 n1=0x1.f4p+7 s1=0x1.b07983c131d5bp+4 spre=0x1.424189374bc6ap+5
  spost=0x1.ff900aec33e1fp+3 smap=0x0p+0 tasks=24 max_cov=0x1.4c75fcb06f907p-6
  index 0:
    nik=0x1p+0 sik=0x1.a8131d5acb6f4p+3 siv=0x1.f5ad3a6bf484fp+2
    tj=0x1.a36e2eb1c4321p-11 theta=0x1.017d07d516f7fp+1 R=0x1.d7e4b17e4b17ep-1
    repart=1 max_key_share=0x1.b4e81b4e81b4fp-9 hot_keys=0 salt_fanout=8
    avail_excess=0x0p+0 down=0x0p+0 failover=0x0p+0 hedge=0x0p+0
    hedge_win=0x0p+0 flaky=0x0p+0 corrupt=0x0p+0 breaker=0x0p+0 pages=0x0p+0
    idempotent=1 scheme=0 remote_overhead=0x0p+0 artifact_repart=0
    artifact_idxloc=0
tail0:
  valid=1 n1=0x1.4p+2 s1=0x1.3dddddddddddep+5 spre=0x1.7f33333333333p+5
  spost=0x1.2144444444444p+6 smap=0x0p+0 tasks=35 max_cov=0x1.0adad68107b4cp-1
  index 0:
    nik=0x1p+0 sik=0x1.0555555555555p+3 siv=0x1.76eeeeeeeeeefp+4
    tj=0x1.a36e2eb1c432cp-11 theta=0x1p+0 R=0x1p+0 repart=1
    max_key_share=0x1.1111111111111p-6 hot_keys=0 salt_fanout=8
    avail_excess=0x0p+0 down=0x0p+0 failover=0x0p+0 hedge=0x0p+0
    hedge_win=0x0p+0 flaky=0x0p+0 corrupt=0x0p+0 breaker=0x0p+0 pages=0x0p+0
    idempotent=1 scheme=0 remote_overhead=0x0p+0 artifact_repart=0
    artifact_idxloc=0
plan: head0[idx0=cache] body0[idx0=cache] tail0[idx0=cache]
)";

TEST_F(TweetsGoldenTest, RunWithLookupCacheRealCache) {
  ExpectGolden(kTweetsCache, [&](int threads) {
    EFindJobRunner runner(config_, Threads(threads));
    const EFindRunResult run =
        runner.RunWithStrategy(conf_, data_.tweets, Strategy::kLookupCache);
    return Serialize(run.stats, run.plan);
  });
}

// --------------------------------------------------------------------- LOG --

const char kLogDynamic[] = R"(
head0:
  valid=1 n1=0x1.a0aaaaaaaaaabp+10 s1=0x1.b43a6b50b0f28p+8
  spre=0x1.8624c2f837b4ap+5 spost=0x1.d8068db8bac71p+3
  smap=0x1.d8068db8bac71p+3 tasks=384 max_cov=0x1.00de04e1a112dp-2
  index 0:
    nik=0x1p+0 sik=0x1.9145a1cac0831p+3 siv=0x1.10719579b6cap+3
    tj=0x1.d7dbf487fcb8dp-10 theta=0x1.78d870826ea53p+3 R=0x1.f5dff44f1f5ep-3
    repart=1 max_key_share=0x1.315b573eab368p-4 hot_keys=1 hot=c9ac0a2a00500a06
    salt_fanout=8 avail_excess=0x0p+0 down=0x0p+0 failover=0x0p+0 hedge=0x0p+0
    hedge_win=0x0p+0 flaky=0x0p+0 corrupt=0x0p+0 breaker=0x0p+0 pages=0x0p+0
    idempotent=1 scheme=0 remote_overhead=0x0p+0 artifact_repart=0
    artifact_idxloc=0
plan: head0[idx0=repart]
replanned=1
)";

TEST(LogGoldenTest, RunDynamic) {
  // Four map waves of 96 splits: the first wave's statistics re-plan the
  // other three (Algorithm 1), so the pinned stats span both plans.
  LogTraceOptions log;
  log.num_events = 20000;
  log.num_ips = 5000;
  log.num_urls = 1000;
  log.num_splits = 384;
  CloudServiceOptions service;
  service.base_latency_sec = 800e-6;
  service.extra_latency_sec = 1e-3;
  ClusterConfig config;
  const auto splits = GenerateLogTrace(log, config.num_nodes);
  CloudService geo = MakeGeoIpService(20, service);
  const IndexJobConf conf = MakeLogTopUrlsJob(&geo, 5);
  ExpectGolden(kLogDynamic, [&](int threads) {
    EFindJobRunner runner(config, Threads(threads));
    const EFindRunResult run = runner.RunDynamic(conf, splits);
    return Serialize(run.stats, run.plan) +
           "replanned=" + std::to_string(run.replanned) + "\n";
  });
}

// --------------------------------------------------------------- Synthetic --

SyntheticOptions SmallSynthetic() {
  SyntheticOptions syn;
  syn.num_records = 4000;
  syn.num_distinct_keys = 2000;
  syn.num_splits = 24;
  syn.record_value_bytes = 100;
  syn.index_value_bytes = 120;
  return syn;
}

/// CollectStatistics + PlanFromStats over the KV-backed Synthetic join.
std::string SyntheticStats(const SyntheticOptions& syn,
                           const ClusterConfig& config, int threads) {
  KvStoreOptions kv;
  kv.num_nodes = config.num_nodes;
  KvStore store(kv);
  LoadSyntheticIndex(syn, &store);
  const IndexJobConf conf = MakeSyntheticJoinJob(&store);
  const auto input = GenerateSynthetic(syn, config.num_nodes);
  EFindJobRunner runner(config, Threads(threads));
  const CollectedStats stats = runner.CollectStatistics(conf, input);
  return Serialize(stats, runner.PlanFromStats(conf, stats));
}

const char kSyntheticZipf[] = R"(
head0:
  valid=1 n1=0x1.4d55555555555p+8 s1=0x1.9ab3f7ced9168p+6
  spre=0x1.a567ef9db22d1p+6 spost=0x1.bd59fbe76c8b4p+7
  smap=0x1.bd59fbe76c8b4p+7 tasks=24 max_cov=0x1.7ab37e7dcd3c4p-9
  index 0:
    nik=0x1p+0 sik=0x1.567ef9db22d0ep+1 siv=0x1.ep+6 tj=0x1.6fa1788b2c186p-12
    theta=0x1.93e0cb9a2874cp+2 R=0x1.6c49ba5e353f8p-2 repart=1
    max_key_share=0x1.cbc6a7ef9db23p-3 hot_keys=3 hot=43db55d3ac266e8e
    hot=1f015d6af2b2eec6 hot=47496ac29581fd3a salt_fanout=8 avail_excess=0x0p+0
    down=0x0p+0 failover=0x0p+0 hedge=0x0p+0 hedge_win=0x0p+0 flaky=0x0p+0
    corrupt=0x0p+0 breaker=0x0p+0 pages=0x0p+0 idempotent=1 scheme=1
    remote_overhead=0x0p+0 artifact_repart=0 artifact_idxloc=0
plan: head0[idx0=cache]
)";

TEST(SyntheticGoldenTest, Zipf12HotKeys) {
  SyntheticOptions syn = SmallSynthetic();
  syn.zipf_theta = 1.2;
  ExpectGolden(kSyntheticZipf, [&](int threads) {
    return SyntheticStats(syn, ClusterConfig{}, threads);
  });
}

const char kSyntheticFaults[] = R"(
head0:
  valid=1 n1=0x1.4d55555555555p+8 s1=0x1.a1c45a1cac083p+6
  spre=0x1.b388b43958106p+6 spost=0x1.c0e22d0e56042p+7
  smap=0x1.c0e22d0e56042p+7 tasks=24 max_cov=0x1.7ab37e7dcd3c4p-9
  index 0:
    nik=0x1p+0 sik=0x1.1c45a1cac0831p+2 siv=0x1.ep+6 tj=0x1.6fa1788b2c186p-12
    theta=0x1.1d95bf278e43bp+1 R=0x1.d74bc6a7ef9dbp-1 repart=1
    max_key_share=0x1.0624dd2f1a9fcp-9 hot_keys=0 salt_fanout=8
    avail_excess=0x1.76afaa1ecc1d3p-13 down=0x1.89374bc6a7efap-6
    failover=0x1.c353f7ced9168p-2 hedge=0x1.d604189374bc7p-2
    hedge_win=0x1.0978d4fdf3b64p-2 flaky=0x1.3645a1cac0831p-3
    corrupt=0x1.4dd2f1a9fbe77p-5 breaker=0x1.7df3b645a1cacp-3 pages=0x0p+0
    idempotent=1 scheme=1 remote_overhead=0x0p+0 artifact_repart=0
    artifact_idxloc=0
plan: head0[idx0=cache]
)";

TEST(SyntheticGoldenTest, FaultMatrixShares) {
  ClusterConfig config;
  config.lookup_retry_backoff_sec = 1e-3;
  config.lookup_latency_spike_rate = 0.08;
  config.lookup_latency_spike_factor = 10.0;
  config.lookup_flaky_rate = 0.2;
  config.lookup_corrupt_rate = 0.05;
  config.hedged_lookups = true;
  config.hedge_quantile = 0.9;
  config.breaker_failure_threshold = 2;
  config.breaker_open_lookups = 8;
  config.host_downtimes.push_back({3});
  config.host_downtimes.push_back({7, 0.0, 0.002});
  config.degraded_hosts.push_back(5);
  ExpectGolden(kSyntheticFaults, [&](int threads) {
    return SyntheticStats(SmallSynthetic(), config, threads);
  });
}

const char kPackedStoreDepth16[] = R"(
head0:
  valid=1 n1=0x1.4d55555555555p+8 s1=0x1.a1c45a1cac083p+6
  spre=0x1.b388b43958106p+6 spost=0x1.c0e22d0e56042p+7
  smap=0x1.c0e22d0e56042p+7 tasks=24 max_cov=0x1.7ab37e7dcd3c4p-9
  index 0:
    nik=0x1p+0 sik=0x1.1c45a1cac0831p+2 siv=0x1.ep+6 tj=0x1.539223589fa87p-16
    theta=0x1.1d95bf278e43bp+1 R=0x1.d74bc6a7ef9dbp-1 repart=1
    max_key_share=0x1.0624dd2f1a9fcp-9 hot_keys=0 salt_fanout=8
    avail_excess=0x0p+0 down=0x0p+0 failover=0x0p+0 hedge=0x0p+0
    hedge_win=0x0p+0 flaky=0x0p+0 corrupt=0x0p+0 breaker=0x0p+0 pages=0x1p+0
    idempotent=1 scheme=1 remote_overhead=0x0p+0 artifact_repart=0
    artifact_idxloc=0
plan: head0[idx0=cache]
)";

TEST(SyntheticGoldenTest, PackedStoreDepth16Pages) {
  const SyntheticOptions syn = SmallSynthetic();
  store::PackedStoreOptions so;
  so.dir = ::testing::TempDir() + "efind_stats_golden_store";
  store::PackedStoreBuilder builder(so);
  LoadSyntheticStoreIndex(syn, &builder);
  std::string error;
  auto packed = builder.Build(&error);
  ASSERT_NE(packed, nullptr) << error;
  const IndexJobConf conf = MakeSyntheticStoreJoinJob(packed.get());
  ClusterConfig config;
  config.store_batch_depth = 16;
  const auto input = GenerateSynthetic(syn, config.num_nodes);
  ExpectGolden(kPackedStoreDepth16, [&](int threads) {
    EFindJobRunner runner(config, Threads(threads));
    const CollectedStats stats = runner.CollectStatistics(conf, input);
    return Serialize(stats, runner.PlanFromStats(conf, stats));
  });
}

}  // namespace
}  // namespace efind

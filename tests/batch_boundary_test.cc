// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Byte identity across the repartition job boundary (DESIGN.md §11) on the
// paper's workloads. A shuffle job's grouped output reaches the next job's
// map tasks in batch form, and reuse artifacts share those batches. For
// Algorithm 1 on the LOG trace (re-planned to re-partitioning, re-planned
// to the lookup cache, and kept at baseline) and for TPC-H Q3's reuse
// publish/adopt sequence under both shuffle layouts, this checks that the
// caller's input digest is unchanged after the run and pins the output
// digest, the hex simulated seconds and a digest of the `efind.` counters.
// The pins were taken while every boundary still materialized `Record`s
// and attachments.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "efind/efind_job_runner.h"
#include "reuse/materialized_store.h"
#include "service/cloud_service.h"
#include "workloads/log_trace.h"
#include "workloads/tpch.h"

namespace efind {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// Digest of every `efind.` counter's name and value bits. The
// `efind.alloc.` counters are left out: they tally host heap traffic of
// the shuffle buffers, not the simulated run.
uint64_t CounterDigest(const Counters& counters) {
  Checksum64 sum;
  for (const auto& [name, value] : counters.values()) {
    if (name.rfind("efind.", 0) != 0 || name.rfind("efind.alloc.", 0) == 0) {
      continue;
    }
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    sum.UpdateFramed(name);
    sum.UpdateU64(bits);
  }
  return sum.Digest();
}

struct Pin {
  uint64_t digest;
  const char* sim_seconds;
  uint64_t counters;
};

void ExpectPinned(const EFindRunResult& r, const Pin& pin) {
  const uint64_t digest = reuse::ChecksumSplits(r.outputs);
  const uint64_t counters = CounterDigest(r.counters);
  EXPECT_EQ(digest, pin.digest)
      << "actual digest 0x" << std::hex << digest << "ULL";
  EXPECT_EQ(Hex(r.sim_seconds), pin.sim_seconds);
  EXPECT_EQ(counters, pin.counters)
      << "actual counters 0x" << std::hex << counters << "ULL";
}

class BatchBoundaryTest : public ::testing::TestWithParam<int> {
 protected:
  EFindOptions Options() const {
    EFindOptions options;
    options.threads = GetParam();
    return options;
  }

  // RunDynamic of the LOG top-URLs job over a small trace against a
  // geo-IP service with `latency_sec` per lookup.
  void RunLog(uint64_t seed, double latency_sec, double ip_zipf,
              Strategy expected, const Pin& pin) {
    LogTraceOptions log;
    log.num_events = 20000;
    log.num_ips = 5000;
    log.num_urls = 2000;
    log.num_splits = 192;
    log.ip_zipf = ip_zipf;
    log.seed = seed;
    const ClusterConfig config;
    const auto input = GenerateLogTrace(log, config.num_nodes);
    const uint64_t before = reuse::ChecksumSplits(input);
    CloudServiceOptions service;
    service.base_latency_sec = latency_sec;
    const CloudService geo = MakeGeoIpService(50, service);
    const IndexJobConf conf = MakeLogTopUrlsJob(&geo, 10);
    EFindJobRunner runner(config, Options());
    const EFindRunResult r = runner.RunDynamic(conf, input);
    EXPECT_EQ(reuse::ChecksumSplits(input), before);
    EXPECT_EQ(r.plan.head[0].order[0].strategy, expected) << r.plan.ToString();
    EXPECT_EQ(r.replanned, expected != Strategy::kBaseline);
    ExpectPinned(r, pin);
  }

  // TPC-H Q3 under `strategy` with a reuse store: one publishing run, two
  // adopting runs, then a third resolve whose digest must match the
  // manifest's.
  void RunQ3Reuse(Strategy strategy, const Pin& cold, const Pin& hit) {
    TpchOptions options;
    options.num_orders = 1500;
    options.num_customers = 400;
    options.num_suppliers = 300;
    options.num_parts = 600;
    options.num_splits = 24;
    const ClusterConfig config;
    const TpchData data = GenerateTpch(options, config.num_nodes);
    const uint64_t before = reuse::ChecksumSplits(data.lineitem);
    reuse::MaterializedStore store(256ull << 20, config.num_nodes);
    EFindJobRunner runner(config, Options());
    runner.set_reuse(&store);
    const auto first =
        runner.RunWithStrategy(MakeTpchQ3Job(data), data.lineitem, strategy);
    // Q3 chains two operators; each one's first shuffle is an artifact.
    const std::vector<reuse::ArtifactMeta> metas = store.Entries();
    ASSERT_EQ(metas.size(), 2u);
    EXPECT_EQ(store.stats().publishes, metas.size());
    EXPECT_EQ(reuse::ChecksumSplits(data.lineitem), before);
    ExpectPinned(first, cold);

    for (uint64_t run = 1; run <= 2; ++run) {
      const auto adopt =
          runner.RunWithStrategy(MakeTpchQ3Job(data), data.lineitem, strategy);
      EXPECT_EQ(store.stats().hits, run * metas.size());
      EXPECT_EQ(reuse::ChecksumSplits(data.lineitem), before);
      ExpectPinned(adopt, hit);
    }
    for (const reuse::ArtifactMeta& meta : metas) {
      const std::vector<InputSplit>* again =
          store.Resolve(meta.fingerprint, nullptr);
      ASSERT_NE(again, nullptr);
      EXPECT_EQ(reuse::ChecksumSplits(*again), meta.checksum);
      EXPECT_EQ(TotalSizeBytes(*again), meta.bytes);
    }
    EXPECT_EQ(store.stats().hits, 3 * metas.size());
  }
};

TEST_P(BatchBoundaryTest, LogReplanToRepartition) {
  RunLog(1, 1.8e-3, 0.9, Strategy::kRepartition,
         {0xe2f4ce4961d06f39ULL, "0x1.63fba46794d07p-2",
          0x1f0dc416241e346cULL});
}

TEST_P(BatchBoundaryTest, LogReplanToCache) {
  RunLog(2, 1.8e-3, 1.4, Strategy::kLookupCache,
         {0x88bc26edf3b3da13ULL, "0x1.4af8a0eeab21cp-2",
          0x5b41c9aec8133f96ULL});
}

TEST_P(BatchBoundaryTest, LogKeepsBaseline) {
  RunLog(3, 1e-6, 0.9, Strategy::kBaseline,
         {0x0daed3ecbf896c16ULL, "0x1.12df4afeabedp-6",
          0x56216698c0037dfcULL});
}

TEST_P(BatchBoundaryTest, TpchQ3RepartitionReuse) {
  RunQ3Reuse(Strategy::kRepartition,
             {0xe7eedc92d853c4d4ULL, "0x1.319542b97faf9p-5",
              0xdd0f6ec1dbf59d7cULL},
             {0xe7eedc92d853c4d4ULL, "0x1.6c22a650bfbeap-7",
              0x3317965854a8a0e7ULL});
}

TEST_P(BatchBoundaryTest, TpchQ3IndexLocalityReuse) {
  RunQ3Reuse(Strategy::kIndexLocality,
             {0xe7eedc92d853c4d4ULL, "0x1.665064a7d5d2ep-5",
              0x09d3c19770a3f1adULL},
             {0xe7eedc92d853c4d4ULL, "0x1.c199e2589404ap-7",
              0xbe807248eea169eeULL});
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchBoundaryTest,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "T" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace efind

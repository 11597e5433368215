// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// store_join: the Synthetic join (Theta = 2, uniform keys) served by an
// on-disk packed object store at batch depth 16 with the lookup-cache
// strategy, at threads = 1. 64k records over 32k distinct keys, 2.6x the
// 12 x 1024 cache entries, so most lookups reach the store: the op's time is
// store I/O (pread, Elias-Fano predecessor search, batch coalescing). The
// sizes keep an op near 0.5 s, so a run holds dozens of ops. The job is
// map-only, so shuffle changes must not move it.

#include <algorithm>
#include <string>
#include <vector>

#include "efind/efind_job_runner.h"
#include "harness.h"
#include "kvstore/kv_store.h"
#include "store/lookup_queue.h"
#include "store/packed_store.h"
#include "workloads/synthetic.h"

namespace perfbench {
namespace {

class StoreJoin : public Workload {
 public:
  explicit StoreJoin(const WorkloadParams& params) : params_(params) {
    syn_.num_records = 64000;
    syn_.num_distinct_keys = 32000;
    syn_.seed = MixSeed(params.seed, 0x5703e);
    config_.store_batch_depth = 16;
    store_options_.dir = params.dir + "/packed";
    store_options_.num_nodes = config_.num_nodes;
    efind_.threads = params.threads;
  }

  ConfigEcho Config() const override {
    return {{"records", std::to_string(syn_.num_records)},
            {"distinct_keys", std::to_string(syn_.num_distinct_keys)},
            {"splits", std::to_string(syn_.num_splits)},
            {"generator_seed", std::to_string(syn_.seed)},
            {"store_batch_depth", std::to_string(config_.store_batch_depth)},
            {"store_page_bytes", std::to_string(store_options_.page_bytes)},
            {"store_fill", std::to_string(store_options_.fill)},
            {"cache_capacity", std::to_string(efind_.cache_capacity)},
            {"cluster_nodes", std::to_string(config_.num_nodes)},
            {"op", "RunWithStrategy(cache) on a fresh EFindJobRunner"}};
  }

  int OpsFor(int seconds) const override { return std::max(8, 2 * seconds); }

  bool Setup(Tracer* tracer, std::string* error) override {
    efind::KvStoreOptions kv_options;
    kv_options.num_nodes = config_.num_nodes;
    kv_ = std::make_unique<efind::KvStore>(kv_options);
    efind::store::PackedStoreBuilder builder(store_options_);
    {
      ScopedSpan span(tracer, "workloads.Generate");
      input_ = efind::GenerateSynthetic(syn_, config_.num_nodes);
      efind::LoadSyntheticIndex(syn_, kv_.get());
      efind::LoadSyntheticStoreIndex(syn_, &builder);
    }
    {
      ScopedSpan span(tracer, "store.PackedStoreBuilder::Build");
      store_ = builder.Build(error);
    }
    if (store_ == nullptr) return false;
    conf_ = efind::MakeSyntheticStoreJoinJob(store_.get());
    for (const auto& split : input_) records_ += split.records.size();

    // Reference: the same join against the in-memory KV store, under the
    // baseline strategy (no cache, no batching, no pages).
    ScopedSpan span(tracer, "reference.RunWithStrategy(base)");
    efind::EFindOptions reference_options = efind_;
    reference_options.threads = HardwareThreads();
    efind::EFindJobRunner runner(config_, reference_options);
    reference_ = OutputDigest(
        runner
            .RunWithStrategy(efind::MakeSyntheticJoinJob(kv_.get()), input_,
                             efind::Strategy::kBaseline)
            .outputs);
    return true;
  }

  OpOutcome RunOp(int op, Tracer* tracer,
                  efind::obs::ObsSession* obs) override {
    OpOutcome out;
    efind::EFindRunResult result;
    out.cost = Measure([&] {
      ScopedSpan span(tracer, "efind.EFindJobRunner::RunWithStrategy", op);
      efind::EFindJobRunner runner(config_, efind_);
      runner.set_obs(obs);
      result = runner.RunWithStrategy(conf_, input_,
                                      efind::Strategy::kLookupCache);
    });
    out.job_sim_s = {result.sim_seconds};
    out.digests = {OutputDigest(result.outputs)};
    out.input_records = records_;
    out.failures = out.digests[0] != reference_ ||
                   CounterSum(result.counters, "efind.", ".lookup_errors") > 0;
    out.counters = std::move(result.counters);
    return out;
  }

  void MeasureLayers(const std::vector<OpOutcome>&, Tracer* tracer,
                     Metrics* out) override {
    std::vector<std::string> keys;
    for (const auto& split : input_) {
      for (const auto& r : split.records) keys.push_back(r.key);
    }
    std::vector<efind::IndexValue> values;
    (*out)["store.get_us_p50"] = ChunkedMedianUs(
        tracer, "store.PackedObjectStore::Get", keys.size(), 1024,
        [&](size_t i) { store_->Get(keys[i], &values).ok(); });

    // The op's lookup stream through the batched queue at its depth.
    const size_t depth = static_cast<size_t>(config_.store_batch_depth);
    const size_t chunk = 64 * depth;
    efind::store::BatchedLookupQueue queue(store_.get());
    (*out)["store.flush_us_per_lookup"] = ChunkedMedianUs(
        tracer, "store.BatchedLookupQueue::Flush", keys.size(), chunk,
        [&](size_t i) {
          queue.Submit(keys[i]);
          if (queue.pending() == depth || (i + 1) % chunk == 0 ||
              i + 1 == keys.size()) {
            queue.Flush();
          }
        });

    MeasureMapReduceLayer(config_, params_.threads, input_, tracer, out);
  }

  void CorruptReference() override { reference_ ^= 1; }

  const efind::ClusterConfig& cluster() const override { return config_; }

 private:
  WorkloadParams params_;
  efind::ClusterConfig config_;
  efind::SyntheticOptions syn_;
  efind::store::PackedStoreOptions store_options_;
  efind::EFindOptions efind_;
  std::unique_ptr<efind::KvStore> kv_;
  std::unique_ptr<efind::store::PackedObjectStore> store_;
  std::vector<efind::InputSplit> input_;
  efind::IndexJobConf conf_;
  uint64_t records_ = 0;
  uint64_t reference_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeStoreJoin(const WorkloadParams& params) {
  return std::make_unique<StoreJoin>(params);
}

}  // namespace perfbench

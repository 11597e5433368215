// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared helpers for EFind core tests: a tiny KV-backed join workload with
// controllable key distributions, and comparison utilities.

#ifndef EFIND_TESTS_TEST_UTIL_H_
#define EFIND_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "efind/accessors/accessors.h"
#include "efind/efind_job_runner.h"
#include "efind/index_operator.h"
#include "kvstore/kv_store.h"
#include "mapreduce/record.h"
#include "mapreduce/stage.h"

namespace efind {
namespace testing_util {

/// A join operator: one key per record (the record key), output =
/// record value + ":" + joined index value. Records without an index match
/// pass through with "<miss>".
class JoinOperator : public IndexOperator {
 public:
  std::string name() const override { return "test_join"; }

  void PreProcess(Record* record, IndexKeyLists* keys) override {
    (*keys)[0].push_back(record->key);
  }

  void PostProcess(const Record& record, const IndexResultLists& results,
                   Emitter* out) override {
    std::string joined = "<miss>";
    if (!results.empty() && !results[0].empty() && !results[0][0].empty()) {
      joined = results[0][0][0].data;
    }
    out->Emit(Record(record.key, record.value + ":" + joined));
  }
};

/// Counts records per key.
class CountReducer : public Reducer {
 public:
  std::string name() const override { return "count"; }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    out->Emit(Record(key, std::to_string(values.size())));
  }
};

/// Re-emits every value under its group's key, so a tail operator looking
/// up the key repeats each lookup once per input record.
class RegroupReducer : public Reducer {
 public:
  std::string name() const override { return "regroup"; }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    for (Record& v : values) out->Emit(Record(key, std::move(v.value)));
  }
};

/// Small world: a KV store with `num_keys` entries ("k0".."kN"), input
/// records drawn by the caller.
struct ToyWorld {
  explicit ToyWorld(int num_keys = 500, uint64_t value_bytes = 40,
                    int num_nodes = 12) {
    KvStoreOptions kv;
    kv.num_nodes = num_nodes;
    store = std::make_unique<KvStore>(kv);
    for (int i = 0; i < num_keys; ++i) {
      store
          ->Put("k" + std::to_string(i),
                IndexValue("v" + std::to_string(i), value_bytes))
          .ok();
    }
  }

  /// Splits with `per_split` records each; keys uniform over [0, key_domain).
  std::vector<InputSplit> MakeInput(int splits, int per_split,
                                    int key_domain, uint64_t seed = 1,
                                    int num_nodes = 12) const {
    Rng rng(seed);
    std::vector<InputSplit> input(splits);
    int id = 0;
    for (int s = 0; s < splits; ++s) {
      input[s].node = s % num_nodes;
      for (int r = 0; r < per_split; ++r) {
        input[s].records.push_back(
            Record("k" + std::to_string(rng.Uniform(key_domain)),
                   "rec" + std::to_string(id++)));
      }
    }
    return input;
  }

  /// Splits with Zipf(θ)-distributed keys over [0, key_domain) — "k0" is
  /// the hottest key. θ=1.2 over the default domain puts ~18% of all
  /// records on "k0", comfortably above the skew detector's default 5%
  /// hot-key threshold (DESIGN.md §12).
  std::vector<InputSplit> MakeZipfInput(int splits, int per_split,
                                        int key_domain, double theta,
                                        uint64_t seed = 1,
                                        int num_nodes = 12) const {
    Rng rng(seed);
    ZipfGenerator zipf(key_domain, theta);
    std::vector<InputSplit> input(splits);
    int id = 0;
    for (int s = 0; s < splits; ++s) {
      input[s].node = s % num_nodes;
      for (int r = 0; r < per_split; ++r) {
        input[s].records.push_back(
            Record("k" + std::to_string(zipf.Next(&rng)),
                   "rec" + std::to_string(id++)));
      }
    }
    return input;
  }

  /// A single-head-operator join job over the store.
  IndexJobConf MakeJoinJob(bool with_reduce = false) const {
    IndexJobConf conf;
    conf.set_name("toy_join");
    auto op = std::make_shared<JoinOperator>();
    op->AddIndex(std::make_shared<KvIndexAccessor>("toy", store.get()));
    conf.AddHeadIndexOperator(op);
    if (with_reduce) conf.SetReducer(std::make_shared<CountReducer>());
    return conf;
  }

  std::unique_ptr<KvStore> store;
};

/// The Fig. 10b job: a regrouping reduce over 96 reduce tasks (two waves on
/// 48 reduce slots) feeding one tail join, so the tail sees every key
/// repeated. With the options' variance gate of 10, Algorithm 1 switches
/// the tail to the lookup cache after the first reduce wave.
struct TailReplanJob {
  TailReplanJob() : world(60, /*value_bytes=*/400), input(96) {
    Rng rng(5);
    int id = 0;
    for (int s = 0; s < 96; ++s) {
      input[s].node = s % 12;
      for (int r = 0; r < 60; ++r) {
        input[s].records.push_back(
            Record("k" + std::to_string(rng.Uniform(40)),
                   "r" + std::to_string(id++)));
      }
    }
    conf.set_name("tail_adaptive");
    conf.SetReducer(std::make_shared<RegroupReducer>());
    conf.set_num_reduce_tasks(96);
    auto op = std::make_shared<JoinOperator>();
    op->AddIndex(std::make_shared<KvIndexAccessor>("toy", world.store.get()));
    conf.AddTailIndexOperator(op);
    options.plan_change_cost_sec = 0.0;
    options.variance_threshold = 10.0;
  }

  ToyWorld world;
  std::vector<InputSplit> input;
  IndexJobConf conf;
  EFindOptions options;
};

/// Sorted copy of the records (for order-insensitive output comparison).
inline std::vector<Record> Sorted(std::vector<Record> records) {
  std::sort(records.begin(), records.end());
  return records;
}

}  // namespace testing_util
}  // namespace efind

#endif  // EFIND_TESTS_TEST_UTIL_H_

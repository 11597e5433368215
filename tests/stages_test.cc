// Unit tests of the chained-function stages the plan implementer splices
// into jobs (efind/stages.h), using a scripted fake accessor.

#include "efind/stages.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "efind/accessors/accessors.h"
#include "kvstore/kv_store.h"
#include "obs/obs.h"
#include "store/lookup_queue.h"

namespace efind {
namespace {

/// Fake index: value = "V(" + key + ")", counts lookups, fixed T_j.
class FakeAccessor : public IndexAccessor {
 public:
  std::string name() const override { return "fake"; }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override {
    ++lookups;
    if (ik == "err") return Status::Internal("boom");
    if (ik == "none") return Status::NotFound();
    out->emplace_back("V(" + ik + ")");
    return Status::OK();
  }
  double ServiceSeconds(uint64_t) const override { return 1e-3; }
  int lookups = 0;
};

/// Operator: one key per record (the record key), post emits value+joined.
class FakeOperator : public IndexOperator {
 public:
  std::string name() const override { return "fake_op"; }
  void PreProcess(Record* record, IndexKeyLists* keys) override {
    (*keys)[0].push_back(record->key);
  }
  void PostProcess(const Record& record, const IndexResultLists& results,
                   Emitter* out) override {
    std::string joined = (!results[0].empty() && !results[0][0].empty())
                             ? results[0][0][0].data
                             : "<none>";
    out->Emit(Record(record.key, joined));
  }
};

struct VectorEmitter : Emitter {
  void Emit(Record r) override { records.push_back(std::move(r)); }
  std::vector<Record> records;
};

struct StageHarness {
  StageHarness() : ctx(0, 0, &counters) {}
  ClusterConfig config;
  Counters counters;
  TaskContext ctx;
  VectorEmitter sink;
  std::shared_ptr<FakeOperator> op = [] {
    auto op = std::make_shared<FakeOperator>();
    op->AddIndex(std::make_shared<FakeAccessor>());
    return op;
  }();
  FakeAccessor* accessor() {
    return static_cast<FakeAccessor*>(op->accessors()[0].get());
  }
};

TEST(PreProcessStageTest, AttachesKeysAndMeters) {
  StageHarness h;
  OperatorRuntime rt(1, 12, 16);
  PreProcessStage stage(h.op, &rt, "efind.t");
  stage.BeginTask(&h.ctx);
  stage.Process(Record("k1", "v"), &h.ctx, &h.sink);
  stage.EndTask(&h.ctx, &h.sink);
  ASSERT_EQ(h.sink.records.size(), 1u);
  const Record& r = h.sink.records[0];
  ASSERT_NE(r.attachment, nullptr);
  ASSERT_EQ(r.attachment->keys.size(), 1u);
  EXPECT_EQ(r.attachment->keys[0], std::vector<std::string>{"k1"});
  EXPECT_EQ(r.attachment->results[0].size(), 1u);  // Sized, unfilled.
  // Statistics are collected per task and folded in at task end; flush the
  // context's pending merges to observe them mid-lifetime.
  h.ctx.FinalizeTaskState();
  EXPECT_EQ(rt.total_inputs(), 1u);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.pre.inputs"), 1.0);
}

TEST(InlineLookupStageTest, FillsResultsAndChargesTime) {
  StageHarness h;
  PreProcessStage pre(h.op, nullptr, "efind.t");
  InlineLookupStage lookup(h.op, {{0, false}}, nullptr, &h.config, 16,
                           "efind.t");
  VectorEmitter mid;
  pre.Process(Record("k1", "v"), &h.ctx, &mid);
  const double before = h.ctx.sim_time();
  lookup.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  EXPECT_GT(h.ctx.sim_time(), before + 1e-3);  // T_j charged.
  const Record& r = h.sink.records[0];
  ASSERT_EQ(r.attachment->results[0][0].size(), 1u);
  EXPECT_EQ(r.attachment->results[0][0][0].data, "V(k1)");
  EXPECT_EQ(h.accessor()->lookups, 1);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookups"), 1.0);
}

TEST(InlineLookupStageTest, CacheAvoidsSecondLookupOnSameNode) {
  StageHarness h;
  PreProcessStage pre(h.op, nullptr, "efind.t");
  InlineLookupStage lookup(h.op, {{0, true}}, nullptr, &h.config, 16,
                           "efind.t");
  for (int i = 0; i < 3; ++i) {
    VectorEmitter mid;
    pre.Process(Record("same", "v"), &h.ctx, &mid);
    lookup.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  }
  EXPECT_EQ(h.accessor()->lookups, 1);  // One miss, two hits.
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.cache_hits"), 2.0);
}

TEST(InlineLookupStageTest, LookupErrorsBecomeEmptyResults) {
  StageHarness h;
  PreProcessStage pre(h.op, nullptr, "efind.t");
  InlineLookupStage lookup(h.op, {{0, false}}, nullptr, &h.config, 16,
                           "efind.t");
  VectorEmitter mid;
  pre.Process(Record("err", "v"), &h.ctx, &mid);
  lookup.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  EXPECT_TRUE(h.sink.records[0].attachment->results[0][0].empty());
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookup_errors"), 1.0);
}

TEST(ShuffleKeyStageTest, RekeysAndSavesOriginal) {
  StageHarness h;
  PreProcessStage pre(h.op, nullptr, "efind.t");
  ShuffleKeyStage shuffle(h.op, 0, "efind.t");
  VectorEmitter mid;
  pre.Process(Record("orig", "v"), &h.ctx, &mid);
  // FakeOperator's key IS the lookup key; rename to observe the rekey.
  mid.records[0].attachment = [&] {
    auto a = std::make_shared<RecordAttachment>(*mid.records[0].attachment);
    a->keys[0] = {"lookup_key"};
    return a;
  }();
  shuffle.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  const Record& r = h.sink.records[0];
  EXPECT_EQ(r.key, "lookup_key");
  EXPECT_TRUE(r.attachment->has_saved_key);
  EXPECT_EQ(r.attachment->saved_key, "orig");
}

TEST(ShuffleKeyStageTest, MultiKeyRecordsPassThrough) {
  StageHarness h;
  ShuffleKeyStage shuffle(h.op, 0, "efind.t");
  Record rec("orig", "v");
  auto a = std::make_shared<RecordAttachment>();
  a->keys = {{"k1", "k2"}};
  a->results = {{{}, {}}};
  rec.attachment = a;
  shuffle.Process(std::move(rec), &h.ctx, &h.sink);
  EXPECT_EQ(h.sink.records[0].key, "orig");
  EXPECT_FALSE(h.sink.records[0].attachment->has_saved_key);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.shuffle_skipped"), 1.0);
}

TEST(GroupedLookupStageTest, MemoDeduplicatesRuns) {
  StageHarness h;
  GroupedLookupStage grouped(h.op, 0, /*local=*/false, nullptr, &h.config,
                             "efind.t");
  grouped.BeginTask(&h.ctx);
  auto make = [&](const std::string& ik, const std::string& orig) {
    Record rec(ik, "v");
    auto a = std::make_shared<RecordAttachment>();
    a->keys = {{ik}};
    a->results = {{{}}};
    a->saved_key = orig;
    a->has_saved_key = true;
    rec.attachment = a;
    return rec;
  };
  // A grouped run: kA kA kA kB.
  grouped.Process(make("kA", "r1"), &h.ctx, &h.sink);
  grouped.Process(make("kA", "r2"), &h.ctx, &h.sink);
  grouped.Process(make("kA", "r3"), &h.ctx, &h.sink);
  grouped.Process(make("kB", "r4"), &h.ctx, &h.sink);
  EXPECT_EQ(h.accessor()->lookups, 2);  // One per distinct key.
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookup_reuses"), 2.0);
  // Keys restored, results attached.
  EXPECT_EQ(h.sink.records[0].key, "r1");
  EXPECT_EQ(h.sink.records[2].key, "r3");
  EXPECT_EQ(h.sink.records[3].attachment->results[0][0][0].data, "V(kB)");
}

TEST(GroupedLookupStageTest, LocalLookupsChargeLessTime) {
  StageHarness h;
  Counters c2;
  TaskContext remote_ctx(0, 0, &h.counters), local_ctx(0, 0, &c2);
  GroupedLookupStage remote(h.op, 0, false, nullptr, &h.config, "efind.r");
  GroupedLookupStage local(h.op, 0, true, nullptr, &h.config, "efind.l");
  auto make = [&] {
    Record rec("kA", std::string(1000, 'x'));
    auto a = std::make_shared<RecordAttachment>();
    a->keys = {{"kA"}};
    a->results = {{{}}};
    a->saved_key = "r";
    a->has_saved_key = true;
    rec.attachment = a;
    return rec;
  };
  remote.BeginTask(&remote_ctx);
  local.BeginTask(&local_ctx);
  VectorEmitter s1, s2;
  remote.Process(make(), &remote_ctx, &s1);
  local.Process(make(), &local_ctx, &s2);
  EXPECT_GT(remote_ctx.sim_time(), local_ctx.sim_time());
}

// ---------------------------------------------------------------------------
// Lookup drivers over a batch-capable accessor (DESIGN.md §13). The pinned
// `sim_time()` values are hex floats so a change in charge order, not just
// in charge totals, shows up.

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// FakeAccessor that also serves batches. A flush completes its lookups in
/// reverse ticket order (the drivers must re-sequence by ticket), counts
/// every distinct key as one page, and marks "err" as a failed lookup.
class FakeBatchedAccessor : public FakeAccessor, public BatchedLookupIndex {
 public:
  class Handle : public store::BatchedLookupHandle {
   public:
    explicit Handle(const FakeBatchedAccessor* owner) : owner_(owner) {}
    uint64_t Submit(const std::string& ik) override {
      keys_.push_back(ik);
      ++owner_->submitted;
      return next_ticket_++;
    }
    store::FlushOutcome Flush() override {
      ++owner_->flushes;
      store::FlushOutcome outcome;
      const uint64_t first = next_ticket_ - keys_.size();
      std::vector<std::string> distinct;
      for (size_t i = keys_.size(); i-- > 0;) {
        store::LookupCompletion c;
        c.ticket = first + i;
        c.pages = 1;
        if (keys_[i] == "err") {
          c.error = true;
        } else if (keys_[i] != "none") {
          c.found = true;
          c.values.emplace_back("V(" + keys_[i] + ")");
        }
        outcome.completions.push_back(std::move(c));
        if (std::find(distinct.begin(), distinct.end(), keys_[i]) ==
            distinct.end()) {
          distinct.push_back(keys_[i]);
        }
      }
      outcome.distinct_pages = distinct.size();
      outcome.uncoalesced_pages = keys_.size();
      keys_.clear();
      return outcome;
    }

   private:
    const FakeBatchedAccessor* owner_;
    std::vector<std::string> keys_;
    uint64_t next_ticket_ = 0;
  };

  std::unique_ptr<store::BatchedLookupHandle> NewBatch() const override {
    return std::make_unique<Handle>(this);
  }
  mutable int submitted = 0;
  mutable int flushes = 0;
};

/// Two indices: index 0 looks up the record key, index 1 the record value
/// (no key when the value is empty). PostProcess is unused here.
class TwoIndexOperator : public IndexOperator {
 public:
  std::string name() const override { return "two_index_op"; }
  void PreProcess(Record* record, IndexKeyLists* keys) override {
    (*keys)[0].push_back(record->key);
    if (!record->value.empty()) (*keys)[1].push_back(record->value);
  }
  void PostProcess(const Record&, const IndexResultLists&,
                   Emitter*) override {}
};

std::string ResultOf(const Record& r, int j, size_t i = 0) {
  if (!r.attachment || r.attachment->results.size() <= static_cast<size_t>(j)
      || r.attachment->results[j].size() <= i) {
    return "<unsized>";
  }
  const auto& values = r.attachment->results[j][i];
  return values.empty() ? "<empty>" : values[0].data;
}

TEST(InlineLookupStageTest, MixedSerialAndBatchedSlotsEmitInArrivalOrder) {
  OperatorRuntime rt(2, 12, 16);
  StageHarness h;
  h.config.store_batch_depth = 3;
  auto op = std::make_shared<TwoIndexOperator>();
  auto serial = std::make_shared<FakeAccessor>();
  auto batched = std::make_shared<FakeBatchedAccessor>();
  op->AddIndex(serial);
  op->AddIndex(batched);
  PreProcessStage pre(op, &rt, "efind.t");
  InlineLookupStage lookup(op, {{0, false}, {1, true}}, &rt, &h.config, 16,
                           "efind.t");
  pre.BeginTask(&h.ctx);
  lookup.BeginTask(&h.ctx);
  // "none" in the batched slot is found nowhere; the bare records carry no
  // attachment and must not overtake the buffered ones.
  const std::vector<std::pair<std::string, std::string>> input = {
      {"k1", "a"}, {"", ""}, {"k2", "b"}, {"k3", "a"},
      {"k4", ""},  {"", ""}, {"k5", "none"}, {"k6", "c"}};
  for (size_t i = 0; i < input.size(); ++i) {
    if (input[i].first.empty()) {
      lookup.Process(Record("bare" + std::to_string(i), "v"), &h.ctx,
                     &h.sink);
      continue;
    }
    VectorEmitter mid;
    pre.Process(Record(input[i].first, input[i].second), &h.ctx, &mid);
    lookup.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  }
  lookup.EndTask(&h.ctx, &h.sink);
  h.ctx.FinalizeTaskState();

  ASSERT_EQ(h.sink.records.size(), input.size());
  const std::vector<std::string> keys = {"k1", "bare1", "k2", "k3",
                                         "k4", "bare5", "k5", "k6"};
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(h.sink.records[i].key, keys[i]) << i;
  }
  EXPECT_EQ(ResultOf(h.sink.records[0], 0), "V(k1)");
  EXPECT_EQ(ResultOf(h.sink.records[0], 1), "V(a)");
  EXPECT_EQ(h.sink.records[1].attachment, nullptr);
  EXPECT_EQ(ResultOf(h.sink.records[2], 1), "V(b)");
  EXPECT_EQ(ResultOf(h.sink.records[3], 0), "V(k3)");
  EXPECT_EQ(ResultOf(h.sink.records[3], 1), "V(a)");  // Pending-key hit.
  EXPECT_EQ(ResultOf(h.sink.records[4], 0), "V(k4)");
  EXPECT_EQ(h.sink.records[4].attachment->keys[1].size(), 0u);
  EXPECT_EQ(ResultOf(h.sink.records[6], 1), "<empty>");  // NotFound.
  EXPECT_EQ(ResultOf(h.sink.records[7], 1), "V(c)");

  EXPECT_EQ(serial->lookups, 6);
  EXPECT_EQ(batched->lookups, 0);  // Served only through batches.
  EXPECT_EQ(batched->submitted, 4);
  EXPECT_EQ(batched->flushes, 2);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookups"), 6.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx1.lookups"), 4.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx1.cache_hits"), 1.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx1.lookup_errors"), 0.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.store.batches"), 2.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.store.batched_lookups"), 4.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.store.page_reads"), 4.0);
  EXPECT_EQ(Hex(h.ctx.sim_time()), "0x1.500d44c84234bp-7");
}

TEST(InlineLookupStageTest, PendingKeyHitsRideOneTicketPerFlush) {
  StageHarness h;
  auto batched = std::make_shared<FakeBatchedAccessor>();
  h.op = std::make_shared<FakeOperator>();
  h.op->AddIndex(batched);
  PreProcessStage pre(h.op, nullptr, "efind.t");
  InlineLookupStage lookup(h.op, {{0, true}}, nullptr, &h.config, 16,
                           "efind.t");
  for (const char* k : {"x", "y", "x", "x", "y"}) {
    VectorEmitter mid;
    pre.Process(Record(k, "v"), &h.ctx, &mid);
    lookup.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  }
  EXPECT_TRUE(h.sink.records.empty());  // All buffered behind the flush.
  lookup.EndTask(&h.ctx, &h.sink);
  ASSERT_EQ(h.sink.records.size(), 5u);
  for (const Record& r : h.sink.records) {
    EXPECT_EQ(ResultOf(r, 0), "V(" + r.key + ")");
  }
  EXPECT_EQ(batched->submitted, 2);
  EXPECT_EQ(batched->flushes, 1);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookups"), 2.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.cache_hits"), 3.0);
  EXPECT_EQ(Hex(h.ctx.sim_time()), "0x1.153a4edb5a593p-9");

  // The next record hits the now-populated cache: no new submit.
  VectorEmitter mid;
  pre.Process(Record("y", "v"), &h.ctx, &mid);
  lookup.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  ASSERT_EQ(h.sink.records.size(), 6u);
  EXPECT_EQ(ResultOf(h.sink.records[5], 0), "V(y)");
  EXPECT_EQ(batched->submitted, 2);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.cache_hits"), 4.0);
}

TEST(InlineLookupStageTest, BatchedErrorCompletionBecomesEmptyResult) {
  StageHarness h;
  auto batched = std::make_shared<FakeBatchedAccessor>();
  h.op = std::make_shared<FakeOperator>();
  h.op->AddIndex(batched);
  PreProcessStage pre(h.op, nullptr, "efind.t");
  InlineLookupStage lookup(h.op, {{0, false}}, nullptr, &h.config, 16,
                           "efind.t");
  for (const char* k : {"ok", "err"}) {
    VectorEmitter mid;
    pre.Process(Record(k, "v"), &h.ctx, &mid);
    lookup.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  }
  lookup.EndTask(&h.ctx, &h.sink);
  ASSERT_EQ(h.sink.records.size(), 2u);
  EXPECT_EQ(ResultOf(h.sink.records[0], 0), "V(ok)");
  EXPECT_EQ(ResultOf(h.sink.records[1], 0), "<empty>");
  // A failed lookup is still a performed (and charged) lookup.
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookups"), 2.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookup_errors"), 1.0);
  EXPECT_EQ(Hex(h.ctx.sim_time()), "0x1.1492892f133dfp-9");
}

// A cached serial slot and a cached batched slot side by side run the same
// per-key steps: probe the cache, (batched only) ride a pending ticket,
// count the miss, then look up now or submit. Record 2's batched key rides
// the pending ticket of record 1's; records 3, 5 and 7 repeat a serial key.
TEST(InlineLookupStageTest, CachedSerialAndBatchedSlotsSideBySide) {
  obs::ObsSession session;
  StageHarness h;
  h.config.store_batch_depth = 3;
  auto op = std::make_shared<TwoIndexOperator>();
  auto serial = std::make_shared<FakeAccessor>();
  auto batched = std::make_shared<FakeBatchedAccessor>();
  op->AddIndex(serial);
  op->AddIndex(batched);
  PreProcessStage pre(op, nullptr, "efind.t");
  InlineLookupStage lookup(op, {{0, true}, {1, true}}, nullptr, &h.config, 16,
                           "efind.t", nullptr, &session);
  lookup.BeginTask(&h.ctx);
  const std::vector<std::pair<std::string, std::string>> input = {
      {"k1", "a"},   {"k2", "a"},   {"k1", "b"}, {"k3", "none"},
      {"k1", "a"},   {"k4", "err"}, {"k4", "err"}, {"k5", ""}};
  for (const auto& [key, value] : input) {
    VectorEmitter mid;
    pre.Process(Record(key, value), &h.ctx, &mid);
    lookup.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  }
  lookup.EndTask(&h.ctx, &h.sink);
  h.ctx.FinalizeTaskState();

  ASSERT_EQ(h.sink.records.size(), input.size());
  const std::vector<std::string> idx0 = {"V(k1)", "V(k2)", "V(k1)", "V(k3)",
                                         "V(k1)", "V(k4)", "V(k4)", "V(k5)"};
  const std::vector<std::string> idx1 = {"V(a)",    "V(a)",    "V(b)",
                                         "<empty>", "V(a)",    "<empty>",
                                         "<empty>", "<unsized>"};
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(h.sink.records[i].key, input[i].first) << i;
    EXPECT_EQ(ResultOf(h.sink.records[i], 0), idx0[i]) << i;
    EXPECT_EQ(ResultOf(h.sink.records[i], 1), idx1[i]) << i;
  }
  EXPECT_EQ(serial->lookups, 5);
  EXPECT_EQ(batched->submitted, 4);
  EXPECT_EQ(batched->flushes, 2);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookups"), 5.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.cache_hits"), 3.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx1.lookups"), 4.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx1.cache_hits"), 3.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx1.lookup_errors"), 1.0);
  std::map<std::string, std::pair<uint64_t, std::string>> latency;
  for (const auto& [name, hist] : session.metrics().HistogramValues()) {
    latency[name] = {hist.count, Hex(hist.sum)};
  }
  const std::pair<uint64_t, std::string> want0 = {8, "0x1.49dc6cfdda36p-8"};
  const std::pair<uint64_t, std::string> want1 = {7, "0x1.07a9058c1fcd5p-8"};
  EXPECT_EQ(latency["efind.t.idx0.lookup_latency_sec"], want0);
  EXPECT_EQ(latency["efind.t.idx1.lookup_latency_sec"], want1);
  EXPECT_EQ(Hex(h.ctx.sim_time()), "0x1.2f71ffef057e5p-7");
}

/// FakeAccessor with a remote marshalling overhead, so a remote charge
/// exercises every leg of the healthy expression.
class OverheadAccessor : public FakeAccessor {
 public:
  double RemoteOverheadSeconds() const override { return 2.5e-4; }
};

// A site without a failover and a site with an inactive one (no host or
// service faults configured) charge the same healthy lookup cost.
TEST(LookupSiteTest, NullAndInactiveFailoverChargeAlike) {
  ClusterConfig config;
  HostAvailability avail;
  const LookupFailover inactive(&config, &avail);
  ASSERT_FALSE(inactive.active());
  OverheadAccessor accessor;
  const LookupSite bare(&accessor, 0, "efind.s", ".lookup_latency_sec",
                        &config, nullptr, nullptr);
  const LookupSite guarded(&accessor, 0, "efind.s", ".lookup_latency_sec",
                           &config, &inactive, nullptr);
  const CachedResult result = {IndexValue("value-of-the-key")};
  auto charge = [&](const LookupSite& site, bool local) {
    Counters counters;
    TaskContext ctx(1, 0, &counters);
    ctx.AddSimTime(0.125);
    site.Charge("the-key", result, /*error=*/false, local, &ctx, nullptr);
    EXPECT_DOUBLE_EQ(counters.Get("efind.s.lookups"), 1.0);
    return Hex(ctx.sim_time());
  };
  EXPECT_EQ(charge(bare, /*local=*/false), "0x1.029213f1d7fcbp-3");
  EXPECT_EQ(charge(guarded, /*local=*/false), "0x1.029213f1d7fcbp-3");
  EXPECT_EQ(charge(bare, /*local=*/true), "0x1.020c49ba5e354p-3");
  EXPECT_EQ(charge(guarded, /*local=*/true), "0x1.020c49ba5e354p-3");
}

// A lookup stage declares per-node state, and so keeps its phase on
// per-node strands, only for a node cache or breakers under an active
// failover. An uncached slot with a statistics runtime holds none: its
// shadow-cache probes are task-local.
TEST(LookupStageNodeStateTest, CachesAndLiveBreakersOnly) {
  ClusterConfig config;
  config.breaker_failure_threshold = 2;
  ClusterConfig faulted = config;
  faulted.host_downtimes.push_back({3});
  const HostAvailability healthy;
  const HostAvailability outage(faulted);
  const LookupFailover inactive(&config, &healthy);
  const LookupFailover active(&faulted, &outage);
  ASSERT_FALSE(inactive.active());
  ASSERT_TRUE(active.active());
  OperatorRuntime rt(1, config.num_nodes, 16);
  KvStore store{KvStoreOptions{}};
  auto op = std::make_shared<FakeOperator>();
  op->AddIndex(std::make_shared<KvIndexAccessor>("kv", &store));

  auto inline_holds = [&](bool use_cache, OperatorRuntime* runtime,
                          const LookupFailover* failover) {
    const InlineLookupStage stage(op, {{0, use_cache}}, runtime, &config, 16,
                                  "efind.t", failover);
    return stage.holds_node_state();
  };
  EXPECT_TRUE(inline_holds(/*use_cache=*/true, nullptr, nullptr));
  // Shadow-cache probes are task-local: the merge replays them.
  EXPECT_FALSE(inline_holds(/*use_cache=*/false, &rt, nullptr));
  EXPECT_FALSE(inline_holds(/*use_cache=*/false, nullptr, nullptr));
  EXPECT_TRUE(inline_holds(/*use_cache=*/false, nullptr, &active));
  EXPECT_FALSE(inline_holds(/*use_cache=*/false, nullptr, &inactive));

  auto grouped_holds = [&](const LookupFailover* failover) {
    const GroupedLookupStage stage(op, 0, /*local=*/true, &rt, &config,
                                   "efind.t", failover);
    return stage.holds_node_state();
  };
  EXPECT_TRUE(grouped_holds(&active));
  EXPECT_FALSE(grouped_holds(&inactive));
  EXPECT_FALSE(grouped_holds(nullptr));

  // An accessor without a partition scheme gets no breakers to keep live.
  StageHarness h;
  const InlineLookupStage schemeless(h.op, {{0, false}}, nullptr, &config, 16,
                                     "efind.t", &active);
  EXPECT_FALSE(schemeless.holds_node_state());
}

// Records that skipped the shuffle (several keys for the index) pass through
// the grouped stage with every key resolved remotely, in arrival order with
// the grouped records around them — on the serial and the batched driver.
void RunGroupedPassThrough(std::shared_ptr<FakeAccessor> accessor,
                           const std::string& pinned_sim_time) {
  StageHarness h;
  h.op = std::make_shared<FakeOperator>();
  h.op->AddIndex(accessor);
  GroupedLookupStage grouped(h.op, 0, /*local=*/true, nullptr, &h.config,
                             "efind.t");
  auto grouped_record = [](const std::string& ik, const std::string& orig) {
    Record rec(ik, "v");
    auto a = std::make_shared<RecordAttachment>();
    a->keys = {{ik}};
    a->results = {{{}}};
    a->saved_key = orig;
    a->has_saved_key = true;
    rec.attachment = a;
    return rec;
  };
  auto multi_key_record = [](const std::string& key,
                             std::vector<std::string> iks) {
    Record rec(key, "v");
    auto a = std::make_shared<RecordAttachment>();
    a->results = {std::vector<CachedResult>(iks.size())};
    a->keys = {std::move(iks)};
    rec.attachment = a;
    return rec;
  };
  grouped.BeginTask(&h.ctx);
  grouped.Process(grouped_record("kA", "r1"), &h.ctx, &h.sink);
  grouped.Process(multi_key_record("m1", {"p", "err", "q"}), &h.ctx, &h.sink);
  grouped.Process(grouped_record("kA", "r2"), &h.ctx, &h.sink);
  grouped.Process(multi_key_record("m2", {}), &h.ctx, &h.sink);
  grouped.Process(grouped_record("kB", "r3"), &h.ctx, &h.sink);
  grouped.EndTask(&h.ctx, &h.sink);

  ASSERT_EQ(h.sink.records.size(), 5u);
  const std::vector<std::string> keys = {"r1", "m1", "r2", "m2", "r3"};
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(h.sink.records[i].key, keys[i]) << i;
  }
  EXPECT_EQ(ResultOf(h.sink.records[0], 0), "V(kA)");
  EXPECT_EQ(ResultOf(h.sink.records[1], 0, 0), "V(p)");
  EXPECT_EQ(ResultOf(h.sink.records[1], 0, 1), "<empty>");
  EXPECT_EQ(ResultOf(h.sink.records[1], 0, 2), "V(q)");
  EXPECT_FALSE(h.sink.records[1].attachment->has_saved_key);
  EXPECT_EQ(ResultOf(h.sink.records[2], 0), "V(kA)");
  EXPECT_EQ(ResultOf(h.sink.records[4], 0), "V(kB)");
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookups"), 5.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookup_reuses"), 1.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookup_errors"), 1.0);
  EXPECT_EQ(Hex(h.ctx.sim_time()), pinned_sim_time);
}

TEST(GroupedLookupStageTest, MultiKeyRecordsPassThroughSerial) {
  auto accessor = std::make_shared<FakeAccessor>();
  RunGroupedPassThrough(accessor, "0x1.48ab7baa81849p-8");
  EXPECT_EQ(accessor->lookups, 5);
}

TEST(GroupedLookupStageTest, MultiKeyRecordsPassThroughBatched) {
  auto accessor = std::make_shared<FakeBatchedAccessor>();
  RunGroupedPassThrough(accessor, "0x1.4f39346548956p-8");
  EXPECT_EQ(accessor->lookups, 0);
  EXPECT_EQ(accessor->submitted, 5);
  EXPECT_EQ(accessor->flushes, 1);
}

// Drives the grouped stage at batch depth 2 (local mode) through both memo
// tiers: a run still in flight rides its ticket, and a run straddling a
// flush reuses the flushed result. Shuffle-skipped records interleave; their
// keys charge remotely and never join a grouped run, even when equal to it.
void RunGroupedMemoTiers(std::shared_ptr<FakeAccessor> accessor,
                         obs::ObsSession* session, StageHarness* h) {
  h->config.store_batch_depth = 2;
  h->op = std::make_shared<FakeOperator>();
  h->op->AddIndex(accessor);
  GroupedLookupStage grouped(h->op, 0, /*local=*/true, nullptr, &h->config,
                             "efind.t", nullptr, session);
  auto grouped_record = [](const std::string& ik, const std::string& orig) {
    Record rec(ik, "v");
    auto a = std::make_shared<RecordAttachment>();
    a->keys = {{ik}};
    a->results = {{{}}};
    a->saved_key = orig;
    a->has_saved_key = true;
    rec.attachment = a;
    return rec;
  };
  auto skipped_record = [](const std::string& key,
                           std::vector<std::string> iks) {
    Record rec(key, "v");
    auto a = std::make_shared<RecordAttachment>();
    a->results = {std::vector<CachedResult>(iks.size())};
    a->keys = {std::move(iks)};
    rec.attachment = a;
    return rec;
  };
  grouped.BeginTask(&h->ctx);
  grouped.Process(grouped_record("kA", "r1"), &h->ctx, &h->sink);
  grouped.Process(skipped_record("m1", {"p"}), &h->ctx, &h->sink);
  grouped.Process(grouped_record("kA", "r2"), &h->ctx, &h->sink);
  grouped.Process(grouped_record("kA", "r3"), &h->ctx, &h->sink);
  grouped.Process(grouped_record("kB", "r4"), &h->ctx, &h->sink);
  grouped.Process(grouped_record("kB", "r5"), &h->ctx, &h->sink);
  grouped.Process(skipped_record("m2", {"q", "err", "kB"}), &h->ctx,
                  &h->sink);
  grouped.Process(skipped_record("m3", {"s"}), &h->ctx, &h->sink);
  grouped.Process(grouped_record("kB", "r6"), &h->ctx, &h->sink);
  grouped.Process(skipped_record("m4", {}), &h->ctx, &h->sink);
  grouped.Process(grouped_record("kA", "r7"), &h->ctx, &h->sink);
  grouped.Process(grouped_record("kA", "r8"), &h->ctx, &h->sink);
  grouped.Process(grouped_record("kC", "r9"), &h->ctx, &h->sink);
  grouped.EndTask(&h->ctx, &h->sink);
  h->ctx.FinalizeTaskState();

  ASSERT_EQ(h->sink.records.size(), 13u);
  const std::vector<std::string> keys = {"r1", "m1", "r2", "r3", "r4",
                                         "r5", "m2", "m3", "r6", "m4",
                                         "r7", "r8", "r9"};
  const std::vector<std::string> results = {
      "V(kA)", "V(p)", "V(kA)", "V(kA)", "V(kB)", "V(kB)", "V(q)",
      "V(s)",  "V(kB)", "<unsized>", "V(kA)", "V(kA)", "V(kC)"};
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(h->sink.records[i].key, keys[i]) << i;
    EXPECT_EQ(ResultOf(h->sink.records[i], 0), results[i]) << i;
    EXPECT_FALSE(h->sink.records[i].attachment->has_saved_key) << i;
  }
  EXPECT_EQ(ResultOf(h->sink.records[6], 0, 1), "<empty>");
  EXPECT_EQ(ResultOf(h->sink.records[6], 0, 2), "V(kB)");
  EXPECT_DOUBLE_EQ(h->counters.Get("efind.t.idx0.lookups"), 9.0);
  EXPECT_DOUBLE_EQ(h->counters.Get("efind.t.idx0.lookup_reuses"), 5.0);
  EXPECT_DOUBLE_EQ(h->counters.Get("efind.t.idx0.lookup_errors"), 1.0);
}

TEST(GroupedLookupStageTest, MemoTiersAcrossFlushesSerial) {
  auto accessor = std::make_shared<FakeAccessor>();
  StageHarness h;
  RunGroupedMemoTiers(accessor, nullptr, &h);
  EXPECT_EQ(accessor->lookups, 9);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.store.batches"), 0.0);
  EXPECT_EQ(Hex(h.ctx.sim_time()), "0x1.27bcdd6b8081ap-7");
}

TEST(GroupedLookupStageTest, MemoTiersAcrossFlushesBatched) {
  auto accessor = std::make_shared<FakeBatchedAccessor>();
  StageHarness h;
  RunGroupedMemoTiers(accessor, nullptr, &h);
  EXPECT_EQ(accessor->lookups, 0);
  EXPECT_EQ(accessor->submitted, 9);
  EXPECT_EQ(accessor->flushes, 4);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.store.batches"), 4.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.store.batched_lookups"), 9.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.store.page_reads"), 8.0);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.store.coalesced_page_reads"), 1.0);
  EXPECT_EQ(Hex(h.ctx.sim_time()), "0x1.34d84ee10ea34p-7");
}

// Every performed grouped lookup, shuffle-skipped or not, is traced as one
// grouped_lookup span, whichever driver serves the accessor.
TEST(GroupedLookupStageTest, OneSpanPerLookupOnEitherAccessor) {
  auto count_spans = [](std::shared_ptr<FakeAccessor> accessor) {
    obs::ObsSession session;
    {
      StageHarness h;
      RunGroupedMemoTiers(accessor, &session, &h);
    }
    std::map<std::string, int> by_mode;
    for (const auto& task : session.trace().TakeStaged()) {
      for (const auto& e : task.events) {
        if (e.name != "grouped_lookup") continue;
        for (const auto& arg : e.args) {
          if (arg.key == "mode") ++by_mode[arg.value];
        }
      }
    }
    return by_mode;
  };
  const std::map<std::string, int> serial =
      count_spans(std::make_shared<FakeAccessor>());
  const std::map<std::string, int> batched =
      count_spans(std::make_shared<FakeBatchedAccessor>());
  EXPECT_EQ(serial, batched);
  EXPECT_EQ(serial.at("local"), 4);   // kA, kB, kA, kC.
  EXPECT_EQ(serial.at("remote"), 5);  // p, q, err, kB, s.
}

TEST(PostProcessStageTest, StripsAttachmentAndCallsOperator) {
  // The runtime outlives the harness: the harness's TaskContext merges its
  // per-task statistics into `rt` when it is destroyed.
  OperatorRuntime rt(1, 12, 16);
  StageHarness h;
  PostProcessStage post(h.op, &rt, "efind.t");
  Record rec("k1", "v");
  auto a = std::make_shared<RecordAttachment>();
  a->keys = {{"k1"}};
  a->results = {{{IndexValue("V(k1)")}}};
  rec.attachment = a;
  post.BeginTask(&h.ctx);
  post.Process(std::move(rec), &h.ctx, &h.sink);
  post.EndTask(&h.ctx, &h.sink);
  ASSERT_EQ(h.sink.records.size(), 1u);
  EXPECT_EQ(h.sink.records[0].value, "V(k1)");
  EXPECT_EQ(h.sink.records[0].attachment, nullptr);
}

TEST(SchemePartitionerTest, DelegatesToScheme) {
  HashPartitionScheme scheme(32, 12, 3);
  SchemePartitioner partitioner(&scheme);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(partitioner.Partition(key, 32), scheme.PartitionOf(key));
  }
}

TEST(NodeCachesTest, PerNodeIsolation) {
  NodeCaches caches(4, 8);
  caches.ForNode(0).Put("k", {IndexValue("v")});
  CachedResult out;
  EXPECT_TRUE(caches.ForNode(0).Get("k", &out));
  EXPECT_FALSE(caches.ForNode(1).Get("k", &out));
  EXPECT_LT(caches.MissRatio(), 1.0);
}

}  // namespace
}  // namespace efind

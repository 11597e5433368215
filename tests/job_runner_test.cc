#include "mapreduce/job_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "mapreduce/stage_chain.h"
#include "reuse/materialized_store.h"

namespace efind {
namespace {

// Doubles the numeric value of each record.
class DoubleStage : public RecordStage {
 public:
  std::string name() const override { return "double"; }
  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    record.value = std::to_string(2 * std::stoi(record.value));
    out->Emit(std::move(record));
  }
};

// Emits the record once per `copies`.
class FanOutStage : public RecordStage {
 public:
  explicit FanOutStage(int copies) : copies_(copies) {}
  std::string name() const override { return "fanout"; }
  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    for (int i = 0; i < copies_; ++i) out->Emit(record);
  }

 private:
  int copies_;
};

// Drops records with odd values and charges simulated time per record.
class FilterChargeStage : public RecordStage {
 public:
  std::string name() const override { return "filter"; }
  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    ctx->AddSimTime(0.01);
    ctx->counters()->Increment("filter.seen");
    if (std::stoi(record.value) % 2 == 0) out->Emit(std::move(record));
  }
};

// Buffers records and flushes them at task end (exercises EndTask flow and
// the per-task state registry: one stage instance serves concurrent tasks,
// so the buffer lives in the TaskContext, not the stage).
class BufferStage : public RecordStage {
 public:
  std::string name() const override { return "buffer"; }
  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    (void)out;
    Held(ctx)->push_back(std::move(record));
  }
  void EndTask(TaskContext* ctx, Emitter* out) override {
    std::vector<Record>* held = Held(ctx);
    for (auto& r : *held) out->Emit(std::move(r));
    held->clear();
  }

 private:
  std::vector<Record>* Held(TaskContext* ctx) const {
    auto* existing =
        static_cast<std::vector<Record>*>(ctx->FindTaskState(this));
    if (existing != nullptr) return existing;
    auto held = std::make_shared<std::vector<Record>>();
    auto* raw = held.get();
    ctx->AddTaskState(this, std::move(held));
    return raw;
  }
};

class CountReducer : public Reducer {
 public:
  std::string name() const override { return "count"; }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    out->Emit(Record(key, std::to_string(values.size())));
  }
};

std::vector<InputSplit> MakeInput(int splits, int records_per_split) {
  std::vector<InputSplit> input(splits);
  int v = 0;
  for (int s = 0; s < splits; ++s) {
    input[s].node = s % 12;
    for (int r = 0; r < records_per_split; ++r) {
      input[s].records.push_back(
          Record("key" + std::to_string(v % 10), std::to_string(v)));
      ++v;
    }
  }
  return input;
}

TEST(StageChainTest, EmptyChainPassesThrough) {
  std::vector<std::shared_ptr<RecordStage>> stages;
  Counters counters;
  TaskContext ctx(0, 0, &counters);
  std::vector<Record> sink;
  StageChain chain(&stages, &ctx, &sink);
  chain.Begin();
  chain.Push(Record("a", "1"));
  chain.Finish();
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0].key, "a");
}

TEST(StageChainTest, StagesComposeInOrder) {
  std::vector<std::shared_ptr<RecordStage>> stages = {
      std::make_shared<FanOutStage>(2), std::make_shared<DoubleStage>()};
  Counters counters;
  TaskContext ctx(0, 0, &counters);
  std::vector<Record> sink;
  StageChain chain(&stages, &ctx, &sink);
  chain.Begin();
  chain.Push(Record("a", "3"));
  chain.Finish();
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink[0].value, "6");
  EXPECT_EQ(sink[1].value, "6");
}

TEST(StageChainTest, EndTaskOutputFlowsThroughRestOfChain) {
  std::vector<std::shared_ptr<RecordStage>> stages = {
      std::make_shared<BufferStage>(), std::make_shared<DoubleStage>()};
  Counters counters;
  TaskContext ctx(0, 0, &counters);
  std::vector<Record> sink;
  StageChain chain(&stages, &ctx, &sink);
  chain.Begin();
  chain.Push(Record("a", "5"));
  chain.Finish();  // Buffer flushes; Double must still apply.
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0].value, "10");
}

TEST(JobRunnerTest, MapOnlyJobTransformsRecords) {
  ClusterConfig config;
  JobRunner runner(config);
  JobConfig job;
  job.map_stages.push_back(std::make_shared<DoubleStage>());
  JobResult result = runner.Run(job, MakeInput(4, 10));
  EXPECT_EQ(result.num_map_tasks, 4u);
  EXPECT_EQ(result.num_reduce_tasks, 0u);
  // One output split per map task, where the task ran, with every input
  // and output charge in the simulated time: digest and hex-float seconds
  // pinned while map-only output still left through a one-bucket
  // per-record shuffle.
  ASSERT_EQ(result.outputs.size(), 4u);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(result.outputs[s].node, s);
  EXPECT_EQ(reuse::ChecksumSplits(result.outputs), 0x29387651eae9eab4ULL);
  EXPECT_EQ(result.sim_seconds, 0x1.8c06b3f94149fp-9);
  EXPECT_EQ(result.map_seconds, result.sim_seconds);
  auto records = result.CollectRecords();
  ASSERT_EQ(records.size(), 40u);
  // Spot check: value "0" doubled stays "0", "1" becomes "2".
  std::sort(records.begin(), records.end());
  bool found = false;
  for (const auto& r : records) {
    if (r.value == "2") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(JobRunnerTest, MapReduceGroupsByKey) {
  ClusterConfig config;
  JobRunner runner(config);
  JobConfig job;
  job.reducer = std::make_shared<CountReducer>();
  job.num_reduce_tasks = 6;
  JobResult result = runner.Run(job, MakeInput(4, 10));
  EXPECT_EQ(result.num_reduce_tasks, 6u);
  auto records = result.CollectRecords();
  ASSERT_EQ(records.size(), 10u);  // 10 distinct keys.
  for (const auto& r : records) EXPECT_EQ(r.value, "4");  // 40/10 each.
}

TEST(JobRunnerTest, AllKeyOccurrencesLandInOneReduceTask) {
  ClusterConfig config;
  JobRunner runner(config);
  JobConfig job;
  job.reducer = std::make_shared<CountReducer>();
  job.num_reduce_tasks = 4;
  JobResult result = runner.Run(job, MakeInput(8, 25));
  // Each key appears exactly once in the output: grouping is global.
  auto records = result.CollectRecords();
  std::vector<std::string> keys;
  for (const auto& r : records) keys.push_back(r.key);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
}

TEST(JobRunnerTest, CountersAggregateAcrossTasks) {
  ClusterConfig config;
  JobRunner runner(config);
  JobConfig job;
  job.map_stages.push_back(std::make_shared<FilterChargeStage>());
  JobResult result = runner.Run(job, MakeInput(4, 10));
  EXPECT_DOUBLE_EQ(result.counters.Get("filter.seen"), 40.0);
}

TEST(JobRunnerTest, StageSimTimeExtendsTaskDuration) {
  ClusterConfig config;
  JobRunner runner(config);
  JobConfig plain, charged;
  charged.map_stages.push_back(std::make_shared<FilterChargeStage>());
  auto input = MakeInput(2, 100);
  JobResult fast = runner.Run(plain, input);
  JobResult slow = runner.Run(charged, input);
  // 100 records x 0.01 s = 1 s of charged time per task.
  EXPECT_GT(slow.map_seconds, fast.map_seconds + 0.9);
}

TEST(JobRunnerTest, RemoteInputCostsMoreThanLocal) {
  ClusterConfig config;
  config.network_bw_bytes_per_sec = 10e6;  // Slow network vs 100 MB/s disk.
  JobRunner runner(config);
  JobConfig local, remote;
  remote.map_input_remote = true;
  std::vector<InputSplit> input(1);
  input[0].node = 0;
  for (int i = 0; i < 1000; ++i) {
    input[0].records.push_back(Record("k", std::string(1000, 'x')));
  }
  JobResult l = runner.Run(local, input);
  JobResult r = runner.Run(remote, input);
  EXPECT_GT(r.map_seconds, l.map_seconds);
}

TEST(JobRunnerTest, MoreSlotsShortenMakespan) {
  ClusterConfig small, big;
  small.num_nodes = 1;
  small.map_slots_per_node = 1;
  big.num_nodes = 12;
  big.map_slots_per_node = 8;
  JobConfig job;
  job.map_stages.push_back(std::make_shared<FilterChargeStage>());
  auto input = MakeInput(24, 50);
  JobResult serial = JobRunner(small).Run(job, input);
  JobResult parallel = JobRunner(big).Run(job, input);
  EXPECT_GT(serial.map_seconds, 5 * parallel.map_seconds);
}

TEST(JobRunnerTest, ReduceTaskNodesRespected) {
  ClusterConfig config;
  JobRunner runner(config);
  JobConfig job;
  job.reducer = std::make_shared<CountReducer>();
  job.num_reduce_tasks = 3;
  job.reduce_task_nodes = {5, 7, 2};
  JobResult result = runner.Run(job, MakeInput(2, 10));
  ASSERT_EQ(result.outputs.size(), 3u);
  EXPECT_EQ(result.outputs[0].node, 5);
  EXPECT_EQ(result.outputs[1].node, 7);
  EXPECT_EQ(result.outputs[2].node, 2);
}

TEST(JobRunnerTest, ReduceRangeMatchesFullPhase) {
  ClusterConfig config;
  JobRunner runner(config);
  JobConfig job;
  job.reducer = std::make_shared<CountReducer>();
  job.num_reduce_tasks = 8;
  auto input = MakeInput(4, 25);
  MapPhaseResult mp = runner.RunMapPhase(job, ViewOf(input), 0, input.size(),
                                         /*owned=*/nullptr);
  std::vector<const MapTaskResult*> ptrs;
  for (const auto& t : mp.tasks) ptrs.push_back(&t);

  const JobResult whole = runner.Run(job, input);
  ReducePhaseResult lo = runner.RunReduceRange(job, ptrs, 0, 3);
  ReducePhaseResult hi = runner.RunReduceRange(job, ptrs, 3, 8);
  ASSERT_EQ(lo.outputs.size() + hi.outputs.size(), whole.outputs.size());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(lo.outputs[i].records, whole.outputs[i].records);
  }
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(hi.outputs[i].records, whole.outputs[i + 3].records);
  }
}

TEST(JobRunnerTest, ReduceStagesRunAfterReducer) {
  ClusterConfig config;
  JobRunner runner(config);
  JobConfig job;
  job.reducer = std::make_shared<CountReducer>();
  job.reduce_stages.push_back(std::make_shared<DoubleStage>());
  job.num_reduce_tasks = 2;
  JobResult result = runner.Run(job, MakeInput(2, 10));
  for (const auto& r : result.CollectRecords()) {
    EXPECT_EQ(r.value, "4");  // count 2 doubled... (20 records, 10 keys)
  }
}

// ---------------------------------------------------------------------------
// Reduce-side key order: reducers must see their keys in std::string `<`
// order (unsigned byte order, a proper prefix first) whatever the keys look
// like. The adversarial set covers the empty key, keys shorter than eight
// bytes, keys that differ only past an eight-byte prefix or only by
// trailing NULs, bytes >= 0x80, and embedded NULs. The digest and hex
// simulated seconds were pinned while the engine sorted with std::sort.

std::string HexSeconds(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::vector<std::string> AdversarialKeys() {
  using namespace std::string_literals;
  std::vector<std::string> keys = {
      ""s,           "a"s,          "ab"s,          "ab\0"s,
      "ab\0\0"s,     "ab\0cd"s,     "\0"s,          "\0\0"s,
      "\0a"s,        "abcdefgh"s,   "abcdefgh\0"s,  "abcdefghA"s,
      "abcdefghB"s,  "abcdefgh\x80"s, "abcdefg\xff"s, "\x7f"s,
      "\x80"s,       "\xff"s,       "\xff\xfe"s,    "\xff\xff\xff\xff\xff"
                                                    "\xff\xff\xff\xff"s,
      "a\x80"s,      "a\x7f"s,      "zz"s};
  // Random keys over a tiny alphabet (NUL, 0x01, 'a', 0x7f, 0x80, 0xff)
  // and lengths 0..12: many share long prefixes, enough for the reduce
  // side to sort hundreds of distinct keys per task.
  const char alphabet[] = {'\0', '\x01', 'a', '\x7f', '\x80', '\xff'};
  Rng rng(99);
  for (int i = 0; i < 1500; ++i) {
    std::string k;
    const uint64_t len = rng.Uniform(13);
    for (uint64_t b = 0; b < len; ++b) k += alphabet[rng.Uniform(6)];
    keys.push_back(k);
  }
  return keys;
}

std::vector<InputSplit> AdversarialInput() {
  const std::vector<std::string> keys = AdversarialKeys();
  std::vector<InputSplit> input(5);
  Rng rng(7);
  for (int s = 0; s < 5; ++s) {
    input[s].node = s;
    for (int r = 0; r < 900; ++r) {
      input[s].records.push_back(Record(keys[rng.Uniform(keys.size())],
                                        std::to_string(s * 1000 + r), r % 3));
    }
  }
  return input;
}

// Emits one record per group, so each output split lists the keys its
// reduce task saw, in the order it saw them.
class KeyLogReducer : public Reducer {
 public:
  std::string name() const override { return "keylog"; }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    std::string joined;
    for (const Record& v : values) joined += v.value + ",";
    out->Emit(Record(key, joined));
  }
};

TEST(JobRunnerTest, ReducersSeeKeysInByteOrder) {
  const std::vector<InputSplit> input = AdversarialInput();
  std::set<std::string> distinct;
  for (const auto& s : input) {
    for (const auto& r : s.records) distinct.insert(r.key);
  }
  ClusterConfig config;
  JobRunner runner(config);
  JobConfig job;
  job.reducer = std::make_shared<KeyLogReducer>();
  job.num_reduce_tasks = 3;
  const JobResult result = runner.Run(job, input);

  std::set<std::string> seen;
  for (const InputSplit& split : result.outputs) {
    for (size_t i = 1; i < split.records.size(); ++i) {
      EXPECT_LT(split.records[i - 1].key, split.records[i].key);
    }
    for (const Record& r : split.records) seen.insert(r.key);
  }
  EXPECT_EQ(seen, distinct);
  EXPECT_EQ(reuse::ChecksumSplits(result.outputs), 0x62e3c2eb5eb59a1aULL);
  EXPECT_EQ(HexSeconds(result.sim_seconds), "0x1.7832f52869339p-7");
}

TEST(JobRunnerTest, ReduceStagesSeeRecordsGroupedInByteOrder) {
  // No reducer: records stream into the reduce stages grouped by key, keys
  // in byte order, values in arrival order (split order, then record order).
  const std::vector<InputSplit> input = AdversarialInput();
  ClusterConfig config;
  JobRunner runner(config);
  JobConfig job;
  job.reduce_stages.push_back(std::make_shared<DoubleStage>());
  const JobResult result = runner.Run(job, input);
  ASSERT_EQ(result.outputs.size(), 1u);
  const std::vector<Record>& out = result.outputs[0].records;
  size_t total = 0;
  for (const auto& s : input) total += s.records.size();
  ASSERT_EQ(out.size(), total);
  for (size_t i = 1; i < out.size(); ++i) {
    ASSERT_LE(out[i - 1].key, out[i].key);
    if (out[i - 1].key == out[i].key) {
      EXPECT_LT(std::stoi(out[i - 1].value), std::stoi(out[i].value));
    }
  }
  EXPECT_EQ(reuse::ChecksumSplits(result.outputs), 0x36bdcccaf86890e4ULL);
  EXPECT_EQ(HexSeconds(result.sim_seconds), "0x1.2900ddd40ebe4p-6");
}

// A node-stateless stage whose tasks each wait, up to 10 s, for a second
// task to be inside a task of the phase at the same time. Once one wait
// times out, no later task waits, so a serial phase costs one timeout.
class RendezvousStage : public RecordStage {
 public:
  std::string name() const override { return "rendezvous"; }
  void BeginTask(TaskContext* ctx) override {
    (void)ctx;
    std::unique_lock<std::mutex> lock(mu_);
    if (++inside_ >= 2) overlapped_ = true;
    cv_.notify_all();
    if (overlapped_ || timed_out_) return;
    if (!cv_.wait_for(lock, std::chrono::seconds(10),
                      [this] { return overlapped_; })) {
      timed_out_ = true;
    }
  }
  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    out->Emit(std::move(record));
  }
  void EndTask(TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    (void)out;
    std::lock_guard<std::mutex> lock(mu_);
    --inside_;
  }
  bool overlapped() {
    std::lock_guard<std::mutex> lock(mu_);
    return overlapped_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int inside_ = 0;
  bool overlapped_ = false;
  bool timed_out_ = false;
};

// A phase whose stages hold no per-node state runs task by task: on a
// one-node cluster, two of its tasks run at once on a 4-thread pool, in the
// map phase and in the reduce phase.
TEST(JobRunnerTest, NodeStatelessPhasesRunTasksConcurrently) {
  ClusterConfig config;
  config.num_nodes = 1;
  JobRunner runner(config);
  runner.set_num_threads(4);
  auto map_stage = std::make_shared<RendezvousStage>();
  auto reduce_stage = std::make_shared<RendezvousStage>();
  JobConfig job;
  job.map_stages.push_back(map_stage);
  job.reducer = std::make_shared<CountReducer>();
  job.reduce_stages.push_back(reduce_stage);
  job.num_reduce_tasks = 6;
  std::vector<InputSplit> input = MakeInput(8, 20);
  for (InputSplit& split : input) split.node = 0;

  const JobResult result = runner.Run(job, input);
  EXPECT_TRUE(map_stage->overlapped());
  EXPECT_TRUE(reduce_stage->overlapped());
  EXPECT_EQ(result.num_map_tasks, 8u);
  EXPECT_EQ(result.num_reduce_tasks, 6u);
}

// A stage that declares per-node state logs the task order it sees on each
// node and flags any task that enters while another task of its node is
// still inside.
class NodeLogStage : public RecordStage {
 public:
  std::string name() const override { return "node_log"; }
  bool holds_node_state() const override { return true; }
  void BeginTask(TaskContext* ctx) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (inside_[ctx->node_id()]++ > 0) overlap_ = true;
      order_[ctx->node_id()].push_back(ctx->task_index());
    }
    // Hold the node a little so a concurrent entry would be seen.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    out->Emit(std::move(record));
  }
  void EndTask(TaskContext* ctx, Emitter* out) override {
    (void)out;
    std::lock_guard<std::mutex> lock(mu_);
    --inside_[ctx->node_id()];
  }
  bool overlap() const { return overlap_; }
  const std::map<int, std::vector<int>>& order() const { return order_; }

 private:
  std::mutex mu_;
  std::map<int, int> inside_;
  std::map<int, std::vector<int>> order_;
  bool overlap_ = false;
};

// Declared per-node state keeps per-node strands at threads=8: each node
// sees its tasks one at a time, in ascending task index, in both phases.
TEST(JobRunnerTest, NodeStatePhasesKeepPerNodeStrands) {
  ClusterConfig config;
  JobRunner runner(config);
  runner.set_num_threads(8);
  auto map_stage = std::make_shared<NodeLogStage>();
  auto reduce_stage = std::make_shared<NodeLogStage>();
  JobConfig job;
  job.map_stages.push_back(map_stage);
  job.reducer = std::make_shared<CountReducer>();
  job.reduce_stages.push_back(reduce_stage);
  job.num_reduce_tasks = 30;
  const std::vector<InputSplit> input = MakeInput(40, 10);

  runner.Run(job, input);
  for (const auto* stage : {map_stage.get(), reduce_stage.get()}) {
    EXPECT_FALSE(stage->overlap());
    size_t tasks = 0;
    for (const auto& [node, order] : stage->order()) {
      EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
          << "node " << node;
      tasks += order.size();
    }
    EXPECT_EQ(stage->order().size(), 12u);
    EXPECT_EQ(tasks, stage == map_stage.get() ? 40u : 30u);
  }
}

TEST(RecordTest, SizeIncludesVirtualBytesAndAttachment) {
  Record r("key", "value", 100);
  EXPECT_EQ(r.size_bytes(), 3u + 5u + 100u);
  auto att = std::make_shared<RecordAttachment>();
  att->keys = {{"ik1"}};
  att->results = {{{IndexValue("res", 50)}}};
  r.attachment = att;
  EXPECT_EQ(r.size_bytes(), 108u + 3u + 53u);
}

}  // namespace
}  // namespace efind

#include "mapreduce/record_batch.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "mapreduce/job_runner.h"
#include "reuse/fingerprint.h"
#include "reuse/materialized_store.h"

namespace efind {
namespace {

Record MakeAttachedRecord(int i) {
  Record r("key" + std::to_string(i % 7), "value" + std::to_string(i),
           static_cast<uint64_t>(i) * 10);
  if (i % 3 == 0) {
    auto att = std::make_shared<RecordAttachment>();
    att->keys = {{"ik" + std::to_string(i)}};
    att->results = {{{IndexValue("res" + std::to_string(i), 5)}}};
    r.attachment = att;
  }
  return r;
}

// Deep equality of two records' attachments (both absent, or equal keys,
// results and saved key).
void ExpectSameAttachment(const Record& actual, const Record& expected) {
  ASSERT_EQ(actual.attachment == nullptr, expected.attachment == nullptr);
  if (expected.attachment == nullptr) return;
  const RecordAttachment& a = *actual.attachment;
  const RecordAttachment& e = *expected.attachment;
  EXPECT_EQ(a.keys, e.keys);
  EXPECT_EQ(a.results, e.results);
  EXPECT_EQ(a.saved_key, e.saved_key);
  EXPECT_EQ(a.has_saved_key, e.has_saved_key);
}

std::vector<Record> MakeRecords(int n) {
  std::vector<Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) records.push_back(MakeAttachedRecord(i));
  return records;
}

TEST(RecordBatchTest, RoundTripsByteIdenticallyWithRecordVector) {
  const std::vector<Record> original = MakeRecords(200);
  RecordBatch batch = RecordBatch::FromRecords(original);
  ASSERT_EQ(batch.size(), original.size());

  const std::vector<Record> back = batch.ToRecords();
  ASSERT_EQ(back.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(back[i].key, original[i].key);
    EXPECT_EQ(back[i].value, original[i].value);
    EXPECT_EQ(back[i].extra_bytes, original[i].extra_bytes);
    // Attachments come back as fresh, deep-equal copies.
    ExpectSameAttachment(back[i], original[i]);
    EXPECT_EQ(back[i].size_bytes(), original[i].size_bytes());
  }
}

TEST(RecordBatchTest, RandomizedRoundTripProperty) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Record> original;
    const int n = static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < n; ++i) {
      std::string key, value;
      const int klen = static_cast<int>(rng.Uniform(20));
      const int vlen = static_cast<int>(rng.Uniform(200));
      for (int c = 0; c < klen; ++c) {
        key.push_back(static_cast<char>(rng.Uniform(256)));
      }
      for (int c = 0; c < vlen; ++c) {
        value.push_back(static_cast<char>(rng.Uniform(256)));
      }
      original.emplace_back(std::move(key), std::move(value), rng.Uniform(1000));
    }
    RecordBatch batch = RecordBatch::FromRecords(original);
    const std::vector<Record> back = batch.ToRecords();
    ASSERT_EQ(back.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(back[i], original[i]) << "trial " << trial << " record " << i;
      EXPECT_EQ(batch.LogicalBytesAt(i), original[i].size_bytes());
    }
  }
}

TEST(RecordBatchTest, ViewsAndAccessorsMatchRecords) {
  const std::vector<Record> original = MakeRecords(30);
  RecordBatch batch = RecordBatch::FromRecords(original);
  uint64_t payload = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(batch.KeyAt(i), original[i].key);
    EXPECT_EQ(batch.ValueAt(i), original[i].value);
    EXPECT_EQ(batch.ExtraAt(i), original[i].extra_bytes);
    ExpectSameAttachment(batch.MaterializeRecord(i), original[i]);
    RecordBatch::View v = batch.at(i);
    EXPECT_EQ(v.key, original[i].key);
    EXPECT_EQ(v.value, original[i].value);
    EXPECT_EQ(v.logical_bytes, original[i].size_bytes());
    payload += original[i].size_bytes();
  }
  EXPECT_EQ(batch.payload_bytes(), payload);
}

TEST(RecordBatchTest, AppendFromCarriesPayloadAndAttachment) {
  const std::vector<Record> original = MakeRecords(20);
  RecordBatch src = RecordBatch::FromRecords(original);
  RecordBatch dst;
  for (size_t i = 0; i < src.size(); i += 2) dst.AppendFrom(src, i);
  ASSERT_EQ(dst.size(), 10u);
  for (size_t i = 0; i < dst.size(); ++i) {
    const Record r = dst.MaterializeRecord(i);
    EXPECT_EQ(r, original[2 * i]);
    ExpectSameAttachment(r, original[2 * i]);
    EXPECT_EQ(dst.LogicalBytesAt(i), original[2 * i].size_bytes());
  }
}

TEST(RecordBatchTest, ContentChecksumMatchesArtifactFraming) {
  // A batch digests identically to the reuse store's split digest of the
  // same records — the shared ChecksumRecord framing (DESIGN.md §11).
  const std::vector<Record> records = MakeRecords(64);
  RecordBatch batch = RecordBatch::FromRecords(records);

  Checksum64 manual;
  for (const Record& r : records) {
    ChecksumRecord(&manual, r.key, r.value, r.extra_bytes);
  }
  EXPECT_EQ(batch.ContentChecksum(), manual.Digest());

  // And via ChecksumSplits (which frames a leading record count per split).
  InputSplit split;
  split.records = records;
  Checksum64 framed;
  framed.UpdateU64(static_cast<uint64_t>(records.size()));
  for (const Record& r : records) {
    ChecksumRecord(&framed, r.key, r.value, r.extra_bytes);
  }
  EXPECT_EQ(reuse::ChecksumSplits({split}), framed.Digest());
}

// Attachment wire form: every shape an operator can produce survives the
// encode/decode round trip, and the batch's sizes and digests are those of
// the records it was built from.
std::vector<Record> WireFormRecords() {
  const std::string binary("\0k\x80\xff\0", 5);  // NUL and bytes >= 0x80.
  std::vector<Record> records;
  records.emplace_back("plain", "no attachment", 9);
  for (int indices = 0; indices <= 3; ++indices) {
    for (int shape = 0; shape < 4; ++shape) {
      auto att = std::make_shared<RecordAttachment>();
      att->keys.resize(indices);
      att->results.resize(shape == 1 ? 0 : indices);
      for (int j = 0; j < indices; ++j) {
        if (shape == 2 && j == 0) continue;  // An empty key list.
        for (int k = 0; k <= j; ++k) {
          att->keys[j].push_back(k == 0 ? binary
                                        : "ik" + std::to_string(j * 10 + k));
        }
        if (shape == 1) continue;  // No results yet.
        att->results[j].resize(att->keys[j].size());
        for (size_t k = 0; k < att->keys[j].size(); ++k) {
          if (k == 1) continue;  // An empty result list.
          att->results[j][k].emplace_back(binary + std::to_string(k),
                                          uint64_t{1} << (10 * shape));
          att->results[j][k].emplace_back("", uint64_t{1} << 40);
        }
      }
      att->has_saved_key = shape % 2 == 1;
      att->saved_key = shape == 3 ? "" : "saved" + binary;
      Record r("k" + std::to_string(indices) + binary,
               std::string(shape == 3 ? 70 * 1024 : 16, 'v'),
               static_cast<uint64_t>(shape) << 33);
      r.attachment = std::move(att);
      records.push_back(std::move(r));
    }
  }
  // An attachment with nothing in it still round-trips as present.
  Record empty("empty", "", 0);
  empty.attachment = std::make_shared<RecordAttachment>();
  records.push_back(std::move(empty));
  return records;
}

TEST(RecordBatchTest, AttachmentWireFormRoundTrips) {
  const std::vector<Record> original = WireFormRecords();
  RecordBatch batch;
  for (const Record& r : original) batch.Append(r);
  RecordBatch copied;
  for (size_t i = 0; i < batch.size(); ++i) copied.AppendFrom(batch, i);
  const auto slice = batch.Slice(1, batch.size());
  ASSERT_EQ(batch.size(), original.size());
  ASSERT_EQ(slice->size(), original.size() - 1);
  uint64_t payload = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    for (const RecordBatch* b : {&batch, &copied}) {
      const Record r = b->MaterializeRecord(i);
      EXPECT_EQ(r, original[i]);
      ExpectSameAttachment(r, original[i]);
      EXPECT_EQ(b->LogicalBytesAt(i), original[i].size_bytes());
    }
    if (i > 0) {
      ExpectSameAttachment(slice->MaterializeRecord(i - 1), original[i]);
      EXPECT_EQ(slice->LogicalBytesAt(i - 1), original[i].size_bytes());
    }
    payload += original[i].size_bytes();
  }
  EXPECT_EQ(batch.payload_bytes(), payload);
  EXPECT_EQ(copied.payload_bytes(), payload);
  EXPECT_EQ(slice->payload_bytes(), payload - original[0].size_bytes());

  // A materialized attachment is the caller's own: mutating it leaves the
  // batch's copy untouched.
  Record first = batch.MaterializeRecord(4);
  ASSERT_NE(first.attachment, nullptr);
  EXPECT_EQ(first.attachment.use_count(), 1);
  std::const_pointer_cast<RecordAttachment>(first.attachment)->keys.clear();
  ExpectSameAttachment(batch.MaterializeRecord(4), original[4]);

  // Digests and sizes exclude nothing but attachments, in either form.
  InputSplit records_form;
  records_form.records = original;
  InputSplit batch_form;
  batch_form.batch = std::make_shared<RecordBatch>(std::move(copied));
  EXPECT_EQ(batch.ContentChecksum(), [&] {
    Checksum64 sum;
    for (const Record& r : original) {
      ChecksumRecord(&sum, r.key, r.value, r.extra_bytes);
    }
    return sum.Digest();
  }());
  EXPECT_EQ(reuse::ChecksumSplits({batch_form}),
            reuse::ChecksumSplits({records_form}));
  EXPECT_EQ(reuse::FingerprintSplits({batch_form}),
            reuse::FingerprintSplits({records_form}));
  EXPECT_EQ(batch_form.num_records(), original.size());
  EXPECT_EQ(batch_form.size_bytes(), records_form.size_bytes());
  std::vector<Record> appended;
  batch_form.AppendRecordsTo(&appended);
  ASSERT_EQ(appended, original);
  for (size_t i = 0; i < original.size(); ++i) {
    ExpectSameAttachment(appended[i], original[i]);
  }
  batch_form.Materialize();
  EXPECT_EQ(batch_form.batch, nullptr);
  ASSERT_EQ(batch_form.records.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(batch_form.records[i], original[i]);
    ExpectSameAttachment(batch_form.records[i], original[i]);
  }
}

TEST(RecordBatchTest, ArenaBackedBatchDoesZeroOwnHeapAllocations) {
  Arena arena(1 << 20);
  RecordBatch batch(&arena);
  batch.Reserve(256, 1 << 16);
  const uint64_t table_allocs = batch.heap_allocations();
  for (int i = 0; i < 200; ++i) {
    batch.Append("key" + std::to_string(i), std::string(100, 'v'), 7, nullptr);
  }
  // Buffer growth went through the arena; only the (reserved) tables count.
  EXPECT_EQ(batch.heap_allocations(), table_allocs);
  EXPECT_GT(arena.heap_allocations(), 0u);
}

TEST(RecordBatchTest, ClearKeepsHeapCapacity) {
  RecordBatch batch;
  for (int i = 0; i < 100; ++i) {
    batch.Append(MakeAttachedRecord(i));
  }
  const uint64_t reserved = batch.buffer_reserved_bytes();
  const uint64_t allocs = batch.heap_allocations();
  batch.Clear();
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(batch.payload_bytes(), 0u);
  for (int i = 0; i < 100; ++i) batch.Append(MakeAttachedRecord(i));
  EXPECT_EQ(batch.buffer_reserved_bytes(), reserved);
  EXPECT_EQ(batch.heap_allocations(), allocs);
}

TEST(RecordBatchTest, EmptyKeysAndValuesSurvive) {
  RecordBatch batch;
  batch.Append("", "", 0, nullptr);
  batch.Append("", "v", 3, nullptr);
  batch.Append("k", "", 0, nullptr);
  EXPECT_EQ(batch.KeyAt(0), "");
  EXPECT_EQ(batch.ValueAt(0), "");
  EXPECT_EQ(batch.KeyAt(1), "");
  EXPECT_EQ(batch.ValueAt(1), "v");
  EXPECT_EQ(batch.ExtraAt(1), 3u);
  EXPECT_EQ(batch.KeyAt(2), "k");
  EXPECT_EQ(batch.MaterializeRecord(1), Record("", "v", 3));
}

// ---------------------------------------------------------------------------
// End-to-end shuffle jobs against pinned results. Each pin — output digest
// (`reuse::ChecksumSplits`) and hex-float simulated map/reduce/job seconds —
// was taken while the engine still ran a per-record `std::vector<Record>`
// shuffle next to the batched one and both agreed bit for bit; the hash and
// pass-through jobs are also checked against an in-test `std::map`
// grouping.

class WordLengthReducer : public Reducer {
 public:
  std::string name() const override { return "wordlen"; }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    uint64_t total = 0;
    for (const auto& v : values) total += v.value.size() + v.extra_bytes;
    out->Emit(Record(key, std::to_string(total)));
  }
};

struct Pin {
  uint64_t digest;
  double sim_seconds;
  double map_seconds;
  double reduce_seconds;
};

void ExpectPinned(const JobResult& r, const Pin& pin) {
  EXPECT_EQ(reuse::ChecksumSplits(r.outputs), pin.digest);
  EXPECT_EQ(r.sim_seconds, pin.sim_seconds);
  EXPECT_EQ(r.map_seconds, pin.map_seconds);
  EXPECT_EQ(r.reduce_seconds, pin.reduce_seconds);
}

/// Reference shuffle: bucket every input record by `bucket_of(key)`, group
/// each bucket's records by key in arrival order (split order, then record
/// order), and hand the groups over in key order.
template <typename BucketOf>
std::vector<std::map<std::string, std::vector<Record>>> ReferenceGroups(
    const std::vector<InputSplit>& input, int buckets, BucketOf bucket_of) {
  std::vector<std::map<std::string, std::vector<Record>>> groups(buckets);
  for (const InputSplit& split : input) {
    for (const Record& r : split.records) {
      groups[bucket_of(r.key)][r.key].push_back(r);
    }
  }
  return groups;
}

TEST(RecordBatchTest, BatchedShuffleMatchesLegacyByteForByte) {
  std::vector<InputSplit> input(6);
  Rng rng(7);
  for (int s = 0; s < 6; ++s) {
    input[s].node = s % 3;
    for (int i = 0; i < 50; ++i) {
      input[s].records.push_back(
          MakeAttachedRecord(static_cast<int>(rng.Uniform(1000))));
    }
  }
  JobConfig job;
  job.reducer = std::make_shared<WordLengthReducer>();
  job.num_reduce_tasks = 5;

  ClusterConfig config;
  JobRunner runner(config);
  const JobResult a = runner.Run(job, input);
  ExpectPinned(a, {0x42199fa1d760409aULL, 0x1.27b4a2bd0c6ep-6,
                   0x1.3fb609a2fd2bdp-7, 0x1.0fb33bd71bb04p-7});

  // Reference: hash-partition, group by key, reduce in key order.
  const auto groups = ReferenceGroups(input, 5, [](const std::string& k) {
    return HashPartitioner().Partition(k, 5);
  });
  ASSERT_EQ(a.outputs.size(), 5u);
  TaskContext ctx(0, 0, nullptr);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(a.outputs[r].node, r % config.num_nodes);
    std::vector<Record> expected;
    struct Sink : Emitter {
      std::vector<Record>* out;
      void Emit(Record rec) override { out->push_back(std::move(rec)); }
    } sink;
    sink.out = &expected;
    for (const auto& [key, values] : groups[r]) {
      job.reducer->Reduce(key, values, &ctx, &sink);
    }
    EXPECT_EQ(a.outputs[r].records, expected) << "reduce task " << r;
  }
  // The batched run reports its shuffle telemetry; zero integrity failures.
  EXPECT_GT(a.counters.Get("mr.shuffle.records"), 0.0);
  EXPECT_GT(a.counters.Get("efind.alloc.bytes"), 0.0);
  EXPECT_GT(a.counters.Get("efind.alloc.count"), 0.0);
  EXPECT_EQ(a.counters.Get("mr.shuffle.checksum_mismatch"), 0.0);
}

// The salting partitioner (DESIGN.md §12) through the shuffle: bucket
// contents match the pin (the per-task SaltCycler sees split record
// order), and the hot key's records actually spread across several reduce
// tasks.
TEST(RecordBatchTest, SaltingPartitionerMatchesLegacyAndSpreadsHotKey) {
  std::vector<InputSplit> input(6);
  Rng rng(11);
  for (int s = 0; s < 6; ++s) {
    input[s].node = s % 3;
    for (int i = 0; i < 60; ++i) {
      // Every third record hits the hot key; the rest spread uniformly.
      const int key = i % 3 == 0 ? 3 : static_cast<int>(rng.Uniform(1000));
      input[s].records.push_back(MakeAttachedRecord(key));
    }
  }
  JobConfig job;
  job.reducer = std::make_shared<WordLengthReducer>();
  job.num_reduce_tasks = 12;
  job.partitioner = std::make_shared<SaltingPartitioner>(
      std::vector<uint64_t>{Hash64(MakeAttachedRecord(3).key)},
      /*fanout=*/3);

  ClusterConfig config;
  JobRunner runner(config);
  const JobResult a = runner.Run(job, input);
  ExpectPinned(a, {0x57529735fd3183e6ULL, 0x1.cd5d37e0e4534p-7,
                   0x1.1ae7037c2dc55p-7, 0x1.64ec68c96d1bfp-8});
  EXPECT_EQ(a.counters.Get("mr.shuffle.checksum_mismatch"), 0.0);

  // The hot key reduces in several tasks: its reduced record (one per
  // reduce task that received it) appears in >= 2 output splits.
  const std::string hot_key = MakeAttachedRecord(3).key;
  int splits_with_hot = 0;
  for (const auto& split : a.outputs) {
    for (const auto& r : split.records) {
      if (r.key == hot_key) {
        ++splits_with_hot;
        break;
      }
    }
  }
  EXPECT_GE(splits_with_hot, 2) << "salting failed to spread the hot key";
}

TEST(RecordBatchTest, PassThroughReducePhaseMatchesLegacy) {
  std::vector<InputSplit> input(4);
  for (int s = 0; s < 4; ++s) {
    input[s].node = s;
    for (int i = 0; i < 30; ++i) {
      input[s].records.push_back(MakeAttachedRecord(s * 100 + i));
    }
  }
  // Reduce stages without a reducer: the shuffle runs, records pass through
  // grouped and key-sorted.
  class Tag : public RecordStage {
   public:
    std::string name() const override { return "tag"; }
    void Process(Record r, TaskContext* ctx, Emitter* out) override {
      (void)ctx;
      r.value += "!";
      out->Emit(std::move(r));
    }
  };
  JobConfig job;
  job.reduce_stages.push_back(std::make_shared<Tag>());

  ClusterConfig config;
  JobRunner runner(config);
  const JobResult a = runner.Run(job, input);
  ExpectPinned(a, {0x3b3b69f536dcb5ffULL, 0x1.a8d986214a5b2p-7,
                   0x1.5dc1fd100b90dp-8, 0x1.f3f10f3289257p-8});

  // Reference: one reduce task; every record, grouped by key in key order,
  // arrival order within a key, tagged.
  const auto groups =
      ReferenceGroups(input, 1, [](const std::string&) { return 0; });
  std::vector<Record> expected;
  for (const auto& [key, values] : groups[0]) {
    for (Record r : values) {
      r.value += "!";
      expected.push_back(std::move(r));
    }
  }
  ASSERT_EQ(a.outputs.size(), 1u);
  EXPECT_EQ(a.outputs[0].records, expected);
}

// A pure pass-through reduce (a pass-through reducer, no reduce stages)
// leaves its output in batch form, attachments included; the next job's map
// tasks read it exactly as they read the same records in record form, on
// the shuffled path (stage-less and staged) and on the map-only path, both
// borrowed and consumed.
TEST(RecordBatchTest, PassThroughOutputFeedsTheNextJobInBatchForm) {
  class PassThrough : public Reducer {
   public:
    std::string name() const override { return "pass"; }
    void Reduce(const std::string& key, std::vector<Record> values,
                TaskContext* ctx, Emitter* out) override {
      (void)key;
      (void)ctx;
      for (Record& r : values) out->Emit(std::move(r));
    }
    bool pass_through() const override { return true; }
  };
  class Tag : public RecordStage {
   public:
    std::string name() const override { return "tag"; }
    void Process(Record r, TaskContext* ctx, Emitter* out) override {
      (void)ctx;
      r.value += "!";
      out->Emit(std::move(r));
    }
  };
  std::vector<InputSplit> input(4);
  for (int s = 0; s < 4; ++s) {
    input[s].node = s;
    for (int i = 0; i < 40; ++i) {
      input[s].records.push_back(MakeAttachedRecord(s * 100 + i));
    }
  }
  JobConfig group;
  group.reducer = std::make_shared<PassThrough>();
  group.num_reduce_tasks = 3;
  ClusterConfig config;
  JobRunner runner(config);
  const JobResult grouped = runner.Run(group, input);

  std::vector<InputSplit> as_records = grouped.outputs;
  uint64_t records = 0;
  for (InputSplit& split : as_records) {
    ASSERT_NE(split.batch, nullptr);
    EXPECT_TRUE(split.records.empty());
    records += split.num_records();
    const uint64_t bytes = split.size_bytes();
    split.Materialize();
    EXPECT_EQ(split.size_bytes(), bytes);
  }
  EXPECT_EQ(records, 160u);
  EXPECT_EQ(reuse::ChecksumSplits(grouped.outputs),
            reuse::ChecksumSplits(as_records));
  const std::vector<Record> collected = grouped.CollectRecords();
  ASSERT_EQ(collected.size(), records);
  size_t k = 0;
  for (const InputSplit& split : as_records) {
    for (const Record& r : split.records) {
      EXPECT_EQ(collected[k], r);
      ExpectSameAttachment(collected[k++], r);
    }
  }

  JobConfig reduce;  // Stage-less shuffle.
  reduce.reducer = std::make_shared<WordLengthReducer>();
  reduce.num_reduce_tasks = 2;
  JobConfig staged = reduce;
  staged.map_stages.push_back(std::make_shared<Tag>());
  JobConfig map_only;
  map_only.map_stages.push_back(std::make_shared<Tag>());
  for (const JobConfig* job : {&reduce, &staged, &map_only}) {
    SCOPED_TRACE(job == &reduce ? "stage-less" : job == &staged ? "staged"
                                                                : "map-only");
    const JobResult want = runner.Run(*job, as_records);
    const JobResult borrowed = runner.Run(*job, grouped.outputs);
    std::vector<InputSplit> owned = grouped.outputs;
    const JobResult consumed = runner.Run(*job, std::move(owned));
    for (const JobResult* got : {&borrowed, &consumed}) {
      EXPECT_EQ(reuse::ChecksumSplits(got->outputs),
                reuse::ChecksumSplits(want.outputs));
      EXPECT_EQ(got->sim_seconds, want.sim_seconds);
      EXPECT_EQ(got->counters.Get("mr.shuffle.records"),
                want.counters.Get("mr.shuffle.records"));
    }
  }
  // Neither run disturbed the batch-form splits they read.
  EXPECT_EQ(reuse::ChecksumSplits(grouped.outputs),
            reuse::ChecksumSplits(as_records));
}

}  // namespace
}  // namespace efind

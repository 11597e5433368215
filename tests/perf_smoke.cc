// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Sanitizer smoke for the batched record hot path (DESIGN.md §11): runs a
// shuffle job over attachment-carrying records at threads=1 and threads=4
// and checks both against a pinned output digest and simulated time, plus
// direct arena stress (reset/reuse, large-object spill, cross-thread task
// confinement).
// Compiled twice: under ThreadSanitizer (races — arenas are task-confined,
// batches cross task boundaries read-only) and under AddressSanitizer with
// leak detection (bulk frees, spill blocks, buffer growth abandonment).
// Exits nonzero on any disagreement; the sanitizer itself fails the test on
// a race/leak/overflow.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/checksum.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/record_batch.h"

namespace efind {
namespace {

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,    \
                   __LINE__, #cond);                                   \
      std::exit(1);                                                    \
    }                                                                  \
  } while (0)

class SplitValueReducer : public Reducer {
 public:
  std::string name() const override { return "splitval"; }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    uint64_t bytes = 0;
    for (const auto& v : values) bytes += v.size_bytes();
    out->Emit(Record(key, std::to_string(bytes)));
  }
};

std::vector<InputSplit> MakeInput() {
  std::vector<InputSplit> input(24);
  for (int s = 0; s < 24; ++s) {
    input[s].node = s % 8;
    for (int i = 0; i < 120; ++i) {
      Record r("key" + std::to_string((s * 131 + i * 7) % 61),
               "value-" + std::string(1 + i % 37, 'x'),
               static_cast<uint64_t>(i % 11) * 100);
      if (i % 4 == 0) {
        auto att = std::make_shared<RecordAttachment>();
        att->keys = {{"ik" + std::to_string(i)}};
        att->results = {{{IndexValue("res" + std::to_string(s), 40)}}};
        r.attachment = std::move(att);
      }
      input[s].records.push_back(std::move(r));
    }
  }
  return input;
}

void ArenaStress() {
  // Task-confined usage pattern under the same thread pool the engine uses:
  // each simulated task owns its own arena (no sharing, no races).
  ThreadPool pool(4);
  for (int t = 0; t < 16; ++t) {
    pool.Submit([t] {
      Arena arena(8 * 1024);
      for (int round = 0; round < 3; ++round) {
        RecordBatch staging(&arena);
        for (int i = 0; i < 500; ++i) {
          staging.Append("k" + std::to_string((t * 7 + i) % 97),
                         std::string(20 + i % 50, 'p'), i, nullptr);
        }
        // Large-object spill inside the task.
        char* big = arena.AllocateBytes(64 * 1024);
        big[0] = 'a';
        big[64 * 1024 - 1] = 'z';
        CHECK(staging.size() == 500);
        arena.Reset();
      }
    });
  }
  pool.Wait();
}

// Output digest in `reuse::ChecksumSplits` framing (that library is not
// linked into the sanitizer builds).
uint64_t OutputDigest(const std::vector<InputSplit>& splits) {
  Checksum64 c;
  for (const InputSplit& s : splits) {
    c.UpdateU64(static_cast<uint64_t>(s.records.size()));
    for (const Record& r : s.records) {
      ChecksumRecord(&c, r.key, r.value, r.extra_bytes);
    }
  }
  return c.Digest();
}

// Pinned while the engine still ran a per-record shuffle next to the
// batched one and both agreed bit for bit.
constexpr uint64_t kPinnedDigest = 0x89bf74859949ee2fULL;
constexpr double kPinnedSimSeconds = 0x1.aa2c34a28536cp-7;

void RunJobAtThreadCounts() {
  const std::vector<InputSplit> input = MakeInput();
  JobConfig job;
  job.reducer = std::make_shared<SplitValueReducer>();
  job.num_reduce_tasks = 7;

  ClusterConfig config;
  JobRunner serial(config);
  serial.set_num_threads(1);
  JobRunner parallel(config);
  parallel.set_num_threads(4);

  const JobResult a = parallel.Run(job, input);
  const JobResult b = serial.Run(job, input);
  CHECK(a.sim_seconds == kPinnedSimSeconds);
  CHECK(b.sim_seconds == kPinnedSimSeconds);
  CHECK(OutputDigest(a.outputs) == kPinnedDigest);
  CHECK(OutputDigest(b.outputs) == kPinnedDigest);
  CHECK(a.outputs.size() == b.outputs.size());
  for (size_t i = 0; i < a.outputs.size(); ++i) {
    CHECK(a.outputs[i].records == b.outputs[i].records);
  }
  CHECK(a.counters.Get("mr.shuffle.checksum_mismatch") == 0.0);
  CHECK(a.counters.Get("efind.alloc.count") > 0.0);
}

}  // namespace
}  // namespace efind

int main() {
  efind::ArenaStress();
  efind::RunJobAtThreadCounts();
  std::printf("perf smoke OK\n");
  return 0;
}

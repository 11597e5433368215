#include "mapreduce/job_runner.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/arena.h"
#include "common/hash.h"
#include "mapreduce/record_batch.h"
#include "mapreduce/stage_chain.h"
#include "obs/obs.h"

namespace efind {

namespace {

const HashPartitioner kDefaultPartitioner;

const Partitioner& EffectivePartitioner(const JobConfig& job) {
  if (job.partitioner) return *job.partitioner;
  return kDefaultPartitioner;
}

/// The speculation threshold `ScheduleWaves` takes; 0 (no backups) when
/// speculation is off.
double SpeculationThreshold(const ClusterConfig& config) {
  return config.speculative_execution ? config.speculation_threshold : 0.0;
}

/// Whether a phase running `stages` must serialize each node's tasks on one
/// strand (see `RecordStage::holds_node_state`).
bool HoldsNodeState(const std::vector<std::shared_ptr<RecordStage>>& stages) {
  return std::any_of(stages.begin(), stages.end(),
                     [](const auto& s) { return s->holds_node_state(); });
}

uint64_t BytesOf(const std::vector<Record>& records) {
  uint64_t n = 0;
  for (const auto& r : records) n += r.size_bytes();
  return n;
}

// Interned hot-path counter names (see counters.h).
const CounterHandle kAllocBytes("efind.alloc.bytes");
const CounterHandle kAllocCount("efind.alloc.count");
const CounterHandle kShuffleRecords("mr.shuffle.records");
const CounterHandle kShuffleBatchBytes("mr.shuffle.batch_bytes");
const CounterHandle kShuffleChecksumMismatch("mr.shuffle.checksum_mismatch");

// Input-side charge of map record `i`: its logical size is added to
// `input_bytes`, and its CPU share (per-record overhead + per-byte parse) is
// returned for accumulation. A batch-form split's sizes are read off its
// table.
double ChargeMapInput(const ClusterConfig& config, const InputSplit& split,
                      size_t i, uint64_t* input_bytes) {
  const uint64_t bytes = split.batch ? split.batch->LogicalBytesAt(i)
                                     : split.records[i].size_bytes();
  *input_bytes += bytes;
  return config.cpu_per_record_sec +
         config.cpu_per_byte_sec * static_cast<double>(bytes);
}

// Input record `i` of a map task, for the stage chain: materialized on this
// task's thread from a batch-form split, moved out of a consumable
// record-form split (one the job owns), copied from a borrowed one.
Record TakeInput(const InputSplit& split, InputSplit* consumable, size_t i) {
  if (split.batch) return split.batch->MaterializeRecord(i);
  if (consumable != nullptr) return std::move(consumable->records[i]);
  return split.records[i];
}

// Frees a consumed split's storage, or drops its share of a batch. Called
// at the end of its map task, so the frees run inside the parallel phase.
void ReleaseInput(InputSplit* consumable) {
  if (consumable == nullptr) return;
  std::vector<Record>().swap(consumable->records);
  consumable->batch.reset();
}

// The shuffled map task's output sweep: partition mapping, per-bucket
// content digest, and byte accounting in one sequential pass over the
// staging batch (DESIGN.md §11). Logical sizes were computed once at append
// time, so no attachment is re-walked. Fills `result`'s per-bucket batches
// (backed by its arena) and digests, adds each record's output CPU charge to
// `cpu`, counts the task's allocation telemetry, and returns the output
// bytes.
uint64_t PartitionMapOutput(const ClusterConfig& config, const JobConfig& job,
                            int num_partitions, const RecordBatch& staging,
                            double* cpu, MapTaskResult* result) {
  result->partitioned_batches.reserve(num_partitions);
  for (int p = 0; p < num_partitions; ++p) {
    result->partitioned_batches.emplace_back(result->arena.get());
  }
  if (!staging.empty()) {
    const size_t est_records = staging.size() / num_partitions + 1;
    const size_t est_bytes = staging.buffer_bytes() / num_partitions + 64;
    for (auto& b : result->partitioned_batches) {
      b.Reserve(est_records, est_bytes);
    }
  }

  const Partitioner& part = EffectivePartitioner(job);
  // With the default hash partitioner, each key is hashed exactly once (at
  // staging): the hash picks the bucket and stays in the batch entry for the
  // reduce-side gather. A salting partitioner reuses that same hash for the
  // bucket choice (salt folded in for hot keys) while the entry keeps the
  // unsalted hash, so reduce-side grouping still groups by the true key.
  // Other custom partitioners keep their own mapping.
  const auto* hash_part = dynamic_cast<const HashPartitioner*>(&part);
  const auto* salt_part = dynamic_cast<const SaltingPartitioner*>(&part);
  SaltCycler salt_state;
  std::vector<Checksum64> digests(num_partitions);
  uint64_t output_bytes = 0;
  for (size_t i = 0; i < staging.size(); ++i) {
    const uint64_t bytes = staging.LogicalBytesAt(i);
    output_bytes += bytes;
    *cpu += config.cpu_per_byte_sec * static_cast<double>(bytes);
    const int p = !job.reducer ? 0
                  : hash_part  ? HashPartitioner::FromHash(
                                    staging.KeyHashAt(i), num_partitions)
                  : salt_part  ? salt_part->PartitionHash(
                                    staging.KeyHashAt(i), &salt_state,
                                    num_partitions)
                               : part.Partition(staging.KeyAt(i),
                                                num_partitions);
    result->partitioned_batches[p].AppendFrom(staging, i);
    ChecksumBatchRecord(&digests[p], staging, i);
  }
  result->partition_checksums.reserve(num_partitions);
  for (const auto& d : digests) {
    result->partition_checksums.push_back(d.Digest());
  }

  // Allocation telemetry: the real heap traffic this task's shuffle path
  // performed. With the arena backing every buffer and table, that is the
  // arena's block acquisitions plus the batches' rare side-array growths.
  uint64_t alloc_count =
      result->arena->heap_allocations() + staging.heap_allocations();
  uint64_t alloc_bytes = result->arena->bytes_reserved();
  uint64_t batch_bytes = staging.buffer_bytes();
  for (const auto& b : result->partitioned_batches) {
    alloc_count += b.heap_allocations();
    alloc_bytes += b.buffer_reserved_bytes();
    batch_bytes += b.buffer_bytes();
  }
  result->counters.Increment(kAllocCount, static_cast<double>(alloc_count));
  result->counters.Increment(kAllocBytes, static_cast<double>(alloc_bytes));
  result->counters.Increment(kShuffleRecords,
                             static_cast<double>(staging.size()));
  result->counters.Increment(kShuffleBatchBytes,
                             static_cast<double>(batch_bytes));
  return output_bytes;
}

// Big-endian value of the key's first eight bytes, zero-padded: comparing
// prefixes agrees with comparing keys in byte order (std::string `<`)
// wherever the prefixes differ.
uint64_t KeyPrefix(std::string_view key) {
  unsigned char bytes[8] = {};
  std::memcpy(bytes, key.data(), std::min<size_t>(key.size(), 8));
  uint64_t prefix = 0;
  for (unsigned char b : bytes) prefix = (prefix << 8) | b;
  return prefix;
}

// Positions [0, n) ordered by `key_of(i)` in byte order (std::string `<`);
// the keys must be distinct. An LSD radix sort over (key prefix, position)
// pairs, one byte per pass, skipping passes whose histogram has a single
// bucket; then a full-key sort within each run of equal prefixes, so the
// order is exact.
template <typename KeyOf>
std::vector<uint32_t> ByteOrder(uint32_t n, const KeyOf& key_of) {
  struct Entry {
    uint64_t prefix;
    uint32_t pos;
  };
  std::vector<uint32_t> order(n);
  if (n == 0) return order;
  std::vector<Entry> a(n);
  for (uint32_t i = 0; i < n; ++i) a[i] = Entry{KeyPrefix(key_of(i)), i};
  // Byte `d` of a prefix, least significant first.
  auto digit = [](uint64_t prefix, int d) {
    return static_cast<size_t>((prefix >> (8 * d)) & 0xff);
  };
  std::vector<uint32_t> hist(8 * 256, 0);
  for (const Entry& e : a) {
    for (int d = 0; d < 8; ++d) ++hist[d * 256 + digit(e.prefix, d)];
  }
  std::vector<Entry> tmp(n);
  for (int d = 0; d < 8; ++d) {
    uint32_t* count = &hist[d * 256];
    if (count[digit(a[0].prefix, d)] == n) continue;
    uint32_t offset = 0;
    for (int b = 0; b < 256; ++b) {
      const uint32_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (const Entry& e : a) tmp[count[digit(e.prefix, d)]++] = e;
    a.swap(tmp);
  }
  for (uint32_t lo = 0; lo < n;) {
    uint32_t hi = lo + 1;
    while (hi < n && a[hi].prefix == a[lo].prefix) ++hi;
    if (hi - lo > 1) {
      std::sort(a.begin() + lo, a.begin() + hi,
                [&key_of](const Entry& x, const Entry& y) {
                  return key_of(x.pos) < key_of(y.pos);
                });
    }
    lo = hi;
  }
  for (uint32_t i = 0; i < n; ++i) order[i] = a[i].pos;
  return order;
}

std::string ShortNum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Emits one executed phase onto the session and advances its clock by the
/// phase makespan: a phase span on the cluster track, a task span per task
/// on its node track (lane = schedule slot), backup-task spans and
/// speculation-trigger instants, fault instants where the fault model
/// inflated a task, and the per-task stage events (staged by the state-bag
/// merges with task-relative timestamps) rebased onto the schedule. Runs on
/// the orchestration thread after the phase's bags merged, so every
/// emission order is the serial task-index order.
void TracePhase(obs::ObsSession* session, const char* kind,
                const PhaseSchedule& schedule, const std::vector<int>& nodes,
                const std::vector<double>& durations,
                const std::vector<double>& base_durations, int num_slots,
                int first_task_index) {
  obs::TraceRecorder& tr = session->trace();
  obs::MetricsRegistry& mx = session->metrics();
  const double t0 = tr.clock();
  const size_t count = schedule.tasks.size();

  tr.Span(std::string(kind) + "_phase", "phase", t0, schedule.makespan,
          obs::kClusterTrack, 0,
          {{"tasks", std::to_string(count)},
           {"first_wave", std::to_string(schedule.first_wave_size)},
           {"speculative_launched",
            std::to_string(schedule.speculative_launched)},
           {"speculative_wins", std::to_string(schedule.speculative_wins)}});

  // Stage buffers are keyed by the phase-global task index; buffers staged
  // outside this phase's range are dropped.
  std::map<int, obs::TraceRecorder::StagedTask> staged;
  for (auto& s : tr.TakeStaged()) staged.emplace(s.task_index, std::move(s));

  const obs::MetricId task_hist =
      mx.Histogram(std::string("mr.") + kind + ".task_duration_sec");
  double busy = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const TaskSchedule& ts = schedule.tasks[i];
    const int task_index = first_task_index + static_cast<int>(i);
    const std::string index_str = std::to_string(task_index);
    const int node = i < nodes.size() ? nodes[i] : 0;
    const double dur = ts.finish - ts.start;
    busy += dur;
    mx.Observe(task_hist, dur);

    std::vector<obs::TraceArg> args = {{"task_index", index_str}};
    if (ts.backup_launched) {
      args.push_back(
          {"speculated", ts.backup_won ? "backup_won" : "backup_lost"});
    }
    tr.Span(std::string(kind) + "_task", "task", t0 + ts.start, dur, node,
            ts.slot, std::move(args));

    if (ts.backup_launched) {
      tr.Instant("speculation_trigger", "spec",
                 t0 + ts.start + ts.backup_rel_start, node,
                 {{"task_index", index_str}});
      tr.Span("backup_task", "spec", t0 + ts.start + ts.backup_rel_start,
              ts.backup_rel_finish - ts.backup_rel_start, node, ts.slot,
              {{"task_index", index_str},
               {"won", ts.backup_won ? "true" : "false"}});
    }
    if (i < durations.size() && i < base_durations.size() &&
        base_durations[i] > 0.0 &&
        durations[i] > base_durations[i] * (1.0 + 1e-9)) {
      tr.Instant("task_fault", "fault", t0 + ts.start, node,
                 {{"task_index", index_str},
                  {"factor", ShortNum(durations[i] / base_durations[i])}});
    }

    auto it = staged.find(task_index);
    if (it != staged.end()) {
      tr.AppendRebased(it->second, t0 + ts.start, ts.slot);
      if (it->second.dropped > 0) {
        tr.Instant("trace_truncated", "trace", t0 + ts.finish, node,
                   {{"task_index", index_str},
                    {"dropped", std::to_string(it->second.dropped)}});
      }
      staged.erase(it);
    }
  }

  const std::string prefix = std::string("mr.") + kind;
  mx.Add(mx.Counter(prefix + ".tasks"), static_cast<double>(count));
  mx.Add(mx.Counter(prefix + ".speculative_launched"),
         static_cast<double>(schedule.speculative_launched));
  mx.Add(mx.Counter(prefix + ".speculative_wins"),
         static_cast<double>(schedule.speculative_wins));
  if (schedule.makespan > 0.0 && num_slots > 0) {
    mx.Set(mx.Gauge(prefix + ".wave_occupancy"),
           busy / (schedule.makespan * static_cast<double>(num_slots)));
  }

  tr.AdvanceClock(schedule.makespan);
}

}  // namespace

JobRunner::JobRunner(const ClusterConfig& config) : config_(config) {}

int JobRunner::ResolveNumReduceTasks(const JobConfig& job) const {
  if (!job.reducer) return 1;
  if (job.num_reduce_tasks > 0) return job.num_reduce_tasks;
  return config_.total_reduce_slots();
}

double JobRunner::ApplyFaults(double duration, int kind,
                              int task_index) const {
  if (config_.task_failure_rate <= 0 && config_.straggler_rate <= 0) {
    return duration;
  }
  const uint64_t h = Mix64(config_.fault_seed ^
                           (static_cast<uint64_t>(task_index) * 2654435761ULL +
                            static_cast<uint64_t>(kind) * 40503ULL));
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // Uniform in [0,1).
  if (u < config_.task_failure_rate) {
    // The attempt is lost near completion and the task re-executes.
    return 2.0 * duration;
  }
  if (u < config_.task_failure_rate + config_.straggler_rate) {
    return config_.straggler_slowdown * duration;
  }
  return duration;
}

int JobRunner::ReduceTaskNode(const JobConfig& job, int reduce_index) const {
  if (reduce_index < static_cast<int>(job.reduce_task_nodes.size())) {
    const int n = job.reduce_task_nodes[reduce_index];
    if (n >= 0 && n < config_.num_nodes) return n;
  }
  return reduce_index % config_.num_nodes;
}

void JobRunner::RunStrands(size_t count,
                           const std::function<int(size_t)>& strand_of,
                           const std::function<void(size_t)>& body) {
  const int threads = effective_threads();
  if (threads <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // Bucket task indices by strand key; each bucket preserves ascending
  // index order, so per-node stateful structures (lookup caches, breakers)
  // see exactly the serial probe sequence. Without a key every task is its
  // own strand.
  std::map<int, std::vector<size_t>> strands;
  for (size_t i = 0; i < count; ++i) {
    strands[strand_of ? strand_of(i) : static_cast<int>(i)].push_back(i);
  }
  if (strands.size() <= 1) {
    for (size_t i = 0; i < count; ++i) body(i);
    return;
  }
  if (!pool_ || pool_->num_threads() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  for (auto& [key, indices] : strands) {
    (void)key;
    const std::vector<size_t>* strand = &indices;
    pool_->Submit([strand, &body] {
      for (size_t i : *strand) body(i);
    });
  }
  pool_->Wait();
}

MapTaskResult JobRunner::RunMapTask(const JobConfig& job,
                                    const InputSplit& split,
                                    InputSplit* consumable, int task_index,
                                    TaskStateBag* bag) {
  MapTaskResult result;
  result.node = split.node;
  TaskContext ctx(split.node, task_index, &result.counters);

  // The chain's sink is the only difference between the two job shapes. A
  // map-only job's output is already the final representation (an output
  // split), so it lands in `result.output`. A shuffled job stages it in a
  // batch backed by the task's arena, which later also backs the
  // per-bucket batches; the arena moves into the result, so they stay
  // valid (and strictly read-only) until the reduce phase drops the map
  // outputs, and are then freed in bulk (DESIGN.md §11).
  const bool shuffled = job.reducer || !job.reduce_stages.empty();
  if (shuffled) result.arena = std::make_unique<Arena>();
  RecordBatch staging(result.arena.get());
  StageChain chain =
      shuffled ? StageChain(&job.map_stages, &ctx, &staging)
               : StageChain(&job.map_stages, &ctx, &result.output);
  chain.Begin();
  double cpu = 0.0;
  uint64_t input_bytes = 0;
  const size_t n = split.num_records();
  for (size_t i = 0; i < n; ++i) {
    cpu += ChargeMapInput(config_, split, i, &input_bytes);
    chain.Push(TakeInput(split, consumable, i));
  }
  chain.Finish();
  ReleaseInput(consumable);

  // Output charges follow every input charge, in emission order.
  uint64_t output_bytes = 0;
  if (shuffled) {
    const int num_partitions = job.reducer ? ResolveNumReduceTasks(job) : 1;
    output_bytes = PartitionMapOutput(config_, job, num_partitions, staging,
                                      &cpu, &result);
  } else {
    for (const Record& r : result.output) {
      output_bytes += r.size_bytes();
      cpu += config_.cpu_per_byte_sec * static_cast<double>(r.size_bytes());
    }
  }

  // Time model: startup + input read (local disk, or network when the
  // scheduler sacrificed data locality) + CPU + stage-charged time +
  // output spill to local disk.
  double io = job.map_input_remote ? config_.TransferSeconds(input_bytes)
                                   : config_.DiskReadSeconds(input_bytes);
  io += static_cast<double>(output_bytes) / config_.disk_bw_bytes_per_sec;
  result.base_duration = config_.task_startup_sec + io + cpu + ctx.sim_time();
  result.duration = ApplyFaults(result.base_duration, /*kind=*/0, task_index);
  *bag = ctx.TakeTaskState();
  return result;
}

MapPhaseResult JobRunner::RunMapPhase(
    const JobConfig& job, const std::vector<const InputSplit*>& input,
    size_t begin, size_t end, std::vector<InputSplit>* owned) {
  MapPhaseResult phase;
  if (end > input.size()) end = input.size();
  if (begin > end) begin = end;
  const size_t count = end - begin;
  phase.tasks.resize(count);
  std::vector<TaskStateBag> bags(count);
  std::function<int(size_t)> node_of;
  if (HoldsNodeState(job.map_stages)) {
    node_of = [&](size_t k) { return input[begin + k]->node; };
  }
  RunStrands(
      count, node_of,
      [&](size_t k) {
        phase.tasks[k] = RunMapTask(
            job, *input[begin + k],
            owned != nullptr ? &(*owned)[begin + k] : nullptr,
            static_cast<int>(begin + k), &bags[k]);
      });
  // Deterministic collection: fold per-task state into shared structures in
  // task-index order, exactly as serial execution would have.
  for (auto& bag : bags) bag.Merge();

  std::vector<double> durations, base;
  durations.reserve(count);
  base.reserve(count);
  for (const auto& t : phase.tasks) {
    durations.push_back(t.duration);
    base.push_back(t.base_duration);
  }
  phase.schedule = ScheduleWaves(durations, base, config_.total_map_slots(),
                                 SpeculationThreshold(config_));
  if (obs_ != nullptr) {
    std::vector<int> nodes;
    nodes.reserve(count);
    for (const auto& t : phase.tasks) nodes.push_back(t.node);
    TracePhase(obs_, "map", phase.schedule, nodes, durations, base,
               config_.total_map_slots(), static_cast<int>(begin));
  }
  return phase;
}

ReducePhaseResult JobRunner::RunReduceRange(
    const JobConfig& job,
    const std::vector<const MapTaskResult*>& map_outputs, int begin,
    int end) {
  ReducePhaseResult phase;
  const int num_reduce = ResolveNumReduceTasks(job);
  if (begin < 0) begin = 0;
  if (end > num_reduce) end = num_reduce;
  if (end < begin) end = begin;
  const size_t count = end - begin;
  phase.outputs.resize(count);
  phase.durations.resize(count, 0.0);
  phase.base_durations.resize(count, 0.0);
  phase.task_counters.resize(count);
  std::vector<TaskStateBag> bags(count);

  // Batched gather: group `string_view` keys pointing straight into the
  // map-side shuffle buffers; each record is materialized at most once, for
  // the reducer's value vector or the reduce-side chain. The map side's
  // per-bucket digest is re-derived in the same sweep, verifying the
  // in-memory shuffle hand-off end to end (counted as
  // `mr.shuffle.checksum_mismatch`, expected 0).
  auto run_reduce_task = [&](size_t slot) {
    const int r = begin + static_cast<int>(slot);
    const int node = ReduceTaskNode(job, r);
    phase.outputs[slot].node = node;

    // The record's location in the (immutable) map outputs, indexed by
    // arrival order.
    struct Loc {
      const RecordBatch* batch;
      uint32_t index;  // Record index within `batch`.
    };
    size_t total = 0;
    for (const MapTaskResult* mt : map_outputs) {
      if (r < static_cast<int>(mt->partitioned_batches.size())) {
        total += mt->partitioned_batches[r].size();
      }
    }
    std::vector<Loc> locs;
    locs.reserve(total);
    // Grouping is a single open-addressing pass over the key hashes (which
    // map-side entries already carry, so key bytes are not re-hashed
    // here); ties probe on the full key bytes, so 64-bit hash collisions
    // land in distinct groups. Only the unique keys are sorted afterwards
    // — O(records) grouping instead of an O(records log records) sort.
    struct Group {
      std::string_view key;  // Points into the map-side shuffle memory.
      uint64_t hash;
      uint32_t count;
      uint32_t offset;  // Filled by the prefix pass below.
    };
    std::vector<Group> groups;
    size_t table_size = 16;
    while (table_size < total * 2) table_size <<= 1;
    std::vector<uint32_t> table(table_size, 0);  // Group index + 1; 0 empty.
    const uint64_t table_mask = table_size - 1;
    std::vector<uint32_t> group_of;  // Arrival order -> group index.
    group_of.reserve(total);
    auto group_for = [&](uint64_t hash, std::string_view key) -> uint32_t {
      size_t slot = hash & table_mask;
      for (;;) {
        const uint32_t g = table[slot];
        if (g == 0) {
          table[slot] = static_cast<uint32_t>(groups.size()) + 1;
          groups.push_back(Group{key, hash, 0, 0});
          return static_cast<uint32_t>(groups.size()) - 1;
        }
        const Group& cand = groups[g - 1];
        if (cand.hash == hash && cand.key == key) return g - 1;
        slot = (slot + 1) & table_mask;
      }
    };
    uint64_t received_bytes = 0;
    uint64_t received_buffer_bytes = 0;
    size_t received_records = 0;
    uint64_t mismatches = 0;
    for (const MapTaskResult* mt : map_outputs) {
      if (r >= static_cast<int>(mt->partitioned_batches.size())) continue;
      const RecordBatch& b = mt->partitioned_batches[r];
      received_bytes += b.payload_bytes();
      received_buffer_bytes += b.buffer_bytes();
      received_records += b.size();
      Checksum64 digest;
      for (size_t i = 0; i < b.size(); ++i) {
        ChecksumBatchRecord(&digest, b, i);
        const uint32_t g = group_for(b.KeyHashAt(i), b.KeyAt(i));
        ++groups[g].count;
        group_of.push_back(g);
        locs.push_back(Loc{&b, static_cast<uint32_t>(i)});
      }
      if (r < static_cast<int>(mt->partition_checksums.size()) &&
          digest.Digest() != mt->partition_checksums[r]) {
        ++mismatches;
      }
    }
    // Lay the records out group-contiguously: prefix sums over the group
    // counts, then a scatter of arrival indices. Scattering in arrival
    // order keeps values in arrival order within each group (map-task
    // order, then record order within a task).
    uint32_t running = 0;
    for (Group& g : groups) {
      g.offset = running;
      running += g.count;
    }
    std::vector<uint32_t> grouped(locs.size());  // Group-contiguous arrivals.
    {
      std::vector<uint32_t> cursor(groups.size());
      for (size_t gi = 0; gi < groups.size(); ++gi) {
        cursor[gi] = groups[gi].offset;
      }
      for (uint32_t a = 0; a < static_cast<uint32_t>(group_of.size()); ++a) {
        grouped[cursor[group_of[a]]++] = a;
      }
    }
    // Reducers consume keys in sorted byte order.
    const std::vector<uint32_t> ordered =
        ByteOrder(static_cast<uint32_t>(groups.size()),
                  [&groups](uint32_t g) { return groups[g].key; });

    TaskContext ctx(node, r, &phase.task_counters[slot]);
    const bool grouped_reduce = job.reducer && !job.reducer->pass_through();
    // A pure pass-through (no reduce function or a pass-through one, and no
    // reduce-side stages) emits exactly the received records. Its output
    // stays in batch form: one heap-mode batch the entries are copied into
    // with their encoded attachments, so no per-record object is created
    // here or freed by whichever task reads the split next.
    std::shared_ptr<RecordBatch> batch_sink;
    if (!grouped_reduce && job.reduce_stages.empty()) {
      batch_sink = std::make_shared<RecordBatch>();
      batch_sink->Reserve(total, received_buffer_bytes);
    }
    std::vector<Record> sink;
    StageChain chain = batch_sink ? StageChain(&job.reduce_stages, &ctx,
                                               batch_sink.get())
                                  : StageChain(&job.reduce_stages, &ctx, &sink);
    chain.Begin();
    if (job.reducer) job.reducer->BeginTask(&ctx);

    double cpu =
        config_.cpu_per_byte_sec * static_cast<double>(received_bytes) +
        config_.cpu_per_record_sec * static_cast<double>(received_records);
    auto materialize = [&locs](uint32_t arrival) {
      const Loc& loc = locs[arrival];
      return loc.batch->MaterializeRecord(loc.index);
    };
    if (grouped_reduce) {
      for (const uint32_t gi : ordered) {
        const Group& g = groups[gi];
        std::vector<Record> values;
        values.reserve(g.count);
        for (uint32_t k = g.offset; k < g.offset + g.count; ++k) {
          values.push_back(materialize(grouped[k]));
        }
        job.reducer->Reduce(std::string(g.key), std::move(values), &ctx,
                            chain.EmitterInto(0));
      }
    } else if (batch_sink) {
      for (const uint32_t gi : ordered) {
        const Group& g = groups[gi];
        for (uint32_t k = g.offset; k < g.offset + g.count; ++k) {
          const Loc& loc = locs[grouped[k]];
          batch_sink->AppendFrom(*loc.batch, loc.index);
        }
      }
    } else {
      // No reducer, or a pass-through one: the group-ordered records
      // stream straight into the reduce-side chain.
      for (const uint32_t gi : ordered) {
        const Group& g = groups[gi];
        for (uint32_t k = g.offset; k < g.offset + g.count; ++k) {
          chain.Push(materialize(grouped[k]));
        }
      }
    }
    if (job.reducer) job.reducer->EndTask(&ctx, chain.EmitterInto(0));
    chain.Finish();
    if (mismatches > 0) {
      phase.task_counters[slot].Increment(kShuffleChecksumMismatch,
                                          static_cast<double>(mismatches));
    }

    const uint64_t out_bytes =
        batch_sink ? batch_sink->payload_bytes() : BytesOf(sink);
    cpu += config_.cpu_per_byte_sec * static_cast<double>(out_bytes);
    phase.outputs[slot].records = std::move(sink);
    phase.outputs[slot].batch = std::move(batch_sink);

    // Time model: startup + shuffle transfer of the received bytes +
    // CPU + stage-charged time + writing the final output.
    phase.base_durations[slot] =
        config_.task_startup_sec + config_.TransferSeconds(received_bytes) +
        cpu + ctx.sim_time() +
        static_cast<double>(out_bytes) / config_.disk_bw_bytes_per_sec;
    phase.durations[slot] =
        ApplyFaults(phase.base_durations[slot], /*kind=*/1, r);
    bags[slot] = ctx.TakeTaskState();
  };

  std::function<int(size_t)> node_of;
  if (HoldsNodeState(job.reduce_stages)) {
    node_of = [&](size_t slot) {
      return ReduceTaskNode(job, begin + static_cast<int>(slot));
    };
  }
  RunStrands(count, node_of, run_reduce_task);
  for (auto& bag : bags) bag.Merge();

  phase.schedule = ScheduleWaves(phase.durations, phase.base_durations,
                                 config_.total_reduce_slots(),
                                 SpeculationThreshold(config_));
  if (obs_ != nullptr) {
    std::vector<int> nodes;
    nodes.reserve(count);
    for (const auto& o : phase.outputs) nodes.push_back(o.node);
    TracePhase(obs_, "reduce", phase.schedule, nodes, phase.durations,
               phase.base_durations, config_.total_reduce_slots(), begin);
  }
  return phase;
}

JobResult JobRunner::Run(const JobConfig& job,
                         const std::vector<InputSplit>& input) {
  JobResult result;
  MapPhaseResult map_phase =
      RunMapPhase(job, ViewOf(input), 0, input.size(), /*owned=*/nullptr);
  result.AddMapWave(map_phase);

  if (job.reducer || !job.reduce_stages.empty()) {
    std::vector<const MapTaskResult*> ptrs;
    ptrs.reserve(map_phase.tasks.size());
    for (const auto& t : map_phase.tasks) ptrs.push_back(&t);
    ReducePhaseResult reduce_phase =
        RunReduceRange(job, ptrs, 0, ResolveNumReduceTasks(job));
    result.AddReduceWave(reduce_phase);
    result.outputs = std::move(reduce_phase.outputs);
  } else {
    map_phase.MoveOutputsTo(&result.outputs);
  }

  result.sim_seconds = result.map_seconds + result.reduce_seconds;
  return result;
}

}  // namespace efind

// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_MAPREDUCE_RECORD_H_
#define EFIND_MAPREDUCE_RECORD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace efind {

/// One value returned by an index lookup.
///
/// `data` holds the materialized content used by the computation; large
/// payloads the computation never inspects are modeled by `extra_bytes`
/// (a *virtual* size) so a 30 KB lookup result costs 30 KB in the time model
/// without allocating 30 KB (paper Synthetic/Fig 12 sweeps result size to
/// 30 KB over millions of lookups).
struct IndexValue {
  std::string data;
  uint64_t extra_bytes = 0;

  IndexValue() = default;
  explicit IndexValue(std::string d, uint64_t extra = 0)
      : data(std::move(d)), extra_bytes(extra) {}

  uint64_t size_bytes() const { return data.size() + extra_bytes; }

  friend bool operator==(const IndexValue& a, const IndexValue& b) {
    return a.data == b.data && a.extra_bytes == b.extra_bytes;
  }
};

/// Index keys extracted by `IndexOperator::PreProcess` and lookup results
/// attached on the way to `PostProcess`. An attachment travels with a record
/// across job boundaries when the re-partitioning / index-locality strategies
/// split an operator over multiple MapReduce jobs (paper Fig. 7: the output
/// of preProcess is `(k1, v1, {{ik_1}, ..., {ik_m}})`, later augmented with
/// `{iv_j}` lists).
struct RecordAttachment {
  /// keys[j] = the list {ik_j} extracted for index j of the operator.
  std::vector<std::vector<std::string>> keys;
  /// results[j][i] = the lookup result list {iv} for keys[j][i]. Empty until
  /// index j has been accessed.
  std::vector<std::vector<std::vector<IndexValue>>> results;
  /// Original record key, saved while the record travels a re-partitioning
  /// shuffle keyed by a lookup key (restored after the grouped lookup).
  std::string saved_key;
  bool has_saved_key = false;

  uint64_t size_bytes() const {
    uint64_t n = 0;
    for (const auto& ik_list : keys) {
      for (const auto& ik : ik_list) n += ik.size();
    }
    for (const auto& per_key : results) {
      for (const auto& ivs : per_key) {
        for (const auto& iv : ivs) n += iv.size_bytes();
      }
    }
    return n;
  }
};

/// A MapReduce key-value record.
///
/// As with `IndexValue`, `extra_bytes` models payload bytes that the
/// computation carries but never reads (e.g., the 1 KB values of the
/// Synthetic data set), so workloads can run at paper-faithful byte sizes
/// with small memory footprints.
struct Record {
  std::string key;
  std::string value;
  uint64_t extra_bytes = 0;
  /// In-flight EFind index keys/results; null outside an operator's window.
  std::shared_ptr<const RecordAttachment> attachment;

  Record() = default;
  Record(std::string k, std::string v, uint64_t extra = 0)
      : key(std::move(k)), value(std::move(v)), extra_bytes(extra) {}

  /// Logical size used by the time model and the cost statistics.
  uint64_t size_bytes() const {
    uint64_t n = key.size() + value.size() + extra_bytes;
    if (attachment) n += attachment->size_bytes();
    return n;
  }

  friend bool operator==(const Record& a, const Record& b) {
    return a.key == b.key && a.value == b.value &&
           a.extra_bytes == b.extra_bytes;
  }
  friend bool operator<(const Record& a, const Record& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.value != b.value) return a.value < b.value;
    return a.extra_bytes < b.extra_bytes;
  }
};

class RecordBatch;

/// A contiguous chunk of job input hosted on one cluster node, analogous to
/// an HDFS split. Map tasks are data-local by default: a map task processing
/// this split is assumed to run on `node`.
///
/// A split holds its records in one of two forms. Record form (`records`)
/// is how data enters and leaves the engine: the caller's input and the
/// final outputs. Batch form (`batch`, with `records` empty) is pipeline-
/// internal: a shuffle job's pass-through reduce writes its grouped output
/// as one immutable `RecordBatch`, the next job's map tasks materialize each
/// entry on their own thread, and copies of the split (reuse artifacts)
/// share the batch (DESIGN.md §11).
struct InputSplit {
  std::vector<Record> records;
  std::shared_ptr<const RecordBatch> batch;
  int node = 0;

  size_t num_records() const;
  /// Summed `Record::size_bytes()`; read off the batch in batch form.
  uint64_t size_bytes() const;
  /// Converts batch form to record form in place (no-op in record form).
  void Materialize();
  /// Appends copies of the split's records to `out`, materializing batch
  /// form; lets a reader accept either form.
  void AppendRecordsTo(std::vector<Record>* out) const;
};

/// Summed logical size of a whole input, given as splits or as a view of
/// them — what a job's DFS read/write of these splits costs in the time
/// model, and what a materialized artifact of them occupies in the reuse
/// store.
template <typename Split>
uint64_t TotalSizeBytes(const std::vector<Split>& splits) {
  uint64_t n = 0;
  for (const Split& s : splits) {
    if constexpr (std::is_pointer_v<Split>) {
      n += s->size_bytes();
    } else {
      n += s.size_bytes();
    }
  }
  return n;
}

/// A read-only view of `splits`, one pointer per split in order — the form
/// the engine runs a job over.
inline std::vector<const InputSplit*> ViewOf(
    const std::vector<InputSplit>& splits) {
  std::vector<const InputSplit*> view;
  view.reserve(splits.size());
  for (const auto& s : splits) view.push_back(&s);
  return view;
}

}  // namespace efind

#endif  // EFIND_MAPREDUCE_RECORD_H_

// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_EFIND_INDEX_OPERATOR_H_
#define EFIND_EFIND_INDEX_OPERATOR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "efind/index_accessor.h"
#include "mapreduce/record.h"
#include "mapreduce/stage.h"

namespace efind {

/// Key lists extracted by `PreProcess`: `[j][i]` is the i-th lookup key for
/// index j of the operator (paper: `{{ik_1}, ..., {ik_m}}`).
using IndexKeyLists = std::vector<std::vector<std::string>>;

/// Lookup results handed to `PostProcess`: `[j][i]` is the result list {iv}
/// for the i-th key of index j.
using IndexResultLists = std::vector<std::vector<std::vector<IndexValue>>>;

/// EFind's per-job index invocation customization (paper Fig. 2): an
/// `IndexOperator` binds one or more `IndexAccessor`s to one point of a
/// MapReduce data flow and supplies job-specific `PreProcess` /
/// `PostProcess` logic (key extraction, filtering, projection, combining
/// results into output records).
///
/// Multiple accessors on one operator are *independent* lookups (the
/// optimizer may reorder them, §3.5); dependent lookups are expressed by
/// linking several operators in sequence.
class IndexOperator {
 public:
  virtual ~IndexOperator() = default;

  /// Name for plan dumps.
  virtual std::string name() const = 0;

  /// Identity token for cross-job reuse fingerprints (DESIGN.md §9). Two
  /// operators sharing a token claim byte-identical `PreProcess` /
  /// `PostProcess` behaviour, so their re-partitioned artifacts are
  /// interchangeable. Defaults to `name()`; override only when distinct
  /// classes are genuinely equivalent (or to force-split a shared name).
  virtual std::string ReuseToken() const { return name(); }

  /// Extracts, for every configured index j, the key list {ik_j} from the
  /// input record, optionally modifying the record (e.g. projecting away
  /// fields). `keys` arrives sized to the number of accessors.
  virtual void PreProcess(Record* record, IndexKeyLists* keys) = 0;

  /// Combines the lookup results into zero or more output records
  /// (filtering and reshaping as needed).
  virtual void PostProcess(const Record& record,
                           const IndexResultLists& results,
                           Emitter* out) = 0;

  /// Registers an index with this operator (paper's `addIndex`).
  void AddIndex(std::shared_ptr<IndexAccessor> accessor) {
    accessors_.push_back(std::move(accessor));
  }

  const std::vector<std::shared_ptr<IndexAccessor>>& accessors() const {
    return accessors_;
  }
  int num_indices() const { return static_cast<int>(accessors_.size()); }

 private:
  std::vector<std::shared_ptr<IndexAccessor>> accessors_;
};

/// Where an operator sits in the MapReduce data flow (paper §2: "before
/// Map, in between Map and Reduce, and after Reduce").
enum class OperatorPosition { kHead, kBody, kTail };

/// Every position, in data-flow order.
inline constexpr OperatorPosition kOperatorPositions[] = {
    OperatorPosition::kHead, OperatorPosition::kBody, OperatorPosition::kTail};

/// Returns "head" / "body" / "tail".
const char* ToString(OperatorPosition position);

/// An EFind-enhanced job description: the vanilla JobConf (mapper, reducer)
/// plus index operators at the three flow positions (paper Fig. 5:
/// `addHeadIndexOperator`, `addBodyIndexOperator`, `addTailIndexOperator`).
class IndexJobConf {
 public:
  IndexJobConf() = default;

  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  /// Registers the job's input as a named, versioned dataset (ReStore-style
  /// catalog identity). When set, reuse fingerprints hash `(id, version)`
  /// instead of the input's full content — bump the version whenever the
  /// dataset changes. Unset (empty id) falls back to content hashing.
  void set_input_dataset(std::string id, uint64_t version) {
    input_dataset_ = std::move(id);
    input_dataset_version_ = version;
  }
  const std::string& input_dataset() const { return input_dataset_; }
  uint64_t input_dataset_version() const { return input_dataset_version_; }

  /// Sets the user's Map function (a record-at-a-time stage). Optional —
  /// jobs whose work is entirely index access may omit it.
  void SetMapper(std::shared_ptr<RecordStage> mapper) {
    mapper_ = std::move(mapper);
  }
  /// Sets the user's Reduce function. Optional (map-only jobs).
  void SetReducer(std::shared_ptr<Reducer> reducer) {
    reducer_ = std::move(reducer);
  }
  void set_num_reduce_tasks(int n) { num_reduce_tasks_ = n; }

  /// Inserts an operator before Map.
  void AddHeadIndexOperator(std::shared_ptr<IndexOperator> op) {
    head_ops_.push_back(std::move(op));
  }
  /// Inserts an operator between Map and Reduce.
  void AddBodyIndexOperator(std::shared_ptr<IndexOperator> op) {
    body_ops_.push_back(std::move(op));
  }
  /// Inserts an operator after Reduce.
  void AddTailIndexOperator(std::shared_ptr<IndexOperator> op) {
    tail_ops_.push_back(std::move(op));
  }

  const std::shared_ptr<RecordStage>& mapper() const { return mapper_; }
  const std::shared_ptr<Reducer>& reducer() const { return reducer_; }
  int num_reduce_tasks() const { return num_reduce_tasks_; }
  const std::vector<std::shared_ptr<IndexOperator>>& head_ops() const {
    return head_ops_;
  }
  const std::vector<std::shared_ptr<IndexOperator>>& body_ops() const {
    return body_ops_;
  }
  const std::vector<std::shared_ptr<IndexOperator>>& tail_ops() const {
    return tail_ops_;
  }
  /// The operators at `pos`.
  const std::vector<std::shared_ptr<IndexOperator>>& ops(
      OperatorPosition pos) const {
    return pos == OperatorPosition::kHead   ? head_ops_
           : pos == OperatorPosition::kBody ? body_ops_
                                            : tail_ops_;
  }

  /// All operators in data-flow order, tagged with their position.
  std::vector<std::pair<OperatorPosition, std::shared_ptr<IndexOperator>>>
  AllOperators() const;

 private:
  std::string name_ = "efind_job";
  std::string input_dataset_;
  uint64_t input_dataset_version_ = 0;
  std::shared_ptr<RecordStage> mapper_;
  std::shared_ptr<Reducer> reducer_;
  int num_reduce_tasks_ = 0;
  std::vector<std::shared_ptr<IndexOperator>> head_ops_;
  std::vector<std::shared_ptr<IndexOperator>> body_ops_;
  std::vector<std::shared_ptr<IndexOperator>> tail_ops_;
};

}  // namespace efind

#endif  // EFIND_EFIND_INDEX_OPERATOR_H_

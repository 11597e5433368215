#include "reuse/fingerprint.h"

#include "mapreduce/record_batch.h"

namespace efind {
namespace reuse {

uint64_t FingerprintSplits(const std::vector<InputSplit>& splits) {
  FingerprintHasher h;
  h.Fold(static_cast<uint64_t>(splits.size()));
  for (const InputSplit& split : splits) {
    h.Fold(static_cast<uint64_t>(split.num_records()));
    if (split.batch) {
      for (size_t i = 0; i < split.batch->size(); ++i) {
        h.Fold(split.batch->KeyAt(i));
        h.Fold(split.batch->ValueAt(i));
        h.Fold(split.batch->ExtraAt(i));
      }
      continue;
    }
    for (const Record& r : split.records) {
      h.Fold(r.key);
      h.Fold(r.value);
      h.Fold(r.extra_bytes);
    }
  }
  return h.Finish();
}

uint64_t AccessorFingerprint(const IndexAccessor& accessor) {
  FingerprintHasher h;
  h.Fold(accessor.ConfigFingerprint());
  h.Fold(accessor.VersionFingerprint());
  return h.Finish();
}

uint64_t OperatorChainToken(const IndexOperator& op) {
  FingerprintHasher h;
  h.Fold(op.ReuseToken());
  h.Fold(static_cast<uint64_t>(op.num_indices()));
  // Accessors in declared order: keys[j] indexing in PreProcess is
  // positional, so swapping two accessors changes artifact content.
  for (const auto& accessor : op.accessors()) {
    h.Fold(AccessorFingerprint(*accessor));
  }
  return h.Finish();
}

uint64_t DatasetFingerprint(const IndexJobConf& conf,
                            const std::vector<InputSplit>& input) {
  if (!conf.input_dataset().empty()) {
    FingerprintHasher h;
    h.Fold("dataset");
    h.Fold(conf.input_dataset());
    h.Fold(conf.input_dataset_version());
    return h.Finish();
  }
  return FingerprintSplits(input);
}

namespace {

/// Everything upstream of operator (`pos`, `op_index`): two confs with equal
/// chain fingerprints feed byte-identical record streams into it.
uint64_t ChainFingerprint(const IndexJobConf& conf, uint64_t dataset_fp,
                          OperatorPosition pos, int op_index) {
  FingerprintHasher h;
  h.Fold(dataset_fp);
  // Fold the operators strictly upstream of (pos, op_index) in data-flow
  // order. The target's own position index is *not* folded: the chain names
  // the record stream feeding the operator, so any two jobs whose upstream
  // pipelines match collide — that cross-job collision is the whole point.
  const auto fold_ops = [&h](
      const std::vector<std::shared_ptr<IndexOperator>>& ops, int upto) {
    for (int i = 0; i < upto && i < static_cast<int>(ops.size()); ++i) {
      h.Fold(OperatorChainToken(*ops[i]));
    }
  };
  if (pos == OperatorPosition::kHead) {
    fold_ops(conf.head_ops(), op_index);
    return h.Finish();
  }
  fold_ops(conf.head_ops(), static_cast<int>(conf.head_ops().size()));
  h.Fold("map");
  h.Fold(conf.mapper() != nullptr ? conf.mapper()->name() : std::string());
  if (pos == OperatorPosition::kBody) {
    fold_ops(conf.body_ops(), op_index);
    return h.Finish();
  }
  fold_ops(conf.body_ops(), static_cast<int>(conf.body_ops().size()));
  h.Fold("reduce");
  h.Fold(conf.reducer() != nullptr ? conf.reducer()->name() : std::string());
  h.Fold(static_cast<uint64_t>(conf.num_reduce_tasks()));
  fold_ops(conf.tail_ops(), op_index);
  return h.Finish();
}

}  // namespace

uint64_t FirstShuffleFingerprint(const IndexJobConf& conf, uint64_t dataset_fp,
                                 OperatorPosition pos, int op_index, int index,
                                 ArtifactLayout layout, int partition_count) {
  FingerprintHasher h;
  h.Fold(ChainFingerprint(conf, dataset_fp, pos, op_index));
  h.Fold(OperatorChainToken(*conf.ops(pos)[op_index]));
  // The index is folded as a one-entry list, length word first: that layout
  // is the names' byte format, which journaled artifacts are stored under.
  h.Fold(uint64_t{1});
  h.Fold(static_cast<uint64_t>(index));
  h.Fold(static_cast<uint64_t>(layout));
  h.Fold(static_cast<uint64_t>(partition_count));
  return h.Finish();
}

}  // namespace reuse
}  // namespace efind

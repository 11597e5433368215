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

uint64_t ArtifactFingerprint(uint64_t chain_fp, const IndexOperator& op,
                             const std::vector<int>& shuffled_prefix,
                             ArtifactLayout layout, int partition_count) {
  FingerprintHasher h;
  h.Fold(chain_fp);
  h.Fold(OperatorChainToken(op));
  // Ordered prefix of shuffled index positions (Property 4: their order is
  // semantic — each shuffle regroups the previous one's output).
  h.Fold(static_cast<uint64_t>(shuffled_prefix.size()));
  for (int idx : shuffled_prefix) h.Fold(static_cast<uint64_t>(idx));
  h.Fold(static_cast<uint64_t>(layout));
  h.Fold(static_cast<uint64_t>(partition_count));
  return h.Finish();
}

uint64_t PlanArtifactFingerprint(const IndexJobConf& conf, uint64_t dataset_fp,
                                 OperatorPosition pos, int op_index,
                                 const OperatorPlan& oplan, int shuffle_ordinal,
                                 int partition_count) {
  const std::vector<std::shared_ptr<IndexOperator>>& ops = conf.ops(pos);
  if (op_index < 0 || op_index >= static_cast<int>(ops.size())) return 0;
  std::vector<int> prefix;
  ArtifactLayout layout = ArtifactLayout::kRepartition;
  for (const IndexChoice& choice : oplan.order) {
    if (choice.strategy != Strategy::kRepartition &&
        choice.strategy != Strategy::kIndexLocality) {
      continue;
    }
    prefix.push_back(choice.index);
    if (static_cast<int>(prefix.size()) == shuffle_ordinal + 1) {
      layout = choice.strategy == Strategy::kIndexLocality
                   ? ArtifactLayout::kIndexLocality
                   : ArtifactLayout::kRepartition;
      const uint64_t chain_fp =
          ChainFingerprint(conf, dataset_fp, pos, op_index);
      return ArtifactFingerprint(chain_fp, *ops[op_index], prefix, layout,
                                 partition_count);
    }
  }
  return 0;
}

}  // namespace reuse
}  // namespace efind

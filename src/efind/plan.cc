#include "efind/plan.h"

namespace efind {

const char* ToString(Strategy strategy) {
  switch (strategy) {
    case Strategy::kBaseline:
      return "base";
    case Strategy::kLookupCache:
      return "cache";
    case Strategy::kRepartition:
      return "repart";
    case Strategy::kIndexLocality:
      return "idxloc";
    case Strategy::kSaltedRepartition:
      return "salted";
  }
  return "?";
}

namespace {

void AppendGroup(const char* tag, const std::vector<OperatorPlan>& group,
                 std::string* out) {
  for (size_t i = 0; i < group.size(); ++i) {
    if (!out->empty()) *out += ' ';
    *out += tag;
    *out += std::to_string(i);
    *out += '[';
    for (size_t c = 0; c < group[i].order.size(); ++c) {
      if (c > 0) *out += ',';
      *out += "idx";
      *out += std::to_string(group[i].order[c].index);
      *out += '=';
      *out += ToString(group[i].order[c].strategy);
    }
    *out += ']';
  }
}

}  // namespace

std::string JobPlan::ToString() const {
  std::string out;
  AppendGroup("head", head, &out);
  AppendGroup("body", body, &out);
  AppendGroup("tail", tail, &out);
  return out;
}

JobPlan MakeUniformPlan(const IndexJobConf& conf, Strategy strategy) {
  JobPlan plan;
  auto fill = [&](const std::vector<std::shared_ptr<IndexOperator>>& ops,
                  std::vector<OperatorPlan>* out) {
    for (const auto& op : ops) {
      OperatorPlan p;
      for (int j = 0; j < op->num_indices(); ++j) {
        Strategy s = strategy;
        const IndexAccessor& accessor = *op->accessors()[j];
        // Downgrade infeasible choices so "uniform" plans stay runnable:
        // non-idempotent indices take baseline; index locality without a
        // partition scheme degrades to plain re-partitioning.
        if (!accessor.idempotent()) {
          s = Strategy::kBaseline;
        } else if (s == Strategy::kIndexLocality &&
                   accessor.partition_scheme() == nullptr) {
          s = Strategy::kRepartition;
        }
        p.order.push_back({j, s, 0.0});
      }
      out->push_back(std::move(p));
    }
  };
  for (OperatorPosition pos : kOperatorPositions) {
    fill(conf.ops(pos), &plan.at(pos));
  }
  return plan;
}

}  // namespace efind

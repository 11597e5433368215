#include "efind/statistics.h"

#include <algorithm>

#include "common/hash.h"

namespace efind {

double OperatorStats::SidxAfter(const std::vector<int>& accessed) const {
  double s = spre;
  for (int j : accessed) {
    if (j >= 0 && j < static_cast<int>(index.size())) {
      s += index[j].nik * index[j].siv;
    }
  }
  return s;
}

// ------------------------------------------------------------ index tally --

void IndexTally::Merge(const IndexTally& other) {
  keys += other.keys;
  key_bytes += other.key_bytes;
  lookups += other.lookups;
  lookup_result_bytes += other.lookup_result_bytes;
  service_time += other.service_time;
  cache_probes += other.cache_probes;
  cache_misses += other.cache_misses;
  avail_excess_sec += other.avail_excess_sec;
  down_lookups += other.down_lookups;
  failovers += other.failovers;
  hedges += other.hedges;
  hedge_wins += other.hedge_wins;
  flaky_lookups += other.flaky_lookups;
  corrupt_lookups += other.corrupt_lookups;
  breaker_short_circuits += other.breaker_short_circuits;
  uncoalesced_page_reads += other.uncoalesced_page_reads;
  sketch.Merge(other.sketch);
  skew.Merge(other.skew);
  if (other.multi_key_seen) multi_key_seen = true;
}

// ------------------------------------------------------ per-task collector --

OperatorTaskStats::OperatorTaskStats(OperatorRuntime* runtime)
    : index_(runtime->num_indices_) {}

void OperatorTaskStats::PreRecord(
    uint64_t input_bytes, uint64_t pre_output_bytes,
    const std::vector<std::vector<std::string>>& keys) {
  ++inputs_;
  input_bytes_ += input_bytes;
  pre_bytes_ += pre_output_bytes;
  const int n = static_cast<int>(index_.size());
  for (int j = 0; j < n && j < static_cast<int>(keys.size()); ++j) {
    IndexTally& t = index_[j];
    t.keys += keys[j].size();
    if (keys[j].size() != 1) t.multi_key_seen = true;
    for (const auto& k : keys[j]) {
      t.key_bytes += k.size();
      const uint64_t h = Hash64(k);
      t.sketch.AddHash(h);
      t.skew.Observe(h);
    }
  }
}

void OperatorTaskStats::LookupPerformed(int j, uint64_t result_bytes,
                                        double service_sec) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  IndexTally& t = index_[j];
  ++t.lookups;
  t.lookup_result_bytes += result_bytes;
  t.service_time += service_sec;
}

void OperatorTaskStats::LookupAvailability(int j, double excess_sec,
                                           bool primary_down,
                                           bool failed_over) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  IndexTally& t = index_[j];
  t.avail_excess_sec += excess_sec;
  if (primary_down) ++t.down_lookups;
  if (failed_over) ++t.failovers;
}

void OperatorTaskStats::LookupResilience(int j, int hedges, bool hedge_won,
                                         int flaky_errors,
                                         int corrupt_detected,
                                         bool breaker_short_circuit) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  IndexTally& t = index_[j];
  if (hedges > 0) ++t.hedges;
  if (hedge_won) ++t.hedge_wins;
  if (flaky_errors > 0) ++t.flaky_lookups;
  if (corrupt_detected > 0) ++t.corrupt_lookups;
  if (breaker_short_circuit) ++t.breaker_short_circuits;
}

void OperatorTaskStats::LookupPages(int j, uint64_t uncoalesced_pages) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  index_[j].uncoalesced_page_reads += uncoalesced_pages;
}

void OperatorTaskStats::CacheProbe(int j, bool miss) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  ++index_[j].cache_probes;
  if (miss) ++index_[j].cache_misses;
}

void OperatorTaskStats::ShadowProbe(int j, int node, const std::string& key) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  shadow_probes_.push_back({j, node, key.size()});
  shadow_keys_ += key;
}

void OperatorTaskStats::PostRecord(uint64_t output_bytes) {
  ++post_records_;
  post_bytes_ += output_bytes;
}

void OperatorTaskStats::MapOutput(uint64_t bytes) {
  map_output_bytes_ += bytes;
}

// ---------------------------------------------------------------- runtime --

OperatorRuntime::OperatorRuntime(int num_indices, int num_nodes,
                                 size_t cache_capacity,
                                 double hot_key_threshold, int salt_fanout)
    : num_indices_(num_indices > 0 ? num_indices : 0),
      num_nodes_(num_nodes > 0 ? num_nodes : 1),
      cache_capacity_(cache_capacity),
      hot_key_threshold_(hot_key_threshold),
      salt_fanout_(salt_fanout),
      index_(num_indices_),
      nik_samples_(num_indices_) {
  shadow_caches_.resize(static_cast<size_t>(num_nodes_) * num_indices_);
}

OperatorTaskStats* OperatorRuntime::TaskLocal(TaskContext* ctx) {
  return ctx->TaskStateFor<OperatorTaskStats>(
      this, [this](const OperatorTaskStats& task) { AbsorbTask(task); },
      this);
}

void OperatorRuntime::AbsorbTask(const OperatorTaskStats& task) {
  // A task's collector is sized by its runtime, so the index counts agree.
  total_inputs_ += task.inputs_;
  total_input_bytes_ += task.input_bytes_;
  total_pre_bytes_ += task.pre_bytes_;
  for (int j = 0; j < num_indices_; ++j) index_[j].Merge(task.index_[j]);
  if (task.inputs_ > 0) {
    ++pre_tasks_;
    const double n = static_cast<double>(task.inputs_);
    inputs_samples_.Add(n);
    s1_samples_.Add(static_cast<double>(task.input_bytes_) / n);
    spre_samples_.Add(static_cast<double>(task.pre_bytes_) / n);
    for (int j = 0; j < num_indices_; ++j) {
      nik_samples_[j].Add(static_cast<double>(task.index_[j].keys) / n);
    }
  }
  total_post_records_ += task.post_records_;
  total_post_bytes_ += task.post_bytes_;
  if (task.post_records_ > 0) {
    ++post_tasks_;
    spost_samples_.Add(static_cast<double>(task.post_bytes_) /
                       static_cast<double>(task.post_records_));
  }
  map_output_bytes_ += task.map_output_bytes_;
  std::string key;
  size_t key_offset = 0;
  for (const auto& p : task.shadow_probes_) {
    key.assign(task.shadow_keys_, key_offset, p.key_size);
    key_offset += p.key_size;
    const int node = p.node >= 0 && p.node < num_nodes_ ? p.node : 0;
    auto& cache =
        shadow_caches_[static_cast<size_t>(node) * num_indices_ + p.j];
    if (!cache) {
      cache = std::make_unique<LruCache<std::string, char>>(cache_capacity_);
    }
    char unused = 0;
    IndexTally& t = index_[p.j];
    ++t.cache_probes;
    if (!cache->Get(key, &unused)) {
      ++t.cache_misses;
      cache->Put(key, 0);
    }
  }
}

namespace {

/// The lookup-side statistics of one index (Siv_j, T_j, R and the
/// availability/resilience/page shares): defined from its lookups and
/// cache probes alone, so they are surfaced even before any preProcess
/// sample exists.
void DeriveLookupStats(const IndexTally& t, IndexStats* is) {
  is->siv = t.lookups > 0 ? static_cast<double>(t.lookup_result_bytes) /
                                static_cast<double>(t.lookups)
                          : 0.0;
  is->tj = t.lookups > 0 ? t.service_time / static_cast<double>(t.lookups)
                         : 0.0;
  is->miss_ratio = t.cache_probes > 0
                       ? static_cast<double>(t.cache_misses) /
                             static_cast<double>(t.cache_probes)
                       : 1.0;
  if (t.lookups == 0) return;
  const double lookups = static_cast<double>(t.lookups);
  is->avail_excess = t.avail_excess_sec / lookups;
  is->down_share = static_cast<double>(t.down_lookups) / lookups;
  is->failover_share = static_cast<double>(t.failovers) / lookups;
  is->hedge_share = static_cast<double>(t.hedges) / lookups;
  is->hedge_win_share = static_cast<double>(t.hedge_wins) / lookups;
  is->flaky_share = static_cast<double>(t.flaky_lookups) / lookups;
  is->corrupt_share = static_cast<double>(t.corrupt_lookups) / lookups;
  is->breaker_share = static_cast<double>(t.breaker_short_circuits) / lookups;
  is->pages_per_lookup =
      static_cast<double>(t.uncoalesced_page_reads) / lookups;
}

}  // namespace

OperatorStats OperatorRuntime::Compute(int num_nodes,
                                       double extrapolation) const {
  OperatorStats stats;
  if (num_nodes <= 0) num_nodes = 1;
  if (extrapolation < 1.0) extrapolation = 1.0;
  stats.index.resize(num_indices_);
  for (int j = 0; j < num_indices_; ++j) {
    DeriveLookupStats(index_[j], &stats.index[j]);
  }
  // No preProcess samples yet: the lookup-side statistics are surfaced,
  // but the stats stay invalid for planning.
  if (total_inputs_ == 0) return stats;

  const double inputs = static_cast<double>(total_inputs_);
  stats.n1 = inputs * extrapolation / num_nodes;
  stats.s1 = static_cast<double>(total_input_bytes_) / inputs;
  stats.spre = static_cast<double>(total_pre_bytes_) / inputs;
  stats.spost = total_post_records_ > 0
                    ? static_cast<double>(total_post_bytes_) /
                          static_cast<double>(total_post_records_)
                    : 0.0;
  stats.smap = static_cast<double>(map_output_bytes_) / inputs;
  stats.tasks_sampled = pre_tasks_;

  double max_cov = std::max(
      {inputs_samples_.coefficient_of_variation(),
       s1_samples_.coefficient_of_variation(),
       spre_samples_.coefficient_of_variation(),
       post_tasks_ >= 2 ? spost_samples_.coefficient_of_variation() : 0.0});
  for (int j = 0; j < num_indices_; ++j) {
    const IndexTally& t = index_[j];
    IndexStats& is = stats.index[j];
    is.nik = static_cast<double>(t.keys) / inputs;
    is.sik = t.keys > 0 ? static_cast<double>(t.key_bytes) /
                              static_cast<double>(t.keys)
                        : 0.0;
    const double distinct = t.sketch.EstimateDistinct();
    // FM estimates the distinct count of the *sampled* keys; scale both the
    // total and distinct by the same extrapolation so Theta is unbiased
    // under uniform duplication. (Distinct counts do not extrapolate
    // linearly in general; treat Theta as the duplicate factor observed in
    // the sample, which is what re-optimization acts on.)
    is.theta = distinct > 0.5
                   ? std::max(1.0, static_cast<double>(t.keys) / distinct)
                   : 1.0;
    is.repartitionable = !t.multi_key_seen;
    const SkewDetector::Summary skew = t.skew.Summarize(hot_key_threshold_);
    is.max_key_share = skew.max_share;
    is.salt_fanout = salt_fanout_;
    for (const auto& hk : skew.hot) is.hot_keys.push_back(hk.hash);
    max_cov = std::max(max_cov, nik_samples_[j].coefficient_of_variation());
  }
  stats.max_cov = max_cov;
  stats.valid = true;
  return stats;
}

}  // namespace efind

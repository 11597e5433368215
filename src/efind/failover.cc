#include "efind/failover.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace efind {

double LookupFailover::HealthyRemoteSeconds(const IndexAccessor& accessor,
                                            const std::string& ik,
                                            uint64_t result_bytes,
                                            double service_sec) const {
  return service_sec + accessor.RemoteOverheadSeconds() +
         config_->RemoteLookupSeconds(ik.size() + result_bytes);
}

LookupCharge LookupFailover::Remote(const IndexAccessor& accessor,
                                    const std::string& ik,
                                    uint64_t result_bytes, double service_sec,
                                    double task_clock) const {
  LookupCharge charge;
  const double healthy =
      HealthyRemoteSeconds(accessor, ik, result_bytes, service_sec);
  const PartitionScheme* scheme = accessor.partition_scheme();
  if (!active() || scheme == nullptr) {
    // No host model: an external service (no scheme) has no machine of ours
    // to take down; charge the healthy path.
    charge.seconds = healthy;
    return charge;
  }

  const int p = scheme->PartitionOf(ik);
  const int primary = scheme->HostOfPartition(p);
  // Serving cost from `host`: the service leg stretches by the host's
  // degrade factor; the network legs are unchanged.
  auto serve_from = [&](int host) {
    return healthy + (avail_->DegradeFactor(host) - 1.0) * service_sec;
  };

  double waited = 0.0;  // Backoff / outage wait time, charged to the task.
  if (!avail_->IsDown(primary, task_clock)) {
    charge.seconds = serve_from(primary);
    charge.excess_sec = charge.seconds - healthy;
    return charge;
  }
  charge.primary_down = true;

  // Retry against the primary with linear backoff; a short outage can be
  // ridden out without leaving the host. The cumulative wait is clamped to
  // the instant the outage ends — a retry never sleeps past a host that is
  // already back — and when the outage outlasts the whole retry budget the
  // loop is skipped outright instead of accumulating backoff that cannot
  // succeed.
  const double up_at = avail_->UpAgainAt(primary, task_clock);
  double retry_budget = 0.0;
  for (int a = 1; a < config_->lookup_max_attempts; ++a) {
    retry_budget += config_->lookup_retry_backoff_sec * a;
  }
  if (std::isfinite(up_at) && up_at - task_clock <= retry_budget) {
    for (int attempt = 1; attempt < config_->lookup_max_attempts; ++attempt) {
      waited += config_->lookup_retry_backoff_sec * attempt;
      ++charge.attempts;
      if (task_clock + waited > up_at) waited = up_at - task_clock;  // Clamp.
      if (!avail_->IsDown(primary, task_clock + waited)) {
        charge.seconds = waited + serve_from(primary);
        charge.excess_sec = charge.seconds - healthy;
        return charge;
      }
    }
  }

  // Failover: try the partition's other replica hosts, up to
  // `failover_replicas` hosts in total (primary included). Each candidate
  // costs one extra routing round trip.
  std::vector<int> candidates;
  candidates.push_back(primary);
  for (int n = 0; n < avail_->num_nodes() &&
                  static_cast<int>(candidates.size()) <
                      config_->failover_replicas;
       ++n) {
    if (n != primary && scheme->NodeHostsPartition(n, p)) {
      candidates.push_back(n);
    }
  }
  for (size_t c = 1; c < candidates.size(); ++c) {
    waited += config_->rpc_overhead_sec;  // Re-route to the next replica.
    ++charge.attempts;
    if (!avail_->IsDown(candidates[c], task_clock + waited)) {
      charge.failed_over = true;
      charge.seconds = waited + serve_from(candidates[c]);
      charge.excess_sec = charge.seconds - healthy;
      return charge;
    }
  }

  // Every replica is down right now: wait for the earliest one to come
  // back. All down for the rest of the run degenerates to a cold restore
  // of the partition from the DFS (3x-replicated files survive the hosts).
  double earliest = std::numeric_limits<double>::infinity();
  int earliest_host = primary;
  for (int host : candidates) {
    const double up = avail_->UpAgainAt(host, task_clock + waited);
    if (up < earliest) {
      earliest = up;
      earliest_host = host;
    }
  }
  if (std::isfinite(earliest)) {
    waited += earliest - (task_clock + waited);
    charge.failed_over = earliest_host != primary;
    charge.seconds = waited + serve_from(earliest_host);
  } else {
    charge.failed_over = true;
    charge.seconds = waited +
                     config_->DfsRoundTripSeconds(ik.size() + result_bytes) +
                     healthy;
  }
  charge.excess_sec = charge.seconds - healthy;
  return charge;
}

LookupCharge LookupFailover::Local(const IndexAccessor& accessor,
                                   const std::string& ik,
                                   uint64_t result_bytes, double service_sec,
                                   int task_node, double task_clock) const {
  LookupCharge charge;
  if (!active()) {
    charge.seconds = service_sec;
    return charge;
  }
  const PartitionScheme* scheme = accessor.partition_scheme();
  const int p = scheme != nullptr ? scheme->PartitionOf(ik) : -1;
  const bool hosted =
      scheme != nullptr && scheme->NodeHostsPartition(task_node, p);
  if (hosted && !avail_->IsDown(task_node, task_clock)) {
    // The local replica serves; a degraded host stretches the service leg.
    charge.seconds = avail_->DegradeFactor(task_node) * service_sec;
    charge.excess_sec = charge.seconds - service_sec;
    return charge;
  }
  // Locality lost: the task's node does not hold (or cannot serve) the
  // partition, so the lookup leaves the node through the remote failover
  // path. The entire difference vs. the healthy local cost is excess.
  charge = Remote(accessor, ik, result_bytes, service_sec, task_clock);
  charge.failed_over = true;
  charge.excess_sec = charge.seconds - service_sec;
  return charge;
}

LookupCharge LookupFailover::Resilient(const IndexAccessor& accessor,
                                       const std::string& ik,
                                       uint64_t result_bytes,
                                       double service_sec, int task_node,
                                       bool local, double task_clock,
                                       BreakerBank* breakers) const {
  if (!active()) {
    return local ? Local(accessor, ik, result_bytes, service_sec, task_node,
                         task_clock)
                 : Remote(accessor, ik, result_bytes, service_sec, task_clock);
  }
  const PartitionScheme* scheme = accessor.partition_scheme();
  const bool svc = faults_ != nullptr && faults_->service_faults();
  const double healthy =
      HealthyRemoteSeconds(accessor, ik, result_bytes, service_sec);
  // What this lookup costs on a healthy cluster; every resilience charge
  // beyond it is excess so the fault-clean statistics never move.
  const double clean_base = local ? service_sec : healthy;
  const int partition = scheme != nullptr ? scheme->PartitionOf(ik) : -1;
  // The coordinate of every fault draw for this key: the partition's
  // primary host, or the service pseudo-host for schemeless accessors.
  const int fault_host = scheme != nullptr ? scheme->HostOfPartition(partition)
                                           : FaultModel::kServiceHost;

  BreakerBank::Breaker* br = nullptr;
  if (breakers != nullptr && scheme != nullptr &&
      config_->breaker_failure_threshold > 0) {
    br = &breakers->For(task_node, partition);
  }

  LookupCharge charge;
  // (1) Open circuit: skip the failing primary and route straight to a
  // replica, paying one re-route round trip per candidate tried.
  bool short_circuit = false;
  if (br != nullptr && br->state == BreakerBank::State::kOpen) {
    double waited = 0.0;
    int tried = 0;
    int serve_host = -1;
    for (int n = 0;
         n < avail_->num_nodes() && tried < config_->failover_replicas; ++n) {
      if (n == fault_host || !scheme->NodeHostsPartition(n, partition)) {
        continue;
      }
      ++tried;
      waited += config_->rpc_overhead_sec;  // Re-route past the primary.
      if (!avail_->IsDown(n, task_clock + waited)) {
        serve_host = n;
        break;
      }
    }
    if (serve_host >= 0) {
      short_circuit = true;
      charge.seconds = waited + healthy +
                       (avail_->DegradeFactor(serve_host) - 1.0) * service_sec;
      charge.excess_sec = charge.seconds - clean_base;
      charge.attempts = tried;
      charge.failed_over = true;
      charge.breaker_short_circuit = true;
    }
  }
  // (2) Base charge: the PR 2 host-availability path, untouched — with every
  // service-level knob at its default, Resilient reduces to exactly this.
  if (!short_circuit) {
    charge = local ? Local(accessor, ik, result_bytes, service_sec, task_node,
                           task_clock)
                   : Remote(accessor, ik, result_bytes, service_sec,
                            task_clock);
  }
  charge.partition = partition;

  // (3) Transient (flaky) errors: ride them out with the same linear
  // backoff as host retries, plus one re-issue round trip each. Skipped on
  // a short-circuited lookup — the breaker's whole point is avoiding the
  // flaky primary.
  if (svc && faults_->flaky_faults() && !short_circuit) {
    int flaky_attempt = charge.attempts;
    while (charge.flaky_errors < config_->lookup_max_attempts - 1 &&
           faults_->FlakyError(fault_host, ik, flaky_attempt)) {
      ++charge.flaky_errors;
      const double penalty =
          config_->lookup_retry_backoff_sec * charge.flaky_errors +
          config_->rpc_overhead_sec;
      charge.seconds += penalty;
      charge.excess_sec += penalty;
      ++charge.attempts;
      ++flaky_attempt;
    }
  }

  // (4) Heavy-tail latency spike on the serving attempt, with an optional
  // hedged backup: once the lookup is outstanding past the hedge-quantile
  // of its healthy completion time, a backup request goes to a replica and
  // the first response wins — both requests are charged (the loser's issue
  // cost is real work).
  if (svc && faults_->latency_faults()) {
    const double spike_excess =
        (faults_->LatencySpikeFactor(fault_host, ik, charge.attempts) - 1.0) *
        service_sec;
    charge.injected_latency_sec = spike_excess;
    const bool remote_shape =
        !local || charge.failed_over || short_circuit;
    int backup = -1;
    if (config_->hedged_lookups && remote_shape) {
      if (scheme == nullptr) {
        // A second request to the external service is always possible.
        backup = FaultModel::kServiceHost;
      } else {
        for (int n = 0; n < avail_->num_nodes(); ++n) {
          if (n != fault_host && scheme->NodeHostsPartition(n, partition) &&
              !avail_->IsDownWholeRun(n)) {
            backup = n;
            break;
          }
        }
      }
    }
    const double deadline =
        healthy +
        (faults_->StretchQuantile(config_->hedge_quantile) - 1.0) *
            service_sec;
    const double primary_done = charge.seconds + spike_excess;
    if (backup != FaultModel::kServiceHost && backup < 0) {
      // No hedge target (or hedging off): the spike is charged in full.
      charge.seconds = primary_done;
      charge.excess_sec += spike_excess;
    } else if (primary_done <= deadline) {
      // Primary answers before the hedge would fire; no backup issued.
      charge.seconds = primary_done;
      charge.excess_sec += spike_excess;
    } else {
      // Backup issued at `deadline`; its own service leg draws an
      // independent spike (offset stream so the two arms decorrelate).
      const double backup_stretch =
          faults_->LatencySpikeFactor(backup, ik, charge.attempts + 64);
      const double backup_done = deadline + config_->rpc_overhead_sec +
                                 healthy +
                                 (backup_stretch - 1.0) * service_sec;
      const double total =
          std::min(primary_done, backup_done) + config_->rpc_overhead_sec;
      charge.hedges = 1;
      charge.hedge_won = backup_done < primary_done;
      if (charge.hedge_won) charge.failed_over = true;
      ++charge.attempts;
      charge.excess_sec += total - charge.seconds;
      charge.seconds = total;
    }
  }

  // (5) Payload corruption: the end-to-end checksum catches it; each
  // detection charges a clean re-fetch round trip, and past the re-fetch
  // bound one DFS-verified slow path settles it. The payload served to the
  // job is always the accessor's true bytes — corruption costs time, never
  // data.
  if (svc && config_->lookup_corrupt_rate > 0.0) {
    int fetch = 0;
    while (fetch < config_->integrity_max_refetches &&
           faults_->CorruptLookup(fault_host, ik, fetch)) {
      ++charge.corrupt_detected;
      charge.seconds += healthy;
      charge.excess_sec += healthy;
      ++charge.attempts;
      ++fetch;
    }
    if (fetch == config_->integrity_max_refetches &&
        faults_->CorruptLookup(fault_host, ik, fetch)) {
      ++charge.corrupt_detected;
      const double slow =
          config_->DfsRoundTripSeconds(ik.size() + result_bytes) + healthy;
      charge.seconds += slow;
      charge.excess_sec += slow;
      ++charge.attempts;
    }
  }

  // (6) Breaker bookkeeping. A "failure" is a down primary or any transient
  // error this lookup had to ride out. At most one state transition per
  // lookup; the caller emits it to obs.
  if (br != nullptr) {
    const BreakerBank::State before = br->state;
    const bool failure = charge.primary_down || charge.flaky_errors > 0;
    switch (br->state) {
      case BreakerBank::State::kClosed:
        if (failure) {
          if (++br->consecutive_failures >=
              config_->breaker_failure_threshold) {
            br->state = BreakerBank::State::kOpen;
            br->open_remaining = config_->breaker_open_lookups;
            br->consecutive_failures = 0;
          }
        } else {
          br->consecutive_failures = 0;
        }
        break;
      case BreakerBank::State::kOpen:
        // Count short-circuited lookups down to the half-open probe.
        if (--br->open_remaining <= 0) {
          br->state = BreakerBank::State::kHalfOpen;
        }
        break;
      case BreakerBank::State::kHalfOpen:
        // This lookup was the probe against the primary.
        if (failure) {
          br->state = BreakerBank::State::kOpen;
          br->open_remaining = config_->breaker_open_lookups;
        } else {
          br->state = BreakerBank::State::kClosed;
        }
        break;
    }
    if (br->state != before) {
      charge.breaker_transition_from = static_cast<int>(before) + 1;
      charge.breaker_transition_to = static_cast<int>(br->state) + 1;
    }
  }
  return charge;
}

}  // namespace efind

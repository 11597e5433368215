// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Failure-aware accessor runtime: retry-with-backoff and replica failover
// for index lookups against down or degraded hosts. The paper's footnote 3
// rejects pinning work to single index hosts because "the unavailability of
// the machine can slow down the entire MapReduce job"; this module is the
// reacting half of that story — a lookup that would hit a down index host
// retries with linear backoff, then fails over to a replica host of the
// index partition, charging the extra network/wait time to the task's
// simulated clock. Everything here is time-domain only: the data flow (the
// actual `Lookup` call against the in-memory index) is untouched, so job
// outputs are byte-identical with and without injected faults (DESIGN.md
// §7).
//
// On top of the binary host model sits the service-level resilience layer
// (DESIGN.md §10): hedged lookups against the `FaultModel`'s heavy-tail
// latency spikes, retry loops for its transient (flaky) errors, bounded
// checksum-driven re-fetches for its payload corruption, and a per-(task
// node, index partition) circuit breaker that routes lookups straight to
// replicas while a primary keeps failing. All of it shares the fault-clean
// statistics contract: clean T_j per lookup, everything else as excess.

#ifndef EFIND_EFIND_FAILOVER_H_
#define EFIND_EFIND_FAILOVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "efind/index_accessor.h"

namespace efind {

/// Time accounting of one (possibly retried / failed-over) index lookup.
struct LookupCharge {
  /// Total simulated seconds to charge the task for this lookup.
  double seconds = 0.0;
  /// Seconds beyond what the same lookup costs on a healthy cluster —
  /// retries, backoff waits, failover round trips, degraded service. This
  /// feeds the optimizer's availability statistics; the clean service time
  /// (T_j) and lookup counters are reported separately so Θ/R estimates
  /// never move under faults.
  double excess_sec = 0.0;
  /// Lookup attempts issued (1 on the healthy path).
  int attempts = 1;
  /// The partition's primary host was down when the lookup was issued.
  bool primary_down = false;
  /// The lookup was served by a host other than the one it targeted
  /// (replica failover, or an index-locality lookup forced off-node).
  bool failed_over = false;

  // --- service-level resilience outcomes (DESIGN.md §10) ---
  /// Backup requests issued by hedging (0 or 1).
  int hedges = 0;
  /// The hedged backup finished before the spiked primary.
  bool hedge_won = false;
  /// Transient errors ridden out with retry-with-backoff.
  int flaky_errors = 0;
  /// Payload corruptions detected by the end-to-end checksum (each one
  /// charged a re-fetch; never surfaced as data).
  int corrupt_detected = 0;
  /// The lookup skipped its failing primary through an open circuit.
  bool breaker_short_circuit = false;
  /// Breaker state transition triggered by this lookup, encoded as
  /// `BreakerBank::State + 1` (0 = no transition). At most one per lookup.
  int breaker_transition_from = 0;
  int breaker_transition_to = 0;
  /// Index partition of this lookup's key (-1 for schemeless accessors);
  /// identifies the breaker cell in obs events.
  int partition = -1;
  /// Latency-spike seconds injected into this lookup (before any hedge
  /// rescue); feeds the injection histogram.
  double injected_latency_sec = 0.0;
};

/// Per-(task node, index partition) circuit-breaker state. The breaker is
/// deliberately *stateful* — its whole point is remembering consecutive
/// failures — which is safe under the deterministic-schedule contract for
/// the same reason per-node lookup caches are (DESIGN.md §6): the bank is
/// per-node state, so a stage that charges through it while the failover
/// is active declares `RecordStage::holds_node_state`. All tasks of one
/// node then run serialized on that node's strand, so a (node, partition)
/// cell is only ever touched from one strand, in task order, and the
/// resulting decisions are identical for any thread count. An inactive
/// failover never touches the bank.
class BreakerBank {
 public:
  enum class State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  BreakerBank(int num_nodes, int num_partitions)
      : num_partitions_(num_partitions > 0 ? num_partitions : 1),
        cells_(static_cast<size_t>(num_nodes > 0 ? num_nodes : 1) *
               static_cast<size_t>(num_partitions_)) {}

  struct Breaker {
    State state = State::kClosed;
    int consecutive_failures = 0;
    /// Short-circuited lookups left before the half-open probe.
    int open_remaining = 0;
  };

  /// The cell for lookups from `node` against index partition `partition`.
  /// Out-of-range coordinates (service pseudo-host, schemeless accessor)
  /// map onto a scratch cell so callers need not special-case them.
  Breaker& For(int node, int partition) {
    if (node < 0 || partition < 0 || partition >= num_partitions_) {
      return scratch_;
    }
    const size_t i = static_cast<size_t>(node) *
                         static_cast<size_t>(num_partitions_) +
                     static_cast<size_t>(partition);
    return i < cells_.size() ? cells_[i] : scratch_;
  }

  static const char* ToString(State s) {
    switch (s) {
      case State::kOpen:
        return "open";
      case State::kHalfOpen:
        return "half_open";
      default:
        return "closed";
    }
  }

 private:
  int num_partitions_;
  std::vector<Breaker> cells_;
  Breaker scratch_;
};

/// Charges index lookups under the cluster's host-availability model. It
/// prices every lookup the stages perform (`LookupSite::Charge` calls
/// `Resilient`), so with no faults configured it is the healthy charge.
///
/// Stateless and const: safe to share across concurrently executing tasks.
/// Down intervals are evaluated against the calling task's local clock
/// (`TaskContext::sim_time()` at lookup issue) — the simulator has no global
/// clock during a phase. Hosts are resolved through the accessor's partition
/// scheme; accessors without a scheme (external cloud services) expose no
/// host to take down and always charge healthy-path time.
class LookupFailover {
 public:
  /// `config` (never null) and `avail` (and `faults`, when given) are
  /// borrowed and must outlive this object. A null `avail` gives an
  /// inactive charger that prices every lookup at its healthy cost.
  LookupFailover(const ClusterConfig* config, const HostAvailability* avail,
                 const FaultModel* faults = nullptr)
      : config_(config), avail_(avail), faults_(faults) {}

  /// True when any host or service-level fault is configured. When false,
  /// `Resilient` charges the healthy cost (`Local`'s or `Remote`'s) and
  /// does no breaker or fault-draw work.
  bool active() const {
    return config_ != nullptr && avail_ != nullptr &&
           (avail_->any_faults() ||
            (faults_ != nullptr && faults_->service_faults()));
  }

  /// Charges a remote lookup of `ik` (returning `result_bytes`) with clean
  /// service time `service_sec`, issued at task-local time `task_clock`.
  LookupCharge Remote(const IndexAccessor& accessor, const std::string& ik,
                      uint64_t result_bytes, double service_sec,
                      double task_clock) const;

  /// Charges an index-locality (node-local) lookup issued from `task_node`.
  /// When the node does not host the key's partition, or is down, the
  /// lookup is forced off-node through the remote failover path and the
  /// whole difference vs. the local healthy cost is reported as excess.
  LookupCharge Local(const IndexAccessor& accessor, const std::string& ik,
                     uint64_t result_bytes, double service_sec, int task_node,
                     double task_clock) const;

  /// The full resilience pipeline around `Local`/`Remote`: breaker routing,
  /// flaky-error retries, latency spikes with an optional hedged backup,
  /// and checksum-driven corruption re-fetches. `local` selects the base
  /// charge shape; `breakers` (may be null) is the calling stage's breaker
  /// bank, mutated only from the owning node's strand (the stage declares
  /// `holds_node_state`). While `!active()`,
  /// or with every service-level knob at its default, this is exactly
  /// `local ? Local(...) : Remote(...)`.
  LookupCharge Resilient(const IndexAccessor& accessor, const std::string& ik,
                         uint64_t result_bytes, double service_sec,
                         int task_node, bool local, double task_clock,
                         BreakerBank* breakers) const;

  const HostAvailability* availability() const { return avail_; }
  const FaultModel* faults() const { return faults_; }

 private:
  /// The healthy-cluster cost of a remote lookup: the index service time,
  /// the accessor's remote overhead, and the network round trip of key and
  /// result (paper Eqs. 1-3). The one place the engine writes it.
  double HealthyRemoteSeconds(const IndexAccessor& accessor,
                              const std::string& ik,
                              uint64_t result_bytes,
                              double service_sec) const;

  const ClusterConfig* config_ = nullptr;
  const HostAvailability* avail_ = nullptr;
  const FaultModel* faults_ = nullptr;
};

}  // namespace efind

#endif  // EFIND_EFIND_FAILOVER_H_

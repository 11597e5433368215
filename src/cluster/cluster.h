// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Cluster time model. The paper evaluates on 12 HP blades (8 map + 4 reduce
// slots each) connected by 1 Gbps Ethernet, with HDFS (64 MB chunks, 3x
// replication) and Cassandra co-located. This module models that environment:
// MapReduce jobs in this repository *really execute* their data flow, while
// elapsed time is *simulated* from per-task byte and lookup counts using the
// constants below. See DESIGN.md §3 for why this substitution preserves the
// paper's experimental shapes.

#ifndef EFIND_CLUSTER_CLUSTER_H_
#define EFIND_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace efind {

/// One planned outage of a worker / index host. `for_sec` defaults to
/// "for the rest of the run"; finite values model transient outages that
/// retry-with-backoff can ride out.
struct HostDowntime {
  int node = 0;
  /// Outage start, in simulated seconds from phase start (task-local clock;
  /// see DESIGN.md §7 for the clock semantics).
  double from_sec = 0.0;
  /// Outage length; infinity = down for the whole run.
  double for_sec = std::numeric_limits<double>::infinity();
};

/// Static description of the simulated cluster and its cost constants.
/// All times are in seconds, all sizes in bytes.
struct ClusterConfig {
  /// Number of worker nodes (paper: 12).
  int num_nodes = 12;
  /// Concurrent map tasks per node (paper: 8).
  int map_slots_per_node = 8;
  /// Concurrent reduce tasks per node (paper: 4).
  int reduce_slots_per_node = 4;

  /// Point-to-point network bandwidth BW (paper: 1 Gbps = 125 MB/s).
  double network_bw_bytes_per_sec = 125.0e6;
  /// Fixed per-request overhead of a remote index lookup (request routing,
  /// connection handling). Kept small: the paper folds server-side RPC cost
  /// into the measured T_j, and Fig. 11(f)'s repart-vs-idxloc crossover
  /// implies the purely-network fixed cost is a few microseconds.
  double rpc_overhead_sec = 5e-6;
  /// Sequential local-disk bandwidth for reading input splits.
  double disk_bw_bytes_per_sec = 100.0e6;
  /// Average cost f of storing *and* retrieving one byte in the distributed
  /// file system (Table 1). Includes 3x-replicated writes, so the effective
  /// throughput is well below raw disk speed.
  double dfs_cost_per_byte = 2.0e-8;  // ~50 MB/s round trip.
  /// The store-only share of `dfs_cost_per_byte` (pipelined 3-replica
  /// write). The retrieval share is charged as the next job's input read.
  double dfs_store_cost_per_byte = 1.0e-8;

  /// CPU cost charged per record passing through a map/reduce function.
  double cpu_per_record_sec = 2.0e-6;
  /// CPU cost charged per byte processed (parsing/serialization).
  double cpu_per_byte_sec = 2.0e-9;
  /// Average time T_cache for a probe in the lookup cache (Table 1).
  double cache_probe_sec = 1.0e-6;
  /// Fixed per-task startup overhead (JVM-ish task launch in Hadoop).
  double task_startup_sec = 0.003;

  // --- fault model ---------------------------------------------------------
  // The paper's footnote 3 declines to pin reducers to single index hosts
  // because "the unavailability of the machine can slow down the entire
  // MapReduce job". These knobs inject that reality deterministically:
  // a failed task re-executes from scratch; a straggler runs slowed down.
  /// Fraction of tasks that fail once and re-run (0 disables).
  double task_failure_rate = 0.0;
  /// Fraction of tasks that run `straggler_slowdown` times slower.
  double straggler_rate = 0.0;
  double straggler_slowdown = 3.0;
  /// Seed of the deterministic per-task fault assignment (also seeds the
  /// `random_down_hosts` pick below).
  uint64_t fault_seed = 1;

  // --- index-host availability (failure-aware execution) -------------------
  // The paper's footnote 3 is specifically about *index host* availability
  // ("the unavailability of the machine can slow down the entire MapReduce
  // job" when reducers are pinned to single index hosts). These knobs model
  // down and degraded index hosts; the accessor runtime reacts with
  // retry-with-backoff and replica failover (src/efind/failover.h), and the
  // scheduler avoids placing index-locality tasks on whole-run-down hosts.
  /// Explicit per-node outages.
  std::vector<HostDowntime> host_downtimes;
  /// Additionally marks this many distinct hosts down for the whole run,
  /// picked deterministically from `fault_seed`. Must be < num_nodes.
  int random_down_hosts = 0;
  /// Hosts whose index service runs `degraded_service_factor` times slower
  /// (overloaded / failing-disk nodes; HAIL-style heterogeneous replicas).
  std::vector<int> degraded_hosts;
  double degraded_service_factor = 4.0;

  /// Lookup retry policy against a down index host: up to this many
  /// attempts total (>= 1), waiting `lookup_retry_backoff_sec * attempt`
  /// before each retry, then failing over to a replica host.
  int lookup_max_attempts = 3;
  double lookup_retry_backoff_sec = 0.05;
  /// Replica hosts a failed-over lookup may try (the paper's index
  /// partitions are "replicated to three data nodes").
  int failover_replicas = 3;

  // --- service-level resilience (DESIGN.md §10) ----------------------------
  // Beyond binary host outages, external index services exhibit tail-latency
  // spikes, transient (flaky) errors, and corrupted payloads. These knobs
  // inject those deterministically (pure functions of `fault_seed`, the
  // target host, the key, and the attempt number — see FaultModel below);
  // the client-side resilience layer (hedged lookups, circuit breakers,
  // end-to-end checksums; src/efind/failover.h) reacts. All of it is
  // time-domain only: outputs are byte-identical with and without it.
  /// Probability that one lookup attempt's service leg suffers a heavy-tail
  /// latency spike (0 disables).
  double lookup_latency_spike_rate = 0.0;
  /// Scale of a spike: the service leg stretches by `factor * (1 - ln u)`
  /// for a seeded uniform u — an exponential tail, capped at 64x `factor`.
  double lookup_latency_spike_factor = 8.0;
  /// Per-attempt probability of a transient lookup error (connection reset
  /// / timeout); the client retries with backoff (0 disables).
  double lookup_flaky_rate = 0.0;
  /// Per-fetch probability that a lookup payload arrives corrupted; the
  /// end-to-end checksum detects it and the client re-fetches (0 disables).
  double lookup_corrupt_rate = 0.0;
  /// Per-chunk probability that a materialized-artifact read is corrupted
  /// (detected by the artifact checksum; the chunk is re-fetched from
  /// another DFS replica and the transfer re-charged).
  double artifact_corrupt_rate = 0.0;
  /// Bounded fast re-fetches after a detected corruption; past the bound
  /// the transfer falls back to a DFS-verified slow path. Keeps charges
  /// finite at corruption rate 1.0.
  int integrity_max_refetches = 2;

  /// Hedged lookups: when a remote lookup is outstanding past the
  /// `hedge_quantile` of its healthy latency distribution, issue a backup
  /// request to a replica, take the first clean response, and charge both
  /// requests (the loser's issue cost is real work).
  bool hedged_lookups = false;
  double hedge_quantile = 0.95;

  /// Per-(task node, index partition) circuit breaker: after this many
  /// consecutive primary failures the circuit opens and lookups route
  /// straight to replicas; after `breaker_open_lookups` short-circuited
  /// lookups a half-open probe re-tries the primary. 0 disables.
  int breaker_failure_threshold = 0;
  int breaker_open_lookups = 16;

  // --- packed object store (DESIGN.md §13) ---------------------------------
  // A storage-backed index serves a lookup by reading pages, not by a
  // pointer chase, so page I/O is its dominant cost. It is charged per
  // *distinct* page with device-level parallelism: a batch of outstanding
  // lookups pays waves of `store_io_parallelism` concurrent page reads
  // (io_uring-style queue depth), which is what makes batch depth visible
  // in the figures.
  /// Latency of one page read from the store's device.
  double page_read_sec = 100e-6;
  /// Page reads the device serves concurrently (queue depth).
  int store_io_parallelism = 64;
  /// Lookups the runtime accumulates per batch before flushing against a
  /// batched store (1 = serial lookup-at-a-time).
  int store_batch_depth = 16;

  // --- cross-job artifact reuse --------------------------------------------
  /// Fixed cost of resolving a materialized artifact from the reuse store
  /// at job start (namenode round trip + manifest read; DESIGN.md §9). The
  /// artifact's retrieval bytes are charged as ordinary remote map input.
  double reuse_resolve_sec = 0.002;

  // --- speculative execution ----------------------------------------------
  /// Launch a backup copy of a task whose duration exceeds
  /// `speculation_threshold` times its wave's median; the first finisher
  /// wins (Hadoop's speculative execution). Purely a time-domain transform:
  /// outputs are byte-identical with or without it (DESIGN.md §7).
  bool speculative_execution = false;
  /// Slowdown multiple relative to the wave median that triggers a backup
  /// task. Must be > 1.
  double speculation_threshold = 1.5;

  int total_map_slots() const { return num_nodes * map_slots_per_node; }
  int total_reduce_slots() const { return num_nodes * reduce_slots_per_node; }

  /// Seconds to move `bytes` across one network link.
  double TransferSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) / network_bw_bytes_per_sec;
  }
  /// Seconds for one remote lookup round trip moving `bytes` (key +
  /// results), excluding the index's own service time.
  double RemoteLookupSeconds(uint64_t bytes) const {
    return rpc_overhead_sec + TransferSeconds(bytes);
  }
  /// Seconds to read `bytes` from the local disk.
  double DiskReadSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) / disk_bw_bytes_per_sec;
  }
  /// Seconds to store and later retrieve `bytes` through the DFS (the
  /// `f * bytes` term of Cost_result, Eq. 3).
  double DfsRoundTripSeconds(uint64_t bytes) const {
    return dfs_cost_per_byte * static_cast<double>(bytes);
  }
  /// Seconds to store `bytes` (replicated write) without the later read.
  double DfsStoreSeconds(uint64_t bytes) const {
    return dfs_store_cost_per_byte * static_cast<double>(bytes);
  }
  /// Seconds for a batch of `distinct_pages` page reads served
  /// `store_io_parallelism` at a time: full waves are overlapped, so a
  /// deep batch pays ~pages/parallelism page latencies while a depth-1
  /// "batch" pays one full latency per lookup.
  double PageBatchSeconds(uint64_t distinct_pages) const {
    if (distinct_pages == 0) return 0.0;
    const uint64_t par =
        store_io_parallelism > 0 ? static_cast<uint64_t>(store_io_parallelism)
                                 : 1;
    const uint64_t waves = (distinct_pages + par - 1) / par;
    return static_cast<double>(waves) * page_read_sec;
  }
};

/// Validates a configuration (positive node/slot counts and rates).
/// Returns false and leaves `*why` with a reason when invalid.
bool ValidateClusterConfig(const ClusterConfig& config, const char** why);

/// Immutable per-run view of which hosts are down or degraded, resolved
/// from a `ClusterConfig` (explicit `host_downtimes` plus the
/// deterministically seeded `random_down_hosts` pick). Down intervals are
/// evaluated against the asking task's local clock — the simulator has no
/// global clock while a task runs (scheduling is post-hoc), so an outage at
/// `[from, from+for)` means "down when a task has been running that long";
/// whole-run outages (the default `for_sec`) are clock-independent.
class HostAvailability {
 public:
  /// An availability view with no faults (every host up, factor 1).
  HostAvailability() = default;
  explicit HostAvailability(const ClusterConfig& config);

  /// True when any outage or degradation is configured (fast path gate).
  bool any_faults() const { return any_faults_; }

  /// Is `node` down at task-local time `at_sec`?
  bool IsDown(int node, double at_sec) const;
  /// Is `node` down from time 0 to the end of the run? Placement decisions
  /// (index locality) avoid such hosts entirely.
  bool IsDownWholeRun(int node) const;
  /// Earliest time >= `at_sec` at which `node` is up again (at_sec itself
  /// when up; +inf when down for the rest of the run).
  double UpAgainAt(int node, double at_sec) const;
  /// Service-time multiplier of `node` (1.0 when healthy).
  double DegradeFactor(int node) const;

  int num_nodes() const { return static_cast<int>(intervals_.size()); }

 private:
  struct Interval {
    double from = 0.0;
    double to = 0.0;  // Exclusive; may be +inf.
  };
  // intervals_[node] = outages of that node, merged and sorted by `from`.
  std::vector<std::vector<Interval>> intervals_;
  std::vector<double> degrade_;  // Per-node service factor.
  bool any_faults_ = false;
};

/// Deterministic service-level fault model layered over `HostAvailability`
/// (DESIGN.md §10): heavy-tail latency spikes, transient (flaky) lookup
/// errors, and payload corruption. Every draw is a pure function of
/// (fault_seed, host, key, attempt) — independent of thread schedule, RNG
/// state, and clocks — so any execution order sees identical injections and
/// threads=1 stays bit-identical to threads=N. Const and stateless after
/// construction: safe to share across concurrently executing tasks.
class FaultModel {
 public:
  FaultModel() = default;
  /// Borrows `config` and `avail`; both must outlive this object.
  FaultModel(const ClusterConfig* config, const HostAvailability* avail)
      : config_(config), avail_(avail) {}

  const ClusterConfig* config() const { return config_; }
  const HostAvailability* availability() const { return avail_; }

  /// Pseudo-host for accessors without a partition scheme (external cloud
  /// services, paper Example 2.1): no machine of ours to take down, but
  /// their tail latency / flakiness / corruption is exactly what the
  /// service-level fault model covers.
  static constexpr int kServiceHost = -2;

  /// Any latency/flaky/corruption injection configured?
  bool service_faults() const {
    return config_ != nullptr &&
           (latency_faults() || flaky_faults() || corruption_faults());
  }
  bool latency_faults() const {
    return config_ != nullptr && config_->lookup_latency_spike_rate > 0.0;
  }
  bool flaky_faults() const {
    return config_ != nullptr && config_->lookup_flaky_rate > 0.0;
  }
  bool corruption_faults() const {
    return config_ != nullptr && (config_->lookup_corrupt_rate > 0.0 ||
                                  config_->artifact_corrupt_rate > 0.0);
  }

  /// Service-time multiplier of one lookup attempt (1.0 = no spike; spikes
  /// draw an exponential tail of scale `lookup_latency_spike_factor`).
  double LatencySpikeFactor(int host, std::string_view key,
                            int attempt) const;
  /// Transient error on this attempt?
  bool FlakyError(int host, std::string_view key, int attempt) const;
  /// Corrupted payload on this fetch of the lookup response?
  bool CorruptLookup(int host, std::string_view key, int fetch) const;
  /// Corrupted chunk `chunk` on this fetch of a materialized artifact?
  bool CorruptArtifactChunk(uint64_t fingerprint, int chunk, int fetch) const;

  /// The q-quantile of the per-attempt service-stretch distribution in
  /// closed form (1.0 below the spike mass, else the spike tail's
  /// conditional quantile). The hedge delay derives from it.
  double StretchQuantile(double q) const;

 private:
  /// Seeded uniform in [0, 1) for draw stream `salt` at (host, key, n).
  double Uniform(uint64_t salt, int host, std::string_view key, int n) const;

  const ClusterConfig* config_ = nullptr;
  const HostAvailability* avail_ = nullptr;
};

}  // namespace efind

#endif  // EFIND_CLUSTER_CLUSTER_H_

// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// The cross-job artifact store (DESIGN.md §9): a capacity-bounded,
// DFS-resident cache of re-partitioned inputs keyed by plan fingerprint
// (reuse/fingerprint.h). ReStore-style lifecycle:
//
//  - Publish: a job that just paid a re-partitioning shuffle offers the
//    grouped splits. If they fit — possibly after cost-benefit eviction —
//    the store keeps them; otherwise the publish is rejected and nothing
//    else changes.
//  - Resolve: at plan-expansion time a job asks for an artifact by
//    fingerprint. A hit returns the stored splits (the caller copies them,
//    sharing their batches; stored data is immutable) unless every DFS replica home of the
//    artifact is down for the whole run, in which case the artifact is
//    unreachable this run and the job deterministically rebuilds.
//  - Eviction: benefit density = saved_seconds * (1 + reuse_count) / bytes
//    (ReStore's "saved work x observed reuse frequency", per byte). A
//    publish may only evict entries whose density is <= its own; ties
//    evict the oldest insert first. Deterministic by construction.
//  - Invalidation: dataset / index versions are folded into the
//    fingerprint itself, so a version bump makes stale artifacts
//    unreachable by construction; they age out under eviction pressure.
//    `Invalidate` exists for explicit drops (tests, admin).
//
// Threading contract: like the optimizer and the trace recorder, the store
// is orchestration-thread-only — all calls happen between phases / at job
// boundaries, never inside tasks. Resolved splits are immutable and may be
// read concurrently (tests/reuse_tsan_smoke.cc races exactly that).

#ifndef EFIND_REUSE_MATERIALIZED_STORE_H_
#define EFIND_REUSE_MATERIALIZED_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "common/wal.h"
#include "mapreduce/record.h"
#include "reuse/fingerprint.h"

namespace efind {
namespace reuse {

/// Copy of a split vector. Batch-form splits (a shuffle job's output) share
/// their immutable batch, so the copy costs O(splits); record-form splits
/// copy their records and share the attachments, which are immutable by
/// type. Either way the copy is safe to consume while the source lives.
std::vector<InputSplit> CopySplits(const std::vector<InputSplit>& splits);

/// End-to-end content checksum of an artifact's splits (every record's key
/// and value length-framed, plus its virtual byte count). Computed at
/// publish, carried in the journal, and re-verified at resolve — a
/// mismatch makes the artifact absent (deterministic rebuild), never data.
uint64_t ChecksumSplits(const std::vector<InputSplit>& splits);

/// Descriptive snapshot of one stored artifact (journal / test surface).
struct ArtifactMeta {
  uint64_t fingerprint = 0;
  std::string label;       ///< "job:operator" provenance.
  std::string owner;       ///< Tenant that published it; empty = untenanted.
  uint64_t bytes = 0;      ///< Logical artifact size (record size model).
  double saved_seconds = 0.0;  ///< Shuffle cost a reuse hit avoids (Eq. 3).
  ArtifactLayout layout = ArtifactLayout::kRepartition;
  int partition_count = 0;
  uint64_t reuse_count = 0;    ///< Successful resolves so far.
  uint64_t insert_seq = 0;     ///< Monotonic publish order (tie-breaker).
  uint64_t checksum = 0;       ///< `ChecksumSplits` digest of the content.
};

class MaterializedStore {
 public:
  /// `capacity_bytes` bounds the summed logical artifact size; `num_nodes`
  /// and `replication` shape the simulated DFS replica placement used by
  /// the availability check in `Resolve`.
  explicit MaterializedStore(uint64_t capacity_bytes, int num_nodes = 12,
                             int replication = 3);

  struct PublishResult {
    bool stored = false;
    int evicted = 0;
    uint64_t evicted_bytes = 0;
  };

  /// Offers an artifact. Publishing an already-present fingerprint only
  /// refreshes `saved_seconds` (the data is identical by construction).
  /// `owner` names the publishing tenant, which a later cross-tenant hit
  /// reports (DESIGN.md §14); empty keeps the artifact untenanted.
  /// Fingerprints are tenant-agnostic on purpose — the same logical
  /// artifact is one entry however many tenants produce or consume it,
  /// which is what makes cross-tenant reuse free.
  PublishResult Publish(uint64_t fingerprint, std::vector<InputSplit> splits,
                        double saved_seconds, ArtifactLayout layout,
                        int partition_count, std::string label,
                        const std::string& owner = {});

  /// Integrity accounting of one `Resolve` (DESIGN.md §10): injected
  /// corruption detected on artifact chunks and the re-fetch traffic it
  /// cost. Data is never affected — a detected corruption re-reads the
  /// chunk from another DFS replica, so adoption stays byte-identical.
  struct ResolveOutcome {
    int corrupt_chunks = 0;        ///< Detected-and-refetched corruptions.
    uint64_t refetch_bytes = 0;    ///< Extra bytes moved by re-fetches.
    bool checksum_failed = false;  ///< End-to-end verify failed → miss.
    std::string owner;  ///< On a hit: the tenant that published the artifact.
    /// On a hit: `owner` and the resolving tenant are both non-empty and
    /// differ (a cross-tenant hit).
    bool cross_tenant = false;
  };

  /// The stored splits for `fingerprint`, or null on a miss. A present
  /// artifact still misses when every replica home is down for the whole
  /// run (`avail` may be null = all hosts up), or when its end-to-end
  /// checksum no longer matches (never served corrupt — the caller
  /// rebuilds). `faults` (may be null) injects deterministic per-chunk
  /// corruption whose detection and re-fetch cost land in `outcome`.
  /// A hit bumps `reuse_count`.
  /// `tenant` names the resolving tenant; a hit on an artifact owned by a
  /// *different* (non-empty) tenant sets `outcome->cross_tenant` — same
  /// fingerprint ⇒ hit regardless of tenant, the outcome only records who
  /// benefited from whom.
  const std::vector<InputSplit>* Resolve(uint64_t fingerprint,
                                         const HostAvailability* avail,
                                         const FaultModel* faults = nullptr,
                                         ResolveOutcome* outcome = nullptr,
                                         const std::string& tenant = {});

  /// Live-entry test without touching hit/miss accounting.
  bool Contains(uint64_t fingerprint) const;

  /// Would `Resolve` hit right now? Same availability rule, but read-only:
  /// no counters move, no reuse_count bump. The optimizer's planning-time
  /// probe (planning must not distort the observed hit/miss stream).
  bool Reachable(uint64_t fingerprint, const HostAvailability* avail) const;

  /// Drops an artifact if present.
  void Invalidate(uint64_t fingerprint);

  /// The simulated DFS nodes holding `fingerprint`'s replicas (derived
  /// deterministically from the fingerprint; stable across runs).
  std::vector<int> ReplicaHomes(uint64_t fingerprint) const;

  struct ReuseStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t publishes = 0;   ///< Accepted publishes.
    uint64_t rejects = 0;     ///< Publishes refused (capacity / density).
    uint64_t evictions = 0;
    uint64_t bytes_used = 0;
    uint64_t entries = 0;
    /// Resolves refused because the end-to-end checksum did not match.
    uint64_t integrity_failures = 0;
    /// Injected chunk corruptions detected (and re-fetched) at resolve.
    uint64_t corrupt_refetches = 0;
  };
  const ReuseStats& stats() const { return stats_; }

  /// Metadata of every live artifact, in insert order.
  std::vector<ArtifactMeta> Entries() const;

  /// Attaches a write-ahead journal at `path` (crash site "reuse.wal").
  /// Once attached, every accepted publish, eviction, invalidation, and
  /// resolve hit is appended — and fdatasync'd — *before* the in-memory
  /// mutation, so the ledger of any crash-interrupted run is replayable.
  Status AttachJournal(const std::string& path);
  bool journaling() const { return journal_.is_open(); }

  /// Ledger recovered from a journal replay. Metadata only; artifact data
  /// is re-installed via `RestoreEntry`.
  struct JournalRecovery {
    bool found = false;      ///< The journal file existed.
    uint64_t records = 0;    ///< Intact frames replayed.
    bool torn_tail = false;  ///< Replay stopped at a torn frame.
    uint64_t next_seq = 0;   ///< First unused insert sequence number.
    std::vector<ArtifactMeta> metas;  ///< Live entries, insert order.
  };
  static JournalRecovery RecoverJournal(const std::string& path);

  /// Reinstalls one artifact exactly as recovered — insert_seq and
  /// reuse_count included — after verifying `splits` against the recorded
  /// content checksum. Returns false (store untouched) on a checksum
  /// mismatch, a live duplicate, or capacity overflow. Counters other than
  /// entries/bytes_used do not move: restoring is not publishing.
  bool RestoreEntry(const ArtifactMeta& meta, std::vector<InputSplit> splits);

  uint64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    ArtifactMeta meta;
    std::vector<InputSplit> splits;
  };

  double Density(const Entry& e) const;

  uint64_t capacity_bytes_;
  int num_nodes_;
  int replication_;
  uint64_t next_seq_ = 0;
  durable::WriteAheadJournal journal_;
  // Ordered map: iteration (eviction scans, Entries) is
  // deterministic without extra bookkeeping.
  std::map<uint64_t, Entry> entries_;
  ReuseStats stats_;
};

}  // namespace reuse
}  // namespace efind

#endif  // EFIND_REUSE_MATERIALIZED_STORE_H_

#include "reuse/materialized_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/checksum.h"
#include "common/hash.h"
#include "mapreduce/record_batch.h"

namespace efind {
namespace reuse {

namespace {

std::string FpHex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return std::string(buf);
}

/// One journal record per ledger mutation, written *before* the mutation.
/// Text framing (the WAL layer adds the length + checksum frame): label
/// last so it may contain spaces; empty owner is "-".
std::string PublishRecord(const ArtifactMeta& m) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "pub %016" PRIx64 " %" PRIu64 " %d %d %" PRIu64 " %" PRIu64
                " %016" PRIx64 " %.17g %s %s",
                m.fingerprint, m.bytes, static_cast<int>(m.layout),
                m.partition_count, m.insert_seq, m.reuse_count, m.checksum,
                m.saved_seconds, m.owner.empty() ? "-" : m.owner.c_str(),
                m.label.c_str());
  return std::string(buf);
}

bool ParsePublishRecord(std::string_view record, ArtifactMeta* m) {
  char fp_hex[17] = {0};
  char ck_hex[17] = {0};
  char owner[64] = {0};
  char label[256] = {0};
  unsigned long long bytes = 0, seq = 0, reuse = 0;
  int layout = 0, partitions = 0;
  double saved = 0.0;
  const std::string line(record);
  const int matched = std::sscanf(
      line.c_str(),
      "pub %16[0-9a-fA-F] %llu %d %d %llu %llu %16[0-9a-fA-F] %lg %63s"
      " %255[^\n]",
      fp_hex, &bytes, &layout, &partitions, &seq, &reuse, ck_hex, &saved,
      owner, label);
  if (matched < 9) return false;
  m->fingerprint = std::strtoull(fp_hex, nullptr, 16);
  m->bytes = bytes;
  m->layout = layout == static_cast<int>(ArtifactLayout::kIndexLocality)
                  ? ArtifactLayout::kIndexLocality
                  : ArtifactLayout::kRepartition;
  m->partition_count = partitions;
  m->insert_seq = seq;
  m->reuse_count = reuse;
  m->checksum = std::strtoull(ck_hex, nullptr, 16);
  m->saved_seconds = saved;
  m->owner = std::strcmp(owner, "-") == 0 ? "" : owner;
  m->label = matched >= 10 ? label : "";
  return true;
}

/// Parses `fp_hex` out of a one-fingerprint record ("evict|inval|hit <fp>").
bool ParseFpRecord(std::string_view record, const char* verb, uint64_t* fp) {
  const size_t verb_len = std::strlen(verb);
  if (record.size() < verb_len + 2 ||
      record.compare(0, verb_len, verb) != 0 || record[verb_len] != ' ') {
    return false;
  }
  *fp = std::strtoull(std::string(record.substr(verb_len + 1)).c_str(),
                      nullptr, 16);
  return true;
}

}  // namespace

std::vector<InputSplit> CopySplits(const std::vector<InputSplit>& splits) {
  return splits;
}

uint64_t ChecksumSplits(const std::vector<InputSplit>& splits) {
  Checksum64 c;
  for (const InputSplit& s : splits) {
    c.UpdateU64(static_cast<uint64_t>(s.num_records()));
    if (s.batch) {
      s.batch->UpdateChecksum(&c);
      continue;
    }
    for (const Record& r : s.records) {
      // Canonical record framing shared with the batch content checksum
      // (record_batch.h), so both forms of a split digest identically.
      ChecksumRecord(&c, r.key, r.value, r.extra_bytes);
    }
  }
  return c.Digest();
}

MaterializedStore::MaterializedStore(uint64_t capacity_bytes, int num_nodes,
                                     int replication)
    : capacity_bytes_(capacity_bytes),
      num_nodes_(num_nodes > 0 ? num_nodes : 1),
      replication_(replication > 0 ? replication : 1) {
  if (replication_ > num_nodes_) replication_ = num_nodes_;
}

double MaterializedStore::Density(const Entry& e) const {
  if (e.meta.bytes == 0) return 0.0;
  return e.meta.saved_seconds *
         static_cast<double>(1 + e.meta.reuse_count) /
         static_cast<double>(e.meta.bytes);
}

MaterializedStore::PublishResult MaterializedStore::Publish(
    uint64_t fingerprint, std::vector<InputSplit> splits, double saved_seconds,
    ArtifactLayout layout, int partition_count, std::string label,
    const std::string& owner) {
  PublishResult result;
  auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    // Same fingerprint = same content by construction; just refresh the
    // benefit estimate (statistics may have sharpened since last time).
    // Write-ahead: journal the refreshed meta before applying it.
    if (journal_.is_open()) {
      ArtifactMeta refreshed = it->second.meta;
      refreshed.saved_seconds = saved_seconds;
      if (!journal_.Append(PublishRecord(refreshed)).ok()) {
        ++stats_.rejects;
        return result;  // Unjournalable mutations are refused.
      }
    }
    it->second.meta.saved_seconds = saved_seconds;
    result.stored = true;
    return result;
  }

  const uint64_t bytes = TotalSizeBytes(splits);
  if (bytes > capacity_bytes_) {
    ++stats_.rejects;
    return result;
  }
  const double candidate_density =
      bytes == 0 ? 0.0 : saved_seconds / static_cast<double>(bytes);

  // Cost-benefit eviction: only entries no denser than the candidate may
  // make room. Among those, lowest density goes first, oldest insert on
  // ties — a total order, so the victim set is deterministic. Selection is
  // two-phase: if even evicting every eligible entry cannot make room, the
  // publish is rejected and the store is left untouched.
  std::vector<uint64_t> victims;
  uint64_t freed = 0;
  while (stats_.bytes_used - freed + bytes > capacity_bytes_) {
    const Entry* victim = nullptr;
    uint64_t victim_fp = 0;
    for (const auto& [fp, entry] : entries_) {
      bool chosen = false;
      for (uint64_t v : victims) chosen = chosen || v == fp;
      if (chosen || Density(entry) > candidate_density) continue;
      if (victim == nullptr || Density(entry) < Density(*victim) ||
          (Density(entry) == Density(*victim) &&
           entry.meta.insert_seq < victim->meta.insert_seq)) {
        victim = &entry;
        victim_fp = fp;
      }
    }
    if (victim == nullptr) {
      ++stats_.rejects;
      return result;  // Everything resident earns its bytes better.
    }
    victims.push_back(victim_fp);
    freed += victim->meta.bytes;
  }

  // The full mutation — evictions plus the insert — is journaled before a
  // single in-memory byte moves. A crash mid-append replays a prefix:
  // evictions without the insert, which is exactly the consistent ledger
  // an uninterrupted store passes through between the two phases.
  if (journal_.is_open()) {
    Entry probe;
    probe.meta.fingerprint = fingerprint;
    probe.meta.label = label;
    probe.meta.owner = owner;
    probe.meta.bytes = bytes;
    probe.meta.saved_seconds = saved_seconds;
    probe.meta.layout = layout;
    probe.meta.partition_count = partition_count;
    probe.meta.insert_seq = next_seq_;
    probe.meta.checksum = ChecksumSplits(splits);
    bool journaled = true;
    for (uint64_t fp : victims) {
      journaled = journaled && journal_.Append("evict " + FpHex(fp)).ok();
    }
    journaled = journaled && journal_.Append(PublishRecord(probe.meta)).ok();
    if (!journaled) {
      ++stats_.rejects;
      return result;  // Unjournalable mutations are refused.
    }
  }

  for (uint64_t fp : victims) {
    auto vit = entries_.find(fp);
    result.evicted_bytes += vit->second.meta.bytes;
    ++result.evicted;
    ++stats_.evictions;
    stats_.bytes_used -= vit->second.meta.bytes;
    entries_.erase(vit);
  }

  Entry entry;
  entry.meta.fingerprint = fingerprint;
  entry.meta.label = std::move(label);
  entry.meta.owner = owner;
  entry.meta.bytes = bytes;
  entry.meta.saved_seconds = saved_seconds;
  entry.meta.layout = layout;
  entry.meta.partition_count = partition_count;
  entry.meta.insert_seq = next_seq_++;
  entry.meta.checksum = ChecksumSplits(splits);
  entry.splits = std::move(splits);
  stats_.bytes_used += bytes;
  entries_.emplace(fingerprint, std::move(entry));
  ++stats_.publishes;
  stats_.entries = entries_.size();
  result.stored = true;
  return result;
}

const std::vector<InputSplit>* MaterializedStore::Resolve(
    uint64_t fingerprint, const HostAvailability* avail,
    const FaultModel* faults, ResolveOutcome* outcome,
    const std::string& tenant) {
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (avail != nullptr && avail->any_faults()) {
    bool any_home_up = false;
    for (int node : ReplicaHomes(fingerprint)) {
      if (!avail->IsDownWholeRun(node)) {
        any_home_up = true;
        break;
      }
    }
    if (!any_home_up) {
      // Every DFS replica is gone for this run: the artifact exists but is
      // unreachable, so the caller rebuilds. The entry stays — the hosts
      // may be back next run.
      ++stats_.misses;
      return nullptr;
    }
  }
  // End-to-end verification against the publish-time digest: a mismatch
  // means the resident content is no longer what was published (torn write,
  // bit rot) — the artifact is treated as absent and the caller rebuilds.
  // Detected and charged, never surfaced as data.
  if (it->second.meta.checksum != ChecksumSplits(it->second.splits)) {
    ++stats_.integrity_failures;
    ++stats_.misses;
    if (outcome != nullptr) outcome->checksum_failed = true;
    return nullptr;
  }
  // Injected per-chunk (per-split) corruption: each detection re-reads the
  // chunk from another DFS replica (bounded fast re-fetches, then one
  // verified slow read), and the re-moved bytes are charged by the caller.
  if (faults != nullptr && faults->config() != nullptr &&
      faults->config()->artifact_corrupt_rate > 0.0) {
    const int max_refetches = faults->config()->integrity_max_refetches;
    for (size_t i = 0; i < it->second.splits.size(); ++i) {
      const uint64_t split_bytes = it->second.splits[i].size_bytes();
      const int chunk = static_cast<int>(i);
      int fetch = 0;
      while (fetch < max_refetches &&
             faults->CorruptArtifactChunk(fingerprint, chunk, fetch)) {
        ++stats_.corrupt_refetches;
        if (outcome != nullptr) {
          ++outcome->corrupt_chunks;
          outcome->refetch_bytes += split_bytes;
        }
        ++fetch;
      }
      if (fetch == max_refetches &&
          faults->CorruptArtifactChunk(fingerprint, chunk, fetch)) {
        // Still corrupt at the re-fetch bound: one DFS-verified slow read
        // settles the chunk (3x replication guarantees a clean copy).
        ++stats_.corrupt_refetches;
        if (outcome != nullptr) {
          ++outcome->corrupt_chunks;
          outcome->refetch_bytes += split_bytes;
        }
      }
    }
  }
  // Reuse counts feed eviction density, so a hit is a ledger mutation too.
  // Best-effort when the append fails: serving the hit with a slightly
  // stale journal loses one density increment, never data.
  if (journal_.is_open()) {
    journal_.Append("hit " + FpHex(fingerprint));
  }
  ++stats_.hits;
  ++it->second.meta.reuse_count;
  if (outcome != nullptr) {
    const std::string& owner = it->second.meta.owner;
    outcome->owner = owner;
    outcome->cross_tenant =
        !tenant.empty() && !owner.empty() && owner != tenant;
  }
  return &it->second.splits;
}

bool MaterializedStore::Contains(uint64_t fingerprint) const {
  return entries_.find(fingerprint) != entries_.end();
}

bool MaterializedStore::Reachable(uint64_t fingerprint,
                                  const HostAvailability* avail) const {
  if (entries_.find(fingerprint) == entries_.end()) return false;
  if (avail == nullptr || !avail->any_faults()) return true;
  for (int node : ReplicaHomes(fingerprint)) {
    if (!avail->IsDownWholeRun(node)) return true;
  }
  return false;
}

void MaterializedStore::Invalidate(uint64_t fingerprint) {
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return;
  if (journal_.is_open() &&
      !journal_.Append("inval " + FpHex(fingerprint)).ok()) {
    return;  // Unjournalable mutations are refused.
  }
  stats_.bytes_used -= it->second.meta.bytes;
  entries_.erase(it);
  stats_.entries = entries_.size();
}

std::vector<int> MaterializedStore::ReplicaHomes(uint64_t fingerprint) const {
  std::vector<int> homes;
  const int want = replication_ < num_nodes_ ? replication_ : num_nodes_;
  for (uint64_t r = 0; static_cast<int>(homes.size()) < want &&
                       r < static_cast<uint64_t>(num_nodes_) + 3; ++r) {
    const int node = static_cast<int>(Mix64(fingerprint + r) %
                                      static_cast<uint64_t>(num_nodes_));
    bool seen = false;
    for (int h : homes) seen = seen || h == node;
    if (!seen) homes.push_back(node);
  }
  return homes;
}

std::vector<ArtifactMeta> MaterializedStore::Entries() const {
  std::vector<ArtifactMeta> out;
  out.reserve(entries_.size());
  for (const auto& [fp, entry] : entries_) out.push_back(entry.meta);
  // Insert (publish) order, not the map's fingerprint order.
  for (size_t i = 1; i < out.size(); ++i) {
    ArtifactMeta m = out[i];
    size_t j = i;
    while (j > 0 && out[j - 1].insert_seq > m.insert_seq) {
      out[j] = out[j - 1];
      --j;
    }
    out[j] = m;
  }
  return out;
}

Status MaterializedStore::AttachJournal(const std::string& path) {
  return journal_.Open(path, "reuse.wal");
}

MaterializedStore::JournalRecovery MaterializedStore::RecoverJournal(
    const std::string& path) {
  JournalRecovery recovery;
  std::map<uint64_t, ArtifactMeta> live;
  const durable::WriteAheadJournal::ReplayResult replay =
      durable::WriteAheadJournal::Replay(
          path, [&](std::string_view record) {
            ArtifactMeta m;
            uint64_t fp = 0;
            if (ParsePublishRecord(record, &m)) {
              live[m.fingerprint] = m;  // Insert or refresh.
              if (m.insert_seq >= recovery.next_seq) {
                recovery.next_seq = m.insert_seq + 1;
              }
            } else if (ParseFpRecord(record, "evict", &fp) ||
                       ParseFpRecord(record, "inval", &fp)) {
              live.erase(fp);
            } else if (ParseFpRecord(record, "hit", &fp)) {
              auto it = live.find(fp);
              if (it != live.end()) ++it->second.reuse_count;
            }
          });
  recovery.found = replay.found;
  recovery.records = replay.records;
  recovery.torn_tail = replay.torn_tail;
  recovery.metas.reserve(live.size());
  for (auto& [fp, meta] : live) recovery.metas.push_back(std::move(meta));
  std::sort(recovery.metas.begin(), recovery.metas.end(),
            [](const ArtifactMeta& a, const ArtifactMeta& b) {
              return a.insert_seq < b.insert_seq;
            });
  return recovery;
}

bool MaterializedStore::RestoreEntry(const ArtifactMeta& meta,
                                     std::vector<InputSplit> splits) {
  if (entries_.find(meta.fingerprint) != entries_.end()) return false;
  if (ChecksumSplits(splits) != meta.checksum) return false;
  const uint64_t bytes = TotalSizeBytes(splits);
  if (bytes != meta.bytes) return false;
  if (stats_.bytes_used + bytes > capacity_bytes_) return false;
  Entry entry;
  entry.meta = meta;
  entry.splits = std::move(splits);
  stats_.bytes_used += bytes;
  entries_.emplace(meta.fingerprint, std::move(entry));
  stats_.entries = entries_.size();
  if (meta.insert_seq >= next_seq_) next_seq_ = meta.insert_seq + 1;
  return true;
}

}  // namespace reuse
}  // namespace efind

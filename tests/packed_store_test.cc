// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Packed object store build/lookup contract (DESIGN.md §13): every staged
// key is retrievable with its values in insertion order, absent keys are
// NotFound with honest page accounting, objects larger than a block span
// blocks and still resolve, a Build/Open round trip reproduces the exact
// store, rebuilding bumps the persisted version, and the batched lookup
// queue's flush outcome matches serial Gets while coalescing same-page
// reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/durable.h"
#include "store/lookup_queue.h"
#include "store/packed_store.h"

namespace efind {
namespace store {
namespace {

PackedStoreOptions SmallOptions(const std::string& dir) {
  PackedStoreOptions o;
  o.dir = dir;
  o.page_bytes = 256;  // Small pages force multi-block partitions.
  o.num_partitions = 4;
  o.num_nodes = 3;
  return o;
}

std::string TempDir(const char* leaf) {
  return ::testing::TempDir() + "efind_packed_store_" + leaf;
}

TEST(PackedStoreTest, BuildLookupAllKeys) {
  PackedStoreBuilder builder(SmallOptions(TempDir("all")));
  std::map<std::string, std::vector<IndexValue>> truth;
  for (int k = 0; k < 500; ++k) {
    const std::string key = "key" + std::to_string(k);
    IndexValue v("payload_" + std::to_string(k), k % 7);
    builder.Add(key, v);
    truth[key].push_back(v);
    if (k % 5 == 0) {  // Repeat keys append, in insertion order.
      IndexValue v2("second_" + std::to_string(k), 0);
      builder.Add(key, v2);
      truth[key].push_back(v2);
    }
  }
  std::string error;
  auto store = builder.Build(&error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->num_objects(), truth.size());
  EXPECT_GT(store->num_blocks(), 0u);

  for (const auto& [key, values] : truth) {
    std::vector<IndexValue> out;
    PackedObjectStore::LookupInfo info;
    ASSERT_TRUE(store->GetPaged(key, &out, &info).ok()) << key;
    EXPECT_EQ(out, values) << key;
    EXPECT_GE(info.pages, 1u) << key;
    EXPECT_GE(info.partition, 0) << key;
  }
  std::vector<IndexValue> out;
  PackedObjectStore::LookupInfo info;
  const Status miss = store->GetPaged("absent_key", &out, &info);
  EXPECT_TRUE(miss.IsNotFound());
  EXPECT_TRUE(out.empty());
}

TEST(PackedStoreTest, BlockStraddlingObjects) {
  PackedStoreBuilder builder(SmallOptions(TempDir("straddle")));
  // One object several times the 256-byte page, surrounded by small ones.
  const std::string giant(1500, 'G');
  builder.Add("giant", IndexValue(giant, 10));
  for (int k = 0; k < 100; ++k) {
    builder.Add("small" + std::to_string(k), IndexValue("v", 1));
  }
  std::string error;
  auto store = builder.Build(&error);
  ASSERT_NE(store, nullptr) << error;

  std::vector<IndexValue> out;
  PackedObjectStore::LookupInfo info;
  ASSERT_TRUE(store->GetPaged("giant", &out, &info).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].data, giant);
  EXPECT_EQ(out[0].extra_bytes, 10u);
  // A 1500-byte object over 254-byte usable pages occupies > 5 pages.
  EXPECT_GT(info.pages, 5u);
  for (int k = 0; k < 100; ++k) {
    out.clear();
    ASSERT_TRUE(store->Get("small" + std::to_string(k), &out).ok()) << k;
    EXPECT_EQ(out, std::vector<IndexValue>{IndexValue("v", 1)});
  }
}

TEST(PackedStoreTest, BuildReloadRoundTrip) {
  const std::string dir = TempDir("reload");
  PackedStoreBuilder builder(SmallOptions(dir));
  for (int k = 0; k < 300; ++k) {
    builder.Add("k" + std::to_string(k),
                IndexValue("v" + std::to_string(k), k));
  }
  std::string error;
  auto built = builder.Build(&error);
  ASSERT_NE(built, nullptr) << error;

  auto reloaded = PackedObjectStore::Open(dir, &error);
  ASSERT_NE(reloaded, nullptr) << error;
  EXPECT_EQ(reloaded->num_objects(), built->num_objects());
  EXPECT_EQ(reloaded->num_blocks(), built->num_blocks());
  EXPECT_EQ(reloaded->version(), built->version());
  EXPECT_EQ(reloaded->page_bytes(), built->page_bytes());
  EXPECT_EQ(reloaded->index_bits(), built->index_bits());
  for (int k = 0; k < 300; ++k) {
    std::vector<IndexValue> a, b;
    PackedObjectStore::LookupInfo ia, ib;
    const std::string key = "k" + std::to_string(k);
    ASSERT_TRUE(built->GetPaged(key, &a, &ia).ok()) << key;
    ASSERT_TRUE(reloaded->GetPaged(key, &b, &ib).ok()) << key;
    EXPECT_EQ(a, b) << key;
    EXPECT_EQ(ia.pages, ib.pages) << key;
    EXPECT_EQ(ia.partition, ib.partition) << key;
  }
}

TEST(PackedStoreTest, RebuildBumpsVersion) {
  const std::string dir = TempDir("version");
  std::string error;
  uint64_t first = 0;
  {
    PackedStoreBuilder builder(SmallOptions(dir));
    builder.Add("k", IndexValue("v1", 0));
    auto store = builder.Build(&error);
    ASSERT_NE(store, nullptr) << error;
    first = store->version();
  }
  PackedStoreBuilder builder(SmallOptions(dir));
  builder.Add("k", IndexValue("v2", 0));
  auto rebuilt = builder.Build(&error);
  ASSERT_NE(rebuilt, nullptr) << error;
  EXPECT_EQ(rebuilt->version(), first + 1);
}

TEST(PackedStoreTest, FillDegreeAddsBlocks) {
  auto build = [&](double fill) {
    // Distinct dir per fill degree: the two stores must coexist.
    PackedStoreOptions o =
        SmallOptions(TempDir(fill == 1.0 ? "fill_full" : "fill_half"));
    o.fill = fill;
    PackedStoreBuilder builder(o);
    for (int k = 0; k < 400; ++k) {
      builder.Add("k" + std::to_string(k), IndexValue("value", 3));
    }
    std::string error;
    auto store = builder.Build(&error);
    EXPECT_NE(store, nullptr) << error;
    return store;
  };
  auto full = build(1.0);
  auto half = build(0.5);
  ASSERT_NE(full, nullptr);
  ASSERT_NE(half, nullptr);
  EXPECT_LT(half->usable_page_bytes(), full->usable_page_bytes());
  EXPECT_GT(half->num_blocks(), full->num_blocks());
  // Same content either way.
  for (int k = 0; k < 400; ++k) {
    std::vector<IndexValue> a, b;
    ASSERT_TRUE(full->Get("k" + std::to_string(k), &a).ok());
    ASSERT_TRUE(half->Get("k" + std::to_string(k), &b).ok());
    EXPECT_EQ(a, b);
  }
}

TEST(PackedStoreTest, RejectsInvalidOptions) {
  std::string reason;
  PackedStoreOptions bad = SmallOptions(TempDir("bad"));
  bad.page_bytes = 32;  // Below the 64-byte floor.
  EXPECT_FALSE(ValidatePackedStoreOptions(bad, &reason));
  EXPECT_FALSE(reason.empty());
  PackedStoreBuilder builder(bad);
  builder.Add("k", IndexValue("v", 0));
  std::string error;
  EXPECT_EQ(builder.Build(&error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(PackedStoreTest, BatchedFlushMatchesSerialAndCoalesces) {
  PackedStoreBuilder builder(SmallOptions(TempDir("batch")));
  for (int k = 0; k < 400; ++k) {
    builder.Add("k" + std::to_string(k),
                IndexValue("v" + std::to_string(k), k % 11));
  }
  std::string error;
  auto store = builder.Build(&error);
  ASSERT_NE(store, nullptr) << error;

  BatchedLookupQueue queue(store.get());
  std::vector<std::string> keys;
  for (int k = 0; k < 64; ++k) {
    keys.push_back("k" + std::to_string(k * 5));  // 60 hits...
  }
  keys.push_back("absent1");  // ... plus misses ...
  keys.push_back("absent2");
  keys.push_back(keys[0]);    // ... and one duplicate key.
  for (const std::string& key : keys) {
    queue.Submit(key);
  }
  EXPECT_EQ(queue.pending(), keys.size());
  const FlushOutcome outcome = queue.Flush();
  EXPECT_EQ(queue.pending(), 0u);
  ASSERT_EQ(outcome.completions.size(), keys.size());

  // Completions arrive sorted by (partition, first_block, ticket) and each
  // matches the serial Get for its submitted key.
  uint64_t sum_pages = 0;
  const LookupCompletion* prev = nullptr;
  for (const LookupCompletion& c : outcome.completions) {
    ASSERT_LT(c.ticket, keys.size());
    const std::string& key = keys[c.ticket];
    std::vector<IndexValue> serial;
    PackedObjectStore::LookupInfo info;
    const Status st = store->GetPaged(key, &serial, &info);
    EXPECT_EQ(c.found, st.ok()) << key;
    EXPECT_FALSE(c.error) << key;
    EXPECT_EQ(c.values, serial) << key;
    EXPECT_EQ(c.pages, info.pages) << key;
    EXPECT_EQ(c.partition, info.partition) << key;
    sum_pages += c.pages;
    if (prev != nullptr) {
      EXPECT_TRUE(std::tie(prev->partition, prev->first_block,
                           prev->ticket) <
                  std::tie(c.partition, c.first_block, c.ticket));
    }
    prev = &c;
  }
  EXPECT_EQ(outcome.uncoalesced_pages, sum_pages);
  // 67 lookups over a handful of 256-byte pages per partition must share.
  EXPECT_LT(outcome.distinct_pages, outcome.uncoalesced_pages);
  EXPECT_GT(outcome.distinct_pages, 0u);

  // Determinism: resubmitting the same multiset reproduces the outcome.
  for (const std::string& key : keys) queue.Submit(key);
  const FlushOutcome again = queue.Flush();
  ASSERT_EQ(again.completions.size(), outcome.completions.size());
  EXPECT_EQ(again.distinct_pages, outcome.distinct_pages);
  EXPECT_EQ(again.uncoalesced_pages, outcome.uncoalesced_pages);
  for (size_t i = 0; i < again.completions.size(); ++i) {
    // Tickets are absolute submission indices, monotone across flushes.
    EXPECT_EQ(again.completions[i].ticket,
              outcome.completions[i].ticket + keys.size());
    EXPECT_EQ(again.completions[i].values, outcome.completions[i].values);
  }
}

// --- page-boundary sweep ---------------------------------------------------
//
// Every object in a sweep store has the same encoded size, coprime to the
// usable page bytes, and each partition holds at least as many objects as a
// page has usable bytes, so object headers start at every offset of a page:
// at offset 0, where a header ends exactly at the page end, and straddling
// two pages. Every key must resolve through all lookup paths.

/// Usable bytes per page, as documented on PackedStoreOptions::fill.
uint64_t SweepUsableBytes(uint64_t page_bytes, double fill) {
  const uint64_t cap = page_bytes - 2;
  const uint64_t used =
      static_cast<uint64_t>(static_cast<double>(cap) * fill);
  return std::max<uint64_t>(16, std::min(used, cap));
}

/// Serves `keys` through a queue flushed every `depth` submissions and
/// checks every completion against `truth` (absent keys: not found).
void CheckThroughQueue(
    const PackedObjectStore& store, const std::vector<std::string>& keys,
    const std::map<std::string, std::vector<IndexValue>>& truth,
    size_t depth) {
  BatchedLookupQueue queue(&store);
  std::map<uint64_t, std::string> by_ticket;  // This flush's submissions.
  auto flush = [&] {
    const FlushOutcome outcome = queue.Flush();
    ASSERT_EQ(outcome.completions.size(), by_ticket.size());
    for (const LookupCompletion& c : outcome.completions) {
      const std::string& key = by_ticket.at(c.ticket);
      std::vector<IndexValue> serial;
      PackedObjectStore::LookupInfo info;
      (void)store.GetPaged(key, &serial, &info);
      EXPECT_FALSE(c.error) << key;
      EXPECT_EQ(c.pages, info.pages) << key;
      const auto it = truth.find(key);
      if (it == truth.end()) {
        EXPECT_FALSE(c.found) << key;
        EXPECT_TRUE(c.values.empty()) << key;
      } else {
        EXPECT_TRUE(c.found) << key;
        EXPECT_EQ(c.values, it->second) << key;
      }
    }
    by_ticket.clear();
  };
  for (const std::string& key : keys) {
    by_ticket[queue.Submit(key)] = key;
    if (by_ticket.size() == depth) flush();
  }
  if (!by_ticket.empty()) flush();
}

TEST(PackedStoreTest, PageBoundarySweep) {
  constexpr int kPartitions = 2;
  constexpr uint64_t kKeyBytes = 8;  // "k" + 7 digits.
  // Encoded object: 16-byte header, key, u32 count, then one value as
  // [u32 len][bytes][u64 extra].
  constexpr uint64_t kFixedBytes = 16 + kKeyBytes + 4 + 4 + 8;
  for (const uint64_t page_bytes : {64, 100, 256, 4096}) {
    for (const double fill : {0.5, 1.0}) {
      SCOPED_TRACE("page_bytes " + std::to_string(page_bytes) + " fill " +
                   std::to_string(fill));
      const uint64_t used = SweepUsableBytes(page_bytes, fill);
      uint64_t value_bytes = 1;
      while (std::gcd(kFixedBytes + value_bytes, used) != 1) ++value_bytes;
      const int num_keys = static_cast<int>(2 * kPartitions * used + 200);

      PackedStoreOptions o = SmallOptions(
          TempDir(("sweep_" + std::to_string(page_bytes) + "_" +
                   std::to_string(static_cast<int>(fill * 10)))
                      .c_str()));
      o.page_bytes = page_bytes;
      o.fill = fill;
      o.num_partitions = kPartitions;
      PackedStoreBuilder builder(o);
      std::map<std::string, std::vector<IndexValue>> truth;
      std::vector<std::string> keys;
      for (int k = 0; k < num_keys; ++k) {
        char key[16];
        std::snprintf(key, sizeof(key), "k%07d", k);
        std::string data(value_bytes, static_cast<char>('a' + k % 26));
        data[0] = static_cast<char>(k & 0x7f);
        const IndexValue v(data, static_cast<uint64_t>(k));
        builder.Add(key, v);
        truth[key].push_back(v);
        keys.push_back(key);
      }
      std::string error;
      auto store = builder.Build(&error);
      ASSERT_NE(store, nullptr) << error;
      ASSERT_EQ(store->usable_page_bytes(), used);
      // Starts fall at i * object_bytes within each partition's stream;
      // coprime sizes cover every residue once a partition holds `used`
      // objects.
      std::vector<uint64_t> per_partition(kPartitions, 0);
      for (const std::string& key : keys) {
        ++per_partition[store->scheme().PartitionOf(key)];
      }
      for (const uint64_t n : per_partition) ASSERT_GE(n, used);

      std::vector<std::string> probes = keys;
      for (int k = 0; k < 64; ++k) {
        probes.push_back("absent" + std::to_string(k));
      }
      for (const std::string& key : probes) {
        const auto it = truth.find(key);
        std::vector<IndexValue> out;
        const Status got = store->Get(key, &out);
        std::vector<IndexValue> paged;
        PackedObjectStore::LookupInfo info;
        const Status got_paged = store->GetPaged(key, &paged, &info);
        if (it == truth.end()) {
          ASSERT_TRUE(got.IsNotFound()) << key << " " << got.ToString();
          ASSERT_TRUE(got_paged.IsNotFound()) << key;
          continue;
        }
        ASSERT_TRUE(got.ok()) << key << " " << got.ToString();
        ASSERT_TRUE(got_paged.ok()) << key << " " << got_paged.ToString();
        ASSERT_EQ(out, it->second) << key;
        ASSERT_EQ(paged, it->second) << key;
        ASSERT_GE(info.pages, 1u) << key;
      }
      for (const size_t depth : {1, 16}) {
        SCOPED_TRACE("depth " + std::to_string(depth));
        CheckThroughQueue(*store, probes, truth, depth);
      }
    }
  }
}

// --- torn-state matrix (DESIGN.md §15) -------------------------------------
//
// Every persisted piece of a store — manifest, Elias-Fano sidecars, data
// files — is covered by a checksum (the manifest and sidecars by a durable
// footer, the data files by a whole-file digest recorded in their sidecar).
// A truncated or bit-flipped file must make `Open` fail loudly, naming the
// offending path; garbage is never served.

/// Builds a small store and returns its directory; `*version` gets the
/// live generation (for deriving part file names).
std::string BuildTornFixture(const char* leaf, uint64_t* version) {
  const std::string dir = TempDir(leaf);
  PackedStoreBuilder builder(SmallOptions(dir));
  for (int k = 0; k < 200; ++k) {
    builder.Add("k" + std::to_string(k), IndexValue("v" + std::to_string(k),
                                                    k));
  }
  std::string error;
  auto store = builder.Build(&error);
  EXPECT_NE(store, nullptr) << error;
  *version = store == nullptr ? 0 : store->version();
  return dir;
}

void RewriteRaw(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

enum class Corruption { kTruncateTail, kTruncateHalf, kBitflip };

void Corrupt(const std::string& path, Corruption how) {
  std::string raw;
  ASSERT_TRUE(durable::ReadFileContents(path, &raw)) << path;
  ASSERT_GT(raw.size(), 20u) << path;
  switch (how) {
    case Corruption::kTruncateTail:
      raw.resize(raw.size() - 10);
      break;
    case Corruption::kTruncateHalf:
      raw.resize(raw.size() / 2);
      break;
    case Corruption::kBitflip:
      raw[raw.size() / 3] ^= 0x20;
      break;
  }
  RewriteRaw(path, raw);
}

/// `Open` must fail and the error must name the corrupted file.
void ExpectOpenFailsNaming(const std::string& dir, const std::string& path) {
  std::string error;
  auto reopened = PackedObjectStore::Open(dir, &error);
  EXPECT_EQ(reopened, nullptr) << "opened a corrupted store: " << path;
  EXPECT_NE(error.find(path), std::string::npos)
      << "error '" << error << "' does not name " << path;
}

TEST(PackedStoreTornTest, CorruptManifestFailsLoudly) {
  for (const Corruption how : {Corruption::kTruncateTail,
                               Corruption::kTruncateHalf,
                               Corruption::kBitflip}) {
    uint64_t version = 0;
    const std::string dir = BuildTornFixture("torn_manifest", &version);
    ASSERT_GT(version, 0u);
    const std::string manifest = dir + "/manifest.txt";
    Corrupt(manifest, how);
    ExpectOpenFailsNaming(dir, manifest);
  }
}

TEST(PackedStoreTornTest, CorruptSidecarFailsLoudly) {
  for (const Corruption how : {Corruption::kTruncateTail,
                               Corruption::kTruncateHalf,
                               Corruption::kBitflip}) {
    uint64_t version = 0;
    const std::string dir = BuildTornFixture("torn_sidecar", &version);
    ASSERT_GT(version, 0u);
    const std::string sidecar =
        dir + "/part0.g" + std::to_string(version) + ".idx";
    Corrupt(sidecar, how);
    ExpectOpenFailsNaming(dir, sidecar);
  }
}

TEST(PackedStoreTornTest, CorruptDataFileFailsLoudly) {
  // Data files carry no footer (pages must stay aligned); their integrity
  // is a whole-file digest in the sidecar, verified at Open.
  for (const Corruption how : {Corruption::kTruncateHalf,
                               Corruption::kBitflip}) {
    uint64_t version = 0;
    const std::string dir = BuildTornFixture("torn_data", &version);
    ASSERT_GT(version, 0u);
    const std::string data =
        dir + "/part0.g" + std::to_string(version) + ".dat";
    Corrupt(data, how);
    ExpectOpenFailsNaming(dir, data);
  }
}

TEST(PackedStoreTornTest, SidecarFromWrongGenerationRejected) {
  // A sidecar sealed under a different generation than the manifest names
  // must be rejected even though its own checksum verifies — the footer's
  // generation stamp is what proves the file belongs to this build wave.
  uint64_t version = 0;
  const std::string dir = BuildTornFixture("torn_gen", &version);
  ASSERT_GT(version, 0u);
  const std::string sidecar =
      dir + "/part1.g" + std::to_string(version) + ".idx";
  std::string raw;
  ASSERT_TRUE(durable::ReadFileContents(sidecar, &raw));
  uint64_t gen = 0;
  std::string_view body;
  ASSERT_TRUE(durable::CheckFooter(raw, &gen, &body).ok());
  ASSERT_EQ(gen, version);
  std::string reseal(body);
  durable::AppendFooter(&reseal, version + 7);
  RewriteRaw(sidecar, reseal);
  ExpectOpenFailsNaming(dir, sidecar);
}

TEST(PackedStoreTornTest, RebuildCollectsStaleGenerationFiles) {
  uint64_t v1 = 0;
  const std::string dir = BuildTornFixture("torn_gc", &v1);
  ASSERT_GT(v1, 0u);
  // Rebuild: the new generation's build must GC the old part files (a
  // crashed build's debris must not accumulate, and stale data must not
  // linger to be confused for live).
  PackedStoreBuilder builder(SmallOptions(dir));
  builder.Add("fresh", IndexValue("new", 1));
  std::string error;
  auto rebuilt = builder.Build(&error);
  ASSERT_NE(rebuilt, nullptr) << error;
  EXPECT_GT(rebuilt->version(), v1);
  std::string raw;
  EXPECT_FALSE(durable::ReadFileContents(
      dir + "/part0.g" + std::to_string(v1) + ".dat", &raw));
  EXPECT_FALSE(durable::ReadFileContents(
      dir + "/part0.g" + std::to_string(v1) + ".idx", &raw));
}

TEST(PackedStoreTornTest, TruncatedPageIsDataLossAtRead) {
  // Truncation *after* Open (a lying disk mid-run): the page read itself
  // must surface DataLoss naming the page, never return stale bytes.
  uint64_t version = 0;
  const std::string dir = BuildTornFixture("torn_page", &version);
  std::string error;
  auto store = PackedObjectStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  // Chop the mapped data file of partition 0 under the open store.
  const std::string data =
      dir + "/part0.g" + std::to_string(version) + ".dat";
  std::string raw;
  ASSERT_TRUE(durable::ReadFileContents(data, &raw));
  ASSERT_GE(store->num_partition_blocks(0), 1u);
  RewriteRaw(data, raw.substr(0, store->page_bytes() / 2));
  std::vector<char> page(store->page_bytes());
  const Status s = store->ReadPage(
      0, store->num_partition_blocks(0) - 1, page.data());
  ASSERT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_NE(s.message().find("truncated page"), std::string::npos);
}

TEST(PackedStoreTornTest, TruncatedPageFailsQueueLookupsUncached) {
  // The same truncation seen through the batched queue: every lookup on
  // the torn partition completes with `error`, and the failed page is never
  // cached — a second lookup of it in the same flush re-reads and fails
  // again, and distinct_pages counts only the pages actually read.
  uint64_t version = 0;
  const std::string dir = BuildTornFixture("torn_queue", &version);
  std::string error;
  auto store = PackedObjectStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  std::string torn_key, intact_key;
  for (int k = 0; k < 200 && (torn_key.empty() || intact_key.empty()); ++k) {
    const std::string key = "k" + std::to_string(k);
    std::string& slot =
        store->scheme().PartitionOf(key) == 0 ? torn_key : intact_key;
    if (slot.empty()) slot = key;
  }
  ASSERT_FALSE(torn_key.empty());
  ASSERT_FALSE(intact_key.empty());
  std::vector<IndexValue> intact_values;
  PackedObjectStore::LookupInfo intact_info;
  ASSERT_TRUE(store->GetPaged(intact_key, &intact_values, &intact_info).ok());

  const std::string data =
      dir + "/part0.g" + std::to_string(version) + ".dat";
  std::string raw;
  ASSERT_TRUE(durable::ReadFileContents(data, &raw));
  RewriteRaw(data, raw.substr(0, store->page_bytes() / 2));

  BatchedLookupQueue queue(store.get());
  const uint64_t first = queue.Submit(torn_key);
  const uint64_t second = queue.Submit(torn_key);
  const uint64_t intact = queue.Submit(intact_key);
  const FlushOutcome outcome = queue.Flush();
  ASSERT_EQ(outcome.completions.size(), 3u);
  for (const LookupCompletion& c : outcome.completions) {
    if (c.ticket == first || c.ticket == second) {
      EXPECT_TRUE(c.error) << c.ticket;
      EXPECT_FALSE(c.found) << c.ticket;
      EXPECT_TRUE(c.values.empty()) << c.ticket;
    } else {
      ASSERT_EQ(c.ticket, intact);
      EXPECT_FALSE(c.error);
      EXPECT_TRUE(c.found);
      EXPECT_EQ(c.values, intact_values);
    }
  }
  EXPECT_EQ(outcome.distinct_pages, intact_info.pages);
}

}  // namespace
}  // namespace store
}  // namespace efind

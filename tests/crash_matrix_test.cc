// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Deterministic crash-injection matrix (DESIGN.md §15, `ctest -L crash`).
// For every registered crash site — the packed-store build commits
// (store.data / store.sidecar / store.manifest and their @tmp / @rename /
// @done sub-sites), the reuse ledger (reuse.wal), and the
// service admissions journal (service.wal) — a child process is forked per
// (site, hit ordinal, mode) cell, armed via `durable::SetCrashConfig`, and
// killed mid-protocol: kill mode dies at the site, the torn modes commit a
// truncated / bit-flipped tail first, simulating a lying disk. The parent
// then recovers and asserts the invariants the durable layer promises:
//
//  - A crashed packed-store rebuild leaves the *prior* generation loadable
//    byte-for-byte, or the new one complete — never a hybrid; a torn
//    manifest fails loudly naming the file, never loading garbage.
//  - A crashed reuse run's journal is an exact byte prefix of the
//    uninterrupted run's journal (kill) or replays a clean intact prefix
//    (torn), and `RestoreEntry` reconstructs exactly the replayed ledger.
//  - No admitted service job is ever lost: every submitted-but-unsettled
//    arrival is in the recovered backlog, and re-running that backlog
//    produces outputs byte-identical (by checksum) to the golden run.
//
// The hit ordinal is swept from 1 until the child runs past the site
// (exit 0), so *every* occurrence of every site is crashed at least once.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/durable.h"
#include "common/wal.h"
#include "reuse/materialized_store.h"
#include "service/job_service.h"
#include "store/packed_store.h"
#include "tests/test_util.h"

namespace efind {
namespace {

using durable::CrashConfig;
using durable::CrashMode;
using durable::WriteAheadJournal;

struct Cell {
  std::string site;
  CrashMode mode = CrashMode::kKill;
};

const char* ModeName(CrashMode mode) {
  switch (mode) {
    case CrashMode::kKill:
      return "kill";
    case CrashMode::kTornTruncate:
      return "torn_truncate";
    case CrashMode::kTornBitflip:
      return "torn_bitflip";
  }
  return "?";
}

std::string CellName(const Cell& cell, int hit) {
  return cell.site + ":" + std::to_string(hit) + " (" + ModeName(cell.mode) +
         ")";
}

/// Runs `scenario` in a forked child armed at (site, hit, mode). Returns
/// the child's exit code: `durable::kCrashExitCode` when the planted crash
/// fired, 0 when the scenario ran to completion without reaching the armed
/// hit (the sweep terminator), anything else a real child-side failure.
int RunArmed(const Cell& cell, int hit,
             const std::function<void()>& scenario) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    durable::SetCrashConfig(CrashConfig{cell.site, hit, cell.mode});
    scenario();
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string TempPath(const std::string& leaf) {
  return ::testing::TempDir() + "efind_crash_matrix_" + leaf;
}

// --- packed-store build ----------------------------------------------------

store::PackedStoreOptions StoreOpts(const std::string& dir) {
  store::PackedStoreOptions o;
  o.dir = dir;
  o.page_bytes = 256;
  o.num_partitions = 2;  // Two data + two sidecar commits per build.
  o.num_nodes = 3;
  return o;
}

constexpr int kStoreKeys = 48;

/// Builds dataset `tag` ('A' or 'B'; distinct values per tag) into `dir`.
/// Returns the built store's version, or 0 on failure.
uint64_t BuildDataset(const std::string& dir, char tag) {
  store::PackedStoreBuilder builder(StoreOpts(dir));
  for (int i = 0; i < kStoreKeys; ++i) {
    builder.Add("k" + std::to_string(i),
                IndexValue(std::string(1, tag) + std::to_string(i),
                           tag == 'A' ? i : i + 1000));
  }
  std::string error;
  auto built = builder.Build(&error);
  return built == nullptr ? 0 : built->version();
}

/// True iff `store` serves exactly dataset `tag` for every key.
::testing::AssertionResult ServesDataset(const store::PackedObjectStore& s,
                                         char tag) {
  for (int i = 0; i < kStoreKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    std::vector<IndexValue> out;
    const Status st = s.Get(key, &out);
    if (!st.ok()) {
      return ::testing::AssertionFailure()
             << key << ": " << st.ToString();
    }
    const IndexValue want(std::string(1, tag) + std::to_string(i),
                          tag == 'A' ? i : i + 1000);
    if (out != std::vector<IndexValue>{want}) {
      return ::testing::AssertionFailure() << key << ": wrong value";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CrashMatrixTest, PackedStoreBuildSurvivesEveryCrashSite) {
  std::vector<Cell> cells;
  for (const char* family : {"store.data", "store.sidecar",
                             "store.manifest"}) {
    for (const char* sub : {"", "@tmp", "@rename", "@done"}) {
      cells.push_back({std::string(family) + sub, CrashMode::kKill});
    }
    cells.push_back({family, CrashMode::kTornTruncate});
    cells.push_back({family, CrashMode::kTornBitflip});
  }

  int dir_seq = 0;
  for (const Cell& cell : cells) {
    const std::string dir = TempPath("store_" + std::to_string(dir_seq++));
    bool swept_to_completion = false;
    for (int hit = 1; hit <= 16; ++hit) {
      // Fresh baseline each round: dataset A becomes the live generation
      // (self-healing — a prior round's debris is GC'd by this build).
      const uint64_t old_gen = BuildDataset(dir, 'A');
      ASSERT_GT(old_gen, 0u) << CellName(cell, hit);

      const int code =
          RunArmed(cell, hit, [&] {
            ::_exit(BuildDataset(dir, 'B') > 0 ? 0 : 9);
          });
      ASSERT_TRUE(code == 0 || code == durable::kCrashExitCode)
          << CellName(cell, hit) << " child exited " << code;

      std::string error;
      auto reopened = store::PackedObjectStore::Open(dir, &error);
      if (reopened == nullptr) {
        // A loud failure is only legitimate when the manifest itself was
        // committed torn; it must name the offending file.
        EXPECT_NE(cell.mode, CrashMode::kKill) << CellName(cell, hit);
        EXPECT_EQ(cell.site, "store.manifest") << CellName(cell, hit);
        EXPECT_NE(error.find(dir), std::string::npos)
            << CellName(cell, hit) << ": " << error;
        EXPECT_NE(error.find("torn"), std::string::npos)
            << CellName(cell, hit) << ": " << error;
      } else if (reopened->version() == old_gen) {
        // Prior generation survived the crashed rebuild, byte-for-byte.
        EXPECT_TRUE(ServesDataset(*reopened, 'A')) << CellName(cell, hit);
      } else {
        // The rebuild's manifest committed: the new store, complete.
        EXPECT_GT(reopened->version(), old_gen) << CellName(cell, hit);
        EXPECT_TRUE(ServesDataset(*reopened, 'B')) << CellName(cell, hit);
      }
      if (code == 0) {  // Ran past the last occurrence of the site.
        EXPECT_GT(hit, 1) << CellName(cell, hit)
                          << " never fired; site dead?";
        ASSERT_NE(reopened, nullptr) << CellName(cell, hit);
        EXPECT_TRUE(ServesDataset(*reopened, 'B')) << CellName(cell, hit);
        swept_to_completion = true;
        break;
      }
    }
    EXPECT_TRUE(swept_to_completion)
        << cell.site << " (" << ModeName(cell.mode)
        << "): 16 hits never exhausted the site";
  }
}

// --- reuse ledger ----------------------------------------------------------

/// Deterministic splits for a fingerprint (restorable after recovery).
std::vector<InputSplit> SplitsFor(uint64_t fp, int count) {
  std::vector<InputSplit> splits(1);
  for (int i = 0; i < count; ++i) {
    splits[0].records.push_back(Record(
        "fp" + std::to_string(fp) + "_" + std::to_string(i), "v", 100));
  }
  return splits;
}

constexpr uint64_t kFpA = 0xA1, kFpB = 0xB2, kFpC = 0xC3, kFpD = 0xD4;

int SplitCountFor(uint64_t fp) { return fp == kFpD ? 4 : 10; }

/// The scenario every reuse cell crashes somewhere inside: two publishes,
/// a hit, an eviction-forcing publish, a cross-tenant hit, an
/// invalidation, then one more publish.
void ReuseScenario(const std::string& wal) {
  reuse::MaterializedStore store(/*capacity_bytes=*/2600, /*num_nodes=*/6,
                                 /*replication=*/2);
  if (!store.AttachJournal(wal).ok()) ::_exit(7);
  auto pub = [&](uint64_t fp, double saved, const char* label,
                 const char* owner) {
    store.Publish(fp, SplitsFor(fp, SplitCountFor(fp)), saved,
                  reuse::ArtifactLayout::kRepartition, 8, label, owner);
  };
  pub(kFpA, 1.0, "job:a", "alpha");
  pub(kFpB, 2.0, "job:b", "bravo");
  store.Resolve(kFpA, nullptr);
  pub(kFpC, 5.0, "job:c", "alpha");  // Evicts under the 2600-byte cap.
  store.Resolve(kFpB, nullptr, nullptr, nullptr, "alpha");
  store.Invalidate(kFpB);
  pub(kFpD, 3.0, "job:d", "");
}

void ExpectMetasEqual(const std::vector<reuse::ArtifactMeta>& got,
                      const std::vector<reuse::ArtifactMeta>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].fingerprint, want[i].fingerprint) << what << " #" << i;
    EXPECT_EQ(got[i].label, want[i].label) << what << " #" << i;
    EXPECT_EQ(got[i].owner, want[i].owner) << what << " #" << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << what << " #" << i;
    EXPECT_EQ(got[i].saved_seconds, want[i].saved_seconds) << what << " #"
                                                           << i;
    EXPECT_EQ(got[i].layout, want[i].layout) << what << " #" << i;
    EXPECT_EQ(got[i].partition_count, want[i].partition_count)
        << what << " #" << i;
    EXPECT_EQ(got[i].reuse_count, want[i].reuse_count) << what << " #" << i;
    EXPECT_EQ(got[i].insert_seq, want[i].insert_seq) << what << " #" << i;
    EXPECT_EQ(got[i].checksum, want[i].checksum) << what << " #" << i;
  }
}

/// The ledger state after the first `n` records of `golden_wal`: the first
/// n frames are re-journaled to a scratch file and recovered from there.
std::vector<reuse::ArtifactMeta> GoldenPrefixState(
    const std::string& golden_wal, uint64_t n, const std::string& scratch) {
  ::unlink(scratch.c_str());
  WriteAheadJournal prefix;
  EXPECT_TRUE(prefix.Open(scratch, "scratch").ok());
  uint64_t i = 0;
  WriteAheadJournal::Replay(golden_wal, [&](std::string_view r) {
    if (i++ < n) prefix.Append(r).ok();
  });
  prefix.Close();
  return reuse::MaterializedStore::RecoverJournal(scratch).metas;
}

TEST(CrashMatrixTest, ReuseLedgerSurvivesEveryCrashSite) {
  // Golden uninterrupted run (this parent process is never armed).
  const std::string golden_wal = TempPath("reuse_golden.wal");
  ::unlink(golden_wal.c_str());
  ReuseScenario(golden_wal);
  std::string golden_wal_bytes;
  ASSERT_TRUE(durable::ReadFileContents(golden_wal, &golden_wal_bytes));
  const auto golden = reuse::MaterializedStore::RecoverJournal(golden_wal);
  ASSERT_FALSE(golden.torn_tail);
  ASSERT_EQ(golden.metas.size(), 2u);  // kFpC and kFpD survive.

  std::vector<Cell> cells = {
      {"reuse.wal", CrashMode::kKill},
      {"reuse.wal@synced", CrashMode::kKill},
      {"reuse.wal", CrashMode::kTornTruncate},
      {"reuse.wal", CrashMode::kTornBitflip},
  };

  int seq = 0;
  for (const Cell& cell : cells) {
    bool swept_to_completion = false;
    for (int hit = 1; hit <= 16; ++hit) {
      const std::string tag = std::to_string(seq++);
      const std::string wal = TempPath("reuse_" + tag + ".wal");
      ::unlink(wal.c_str());
      const int code = RunArmed(cell, hit, [&] { ReuseScenario(wal); });
      ASSERT_TRUE(code == 0 || code == durable::kCrashExitCode)
          << CellName(cell, hit) << " child exited " << code;

      // Journal recovery: the crashed ledger replays to a state the
      // uninterrupted run passed through.
      const auto rec = reuse::MaterializedStore::RecoverJournal(wal);
      ASSERT_TRUE(rec.found) << CellName(cell, hit);
      if (cell.mode == CrashMode::kKill) {
        // Kill crashes between syncs: the file is an exact byte prefix of
        // the golden journal, whole frames only.
        EXPECT_FALSE(rec.torn_tail) << CellName(cell, hit);
        std::string bytes;
        ASSERT_TRUE(durable::ReadFileContents(wal, &bytes));
        ASSERT_LE(bytes.size(), golden_wal_bytes.size())
            << CellName(cell, hit);
        EXPECT_EQ(golden_wal_bytes.compare(0, bytes.size(), bytes), 0)
            << CellName(cell, hit);
      }
      ExpectMetasEqual(
          rec.metas,
          GoldenPrefixState(golden_wal, rec.records,
                            TempPath("reuse_prefix.wal")),
          CellName(cell, hit));

      // The replayed ledger reconstructs exactly: every recovered entry
      // restores against its recorded checksum into a fresh store.
      reuse::MaterializedStore restored(2600, 6, 2);
      for (const auto& meta : rec.metas) {
        EXPECT_TRUE(restored.RestoreEntry(
            meta, SplitsFor(meta.fingerprint,
                            SplitCountFor(meta.fingerprint))))
            << CellName(cell, hit) << " fp " << meta.fingerprint;
      }
      ExpectMetasEqual(restored.Entries(), rec.metas,
                       CellName(cell, hit) + " restored");

      if (code == 0) {
        EXPECT_GT(hit, 1) << CellName(cell, hit) << " never fired";
        swept_to_completion = true;
        break;
      }
    }
    EXPECT_TRUE(swept_to_completion)
        << cell.site << " (" << ModeName(cell.mode)
        << "): 16 hits never exhausted the site";
  }
}

// --- service admissions journal --------------------------------------------

using service::Arrival;
using service::JobService;
using service::ServiceOptions;
using service::ServiceJobTemplate;
using service::ServiceResult;
using service::TenantQuota;
using testing_util::ToyWorld;

struct ServiceWorldFixture {
  ServiceWorldFixture()
      : world(120, 24), input(world.MakeInput(6, 8, 120)),
        conf(world.MakeJoinJob(false)) {
    for (int i = 0; i < 4; ++i) {
      arrivals.push_back(Arrival{1e-3 * i, 0, 0});
    }
  }

  ServiceResult Run(const std::string& wal,
                    const std::vector<Arrival>& batch) const {
    ServiceOptions options;
    options.journal_path = wal;
    options.efind.threads = 1;
    ClusterConfig config;
    JobService svc(config, options);
    // A 2-deep system with ample backlog: the burst exercises the adm,
    // def, and fin record kinds without ever rejecting.
    svc.AddTenant("solo", 1.0, TenantQuota{/*max_in_system=*/2,
                                           /*max_backlog=*/16});
    svc.AddTemplate(ServiceJobTemplate{&conf, &input,
                                       Strategy::kLookupCache});
    return svc.Run(batch);
  }

  ToyWorld world;
  std::vector<InputSplit> input;
  IndexJobConf conf;
  std::vector<Arrival> arrivals;
};

TEST(CrashMatrixTest, ServiceBacklogSurvivesEveryCrashSite) {
  ServiceWorldFixture fx;

  // Golden uninterrupted run.
  const std::string golden_wal = TempPath("service_golden.wal");
  ::unlink(golden_wal.c_str());
  const ServiceResult golden = fx.Run(golden_wal, fx.arrivals);
  ASSERT_EQ(golden.jobs.size(), fx.arrivals.size());
  for (const auto& job : golden.jobs) {
    ASSERT_FALSE(job.rejected);
    ASSERT_GE(job.finish, 0.0);
  }
  const uint64_t golden_checksum = golden.jobs[0].output_checksum;
  std::string golden_wal_bytes;
  ASSERT_TRUE(durable::ReadFileContents(golden_wal, &golden_wal_bytes));

  const std::vector<Cell> cells = {
      {"service.wal", CrashMode::kKill},
      {"service.wal@synced", CrashMode::kKill},
      {"service.wal", CrashMode::kTornTruncate},
      {"service.wal", CrashMode::kTornBitflip},
  };

  int seq = 0;
  for (const Cell& cell : cells) {
    bool swept_to_completion = false;
    for (int hit = 1; hit <= 24; ++hit) {
      const std::string wal =
          TempPath("service_" + std::to_string(seq++) + ".wal");
      ::unlink(wal.c_str());
      const int code =
          RunArmed(cell, hit, [&] { fx.Run(wal, fx.arrivals); });
      ASSERT_TRUE(code == 0 || code == durable::kCrashExitCode)
          << CellName(cell, hit) << " child exited " << code;

      const auto rec = JobService::Recover(wal);
      ASSERT_TRUE(rec.found) << CellName(cell, hit);
      // The ledger always balances: submitted = settled + pending.
      EXPECT_EQ(rec.submitted,
                rec.finished + rec.rejected + rec.pending.size())
          << CellName(cell, hit);
      EXPECT_EQ(rec.rejected, 0u) << CellName(cell, hit);
      if (cell.mode == CrashMode::kKill) {
        EXPECT_FALSE(rec.torn_tail) << CellName(cell, hit);
        std::string bytes;
        ASSERT_TRUE(durable::ReadFileContents(wal, &bytes));
        ASSERT_LE(bytes.size(), golden_wal_bytes.size())
            << CellName(cell, hit);
        EXPECT_EQ(golden_wal_bytes.compare(0, bytes.size(), bytes), 0)
            << CellName(cell, hit);
      }
      // Every pending arrival is one of the original submissions, with
      // its exact arrival time, tenant, and template.
      for (const Arrival& a : rec.pending) {
        bool matched = false;
        for (const Arrival& orig : fx.arrivals) {
          matched = matched ||
                    (orig.time == a.time && orig.tenant == a.tenant &&
                     orig.job_template == a.job_template);
        }
        EXPECT_TRUE(matched) << CellName(cell, hit) << " stray pending job";
      }
      // Zero lost admitted jobs: re-running the recovered backlog through
      // a fresh service finishes all of them with outputs byte-identical
      // (checksummed) to the golden run's.
      if (!rec.pending.empty()) {
        const std::string rerun_wal =
            TempPath("service_rerun_" + std::to_string(seq) + ".wal");
        ::unlink(rerun_wal.c_str());
        const ServiceResult rerun = fx.Run(rerun_wal, rec.pending);
        ASSERT_EQ(rerun.jobs.size(), rec.pending.size())
            << CellName(cell, hit);
        for (const auto& job : rerun.jobs) {
          EXPECT_FALSE(job.rejected) << CellName(cell, hit);
          EXPECT_GE(job.finish, 0.0) << CellName(cell, hit);
          EXPECT_EQ(job.output_checksum, golden_checksum)
              << CellName(cell, hit);
        }
      }
      if (code == 0) {
        EXPECT_GT(hit, 1) << CellName(cell, hit) << " never fired";
        EXPECT_EQ(rec.pending.size(), 0u) << CellName(cell, hit);
        swept_to_completion = true;
        break;
      }
    }
    EXPECT_TRUE(swept_to_completion)
        << cell.site << " (" << ModeName(cell.mode)
        << "): 24 hits never exhausted the site";
  }
}

}  // namespace
}  // namespace efind

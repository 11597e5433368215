// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Unit tests of the crash-safe persistence layer (DESIGN.md §15): the
// checksummed generation-stamped footer and every way it detects a torn
// file, the atomic commit protocol, write-ahead journal framing and torn
// tail handling, and the hit counting of the deterministic crash-point
// registry (the injected deaths themselves are exercised by
// crash_matrix_test, which can afford to lose a child).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/durable.h"
#include "common/wal.h"

namespace efind {
namespace durable {
namespace {

std::string TempPath(const char* leaf) {
  return ::testing::TempDir() + "efind_durable_" + leaf;
}

/// Raw (non-atomic) file write, for planting corrupted fixtures.
void WriteRaw(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

// --- footer ----------------------------------------------------------------

TEST(DurableFooterTest, RoundTripPreservesBodyAndGeneration) {
  std::string data = "hello, durable world";
  const std::string body_before = data;
  AppendFooter(&data, /*generation=*/7);
  EXPECT_EQ(data.size(), body_before.size() + kFooterBytes);

  uint64_t gen = 0;
  std::string_view body;
  const Status s = CheckFooter(data, &gen, &body);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(gen, 7u);
  EXPECT_EQ(body, body_before);
}

TEST(DurableFooterTest, EmptyBodySeals) {
  std::string data;
  AppendFooter(&data, 42);
  uint64_t gen = 0;
  std::string_view body;
  ASSERT_TRUE(CheckFooter(data, &gen, &body).ok());
  EXPECT_EQ(gen, 42u);
  EXPECT_TRUE(body.empty());
}

TEST(DurableFooterTest, UnsealedBytesAreMissingFooter) {
  uint64_t gen = 0;
  std::string_view body;
  const Status s = CheckFooter("plain legacy file contents", &gen, &body);
  ASSERT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_NE(s.message().find("missing footer"), std::string::npos);
}

TEST(DurableFooterTest, TruncationIsDataLoss) {
  std::string data(300, 'x');
  AppendFooter(&data, 1);
  // Any truncation breaks the tail magic (or the length bookkeeping).
  for (const size_t cut : {size_t{1}, kFooterBytes / 2, kFooterBytes,
                           data.size() - 5}) {
    const std::string torn = data.substr(0, data.size() - cut);
    EXPECT_TRUE(CheckFooter(torn, nullptr, nullptr).IsDataLoss())
        << "cut=" << cut;
  }
}

TEST(DurableFooterTest, BodyBitflipIsChecksumMismatch) {
  std::string data = "the quick brown fox";
  AppendFooter(&data, 3);
  data[4] ^= 0x10;
  const Status s = CheckFooter(data, nullptr, nullptr);
  ASSERT_TRUE(s.IsDataLoss());
  EXPECT_NE(s.message().find("checksum mismatch"), std::string::npos);
}

TEST(DurableFooterTest, GenerationTamperIsChecksumMismatch) {
  std::string data = "body";
  AppendFooter(&data, 5);
  // First footer byte is the low byte of the generation.
  data[data.size() - kFooterBytes] ^= 0x01;
  EXPECT_TRUE(CheckFooter(data, nullptr, nullptr).IsDataLoss());
}

TEST(DurableFooterTest, PrefixExtensionIsLengthMismatch) {
  std::string data = "body";
  AppendFooter(&data, 5);
  // Bytes prepended ahead of a valid sealed tail: the recorded body length
  // no longer matches, so no prefix/extension of a sealed file verifies.
  const std::string extended = "junk" + data;
  const Status s = CheckFooter(extended, nullptr, nullptr);
  ASSERT_TRUE(s.IsDataLoss());
  EXPECT_NE(s.message().find("length mismatch"), std::string::npos);
}

TEST(DurableFooterTest, DetectionsCountInStats) {
  ResetDurableStats();
  std::string data = "counted";
  AppendFooter(&data, 1);
  ASSERT_TRUE(CheckFooter(data, nullptr, nullptr).ok());
  CheckFooter("garbage", nullptr, nullptr);
  const DurableStats stats = GetDurableStats();
  EXPECT_EQ(stats.footer_checks, 2u);
  EXPECT_EQ(stats.torn_detected, 1u);
}

// --- atomic commit ---------------------------------------------------------

TEST(AtomicWriteFileTest, CommitsContentAndRemovesTemp) {
  const std::string path = TempPath("commit.txt");
  ::unlink(path.c_str());
  ::unlink((path + ".tmp").c_str());
  ResetDurableStats();

  ASSERT_TRUE(AtomicWriteFile(path, "payload bytes", "test.site").ok());
  std::string back;
  ASSERT_TRUE(ReadFileContents(path, &back));
  EXPECT_EQ(back, "payload bytes");
  // The temp staging file must not survive a completed commit.
  std::string tmp_back;
  EXPECT_FALSE(ReadFileContents(path + ".tmp", &tmp_back));

  const DurableStats stats = GetDurableStats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.commit_bytes, 13u);
  EXPECT_GE(stats.fsyncs, 2u);  // File + parent directory.
}

TEST(AtomicWriteFileTest, ReplacesExistingFile) {
  const std::string path = TempPath("replace.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "old generation", "test.site").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "new", "test.site").ok());
  std::string back;
  ASSERT_TRUE(ReadFileContents(path, &back));
  EXPECT_EQ(back, "new");
}

TEST(AtomicWriteFileTest, FailureNamesThePath) {
  const Status s =
      AtomicWriteFile("/nonexistent_dir_zz/f.txt", "x", "test.site");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("/nonexistent_dir_zz/f.txt"), std::string::npos);
}

// --- the crash-point hit registry ------------------------------------------

TEST(CrashPointTest, DisarmedNeverFires) {
  SetCrashConfig(CrashConfig{});
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(CrashPoint("any.site"));
  }
}

TEST(CrashPointTest, TornModeFiresOnExactlyTheArmedHit) {
  // Torn modes *return* true instead of dying, so the counting is testable
  // in-process; kill mode shares the same registry (crash_matrix_test).
  SetCrashConfig(CrashConfig{"site.a", 3, CrashMode::kTornTruncate});
  EXPECT_FALSE(CrashPoint("site.a"));
  EXPECT_FALSE(CrashPoint("site.b"));  // Other sites never fire.
  EXPECT_FALSE(CrashPoint("site.a"));
  EXPECT_TRUE(CrashPoint("site.a"));   // Third hit of site.a.
  EXPECT_FALSE(CrashPoint("site.a"));  // One-shot: past the armed hit.
  SetCrashConfig(CrashConfig{});
}

TEST(CrashPointTest, SetCrashConfigResetsHitCounters) {
  SetCrashConfig(CrashConfig{"site.c", 2, CrashMode::kTornBitflip});
  EXPECT_FALSE(CrashPoint("site.c"));
  SetCrashConfig(CrashConfig{"site.c", 2, CrashMode::kTornBitflip});
  EXPECT_FALSE(CrashPoint("site.c"));  // Count restarted at zero.
  EXPECT_TRUE(CrashPoint("site.c"));
  SetCrashConfig(CrashConfig{});
}

TEST(TearBytesTest, TruncateDropsTail) {
  SetCrashConfig(CrashConfig{"x", 1, CrashMode::kTornTruncate});
  std::string data(100, 'a');
  TearBytes(&data);
  EXPECT_LT(data.size(), 100u);
  std::string tiny = "ab";
  TearBytes(&tiny);  // Never underflows on short payloads.
  EXPECT_TRUE(tiny.empty());
  SetCrashConfig(CrashConfig{});
}

TEST(TearBytesTest, BitflipKeepsSizeChangesBytes) {
  SetCrashConfig(CrashConfig{"x", 1, CrashMode::kTornBitflip});
  std::string data(100, 'a');
  const std::string before = data;
  TearBytes(&data);
  EXPECT_EQ(data.size(), before.size());
  EXPECT_NE(data, before);
  SetCrashConfig(CrashConfig{});
}

// --- write-ahead journal ---------------------------------------------------

TEST(WalTest, AppendReplayRoundTrip) {
  const std::string path = TempPath("wal_roundtrip");
  ::unlink(path.c_str());
  const std::vector<std::string> records = {"pub 1 2 3", "", "hit deadbeef",
                                            std::string(1000, 'z')};
  {
    WriteAheadJournal wal;
    ASSERT_TRUE(wal.Open(path, "test.wal").ok());
    for (const std::string& r : records) {
      ASSERT_TRUE(wal.Append(r).ok());
    }
    EXPECT_EQ(wal.records_appended(), records.size());
  }
  std::vector<std::string> back;
  const auto result = WriteAheadJournal::Replay(
      path, [&](std::string_view r) { back.emplace_back(r); });
  EXPECT_TRUE(result.found);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.records, records.size());
  EXPECT_EQ(back, records);
}

TEST(WalTest, ReopenAppends) {
  const std::string path = TempPath("wal_reopen");
  ::unlink(path.c_str());
  {
    WriteAheadJournal wal;
    ASSERT_TRUE(wal.Open(path, "test.wal").ok());
    ASSERT_TRUE(wal.Append("first").ok());
  }
  {
    WriteAheadJournal wal;
    ASSERT_TRUE(wal.Open(path, "test.wal").ok());
    ASSERT_TRUE(wal.Append("second").ok());
  }
  std::vector<std::string> back;
  WriteAheadJournal::Replay(path,
                            [&](std::string_view r) { back.emplace_back(r); });
  EXPECT_EQ(back, (std::vector<std::string>{"first", "second"}));
}

TEST(WalTest, MissingFileReportsNotFound) {
  const auto result =
      WriteAheadJournal::Replay(TempPath("wal_never_written"), nullptr);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.records, 0u);
}

TEST(WalTest, TruncatedTailStopsReplayCleanly) {
  const std::string path = TempPath("wal_torn");
  ::unlink(path.c_str());
  {
    WriteAheadJournal wal;
    ASSERT_TRUE(wal.Open(path, "test.wal").ok());
    ASSERT_TRUE(wal.Append("intact one").ok());
    ASSERT_TRUE(wal.Append("intact two").ok());
  }
  std::string raw;
  ASSERT_TRUE(ReadFileContents(path, &raw));
  // A crashed writer leaves any prefix of a frame; every cut must replay
  // exactly the intact records and flag the torn tail.
  const size_t frame_bytes = 12 + 10;  // header + "intact one".
  for (size_t keep = frame_bytes + 1; keep < raw.size(); ++keep) {
    WriteRaw(path, raw.substr(0, keep));
    std::vector<std::string> back;
    const auto result = WriteAheadJournal::Replay(
        path, [&](std::string_view r) { back.emplace_back(r); });
    EXPECT_TRUE(result.torn_tail) << "keep=" << keep;
    EXPECT_EQ(back, std::vector<std::string>{"intact one"}) << "keep=" << keep;
  }
}

TEST(WalTest, CorruptFrameStopsReplayThere) {
  const std::string path = TempPath("wal_bitflip");
  ::unlink(path.c_str());
  {
    WriteAheadJournal wal;
    ASSERT_TRUE(wal.Open(path, "test.wal").ok());
    ASSERT_TRUE(wal.Append("aaaa").ok());
    ASSERT_TRUE(wal.Append("bbbb").ok());
    ASSERT_TRUE(wal.Append("cccc").ok());
  }
  std::string raw;
  ASSERT_TRUE(ReadFileContents(path, &raw));
  // Flip a payload byte of the middle frame: its checksum fails, and the
  // records after it are unreachable by design (boundaries untrusted).
  raw[12 + 4 + 12 + 1] ^= 0x40;
  WriteRaw(path, raw);
  ResetDurableStats();
  std::vector<std::string> back;
  const auto result = WriteAheadJournal::Replay(
      path, [&](std::string_view r) { back.emplace_back(r); });
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(back, std::vector<std::string>{"aaaa"});
  EXPECT_EQ(GetDurableStats().torn_detected, 1u);
}

}  // namespace
}  // namespace durable
}  // namespace efind

// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Crash-safe file persistence (DESIGN.md §15). Three pieces:
//
//  - Atomic commit: `AtomicWriteFile` writes `<path>.tmp`, fsyncs the file,
//    renames over `path`, then fsyncs the directory — a reader never sees a
//    half-written target, only the old file or the new one. All short
//    writes and EINTR interruptions are handled; any failure reports the
//    offending path.
//  - Checksummed, generation-stamped footer: `AppendFooter` seals a byte
//    body with [u64 generation][u64 body_len][u64 checksum][8B magic];
//    `CheckFooter` verifies it on load and distinguishes "not a sealed
//    file" from "sealed but torn" (kDataLoss). The generation lets a
//    loader prove which build/publish wave a file belongs to.
//  - Deterministic crash injection: `CrashPoint(site)` counts hits per
//    named site; when armed by `SetCrashConfig` (the only arming path) the
//    Nth hit kills the process with `_exit(kCrashExitCode)`. The torn-write
//    modes instead corrupt the tail of the file being committed at the
//    armed site — truncating it or flipping bits — *complete* the rename,
//    and then die, simulating a lying disk across an unclean shutdown.
//    The crash-matrix test (`ctest -L crash`) forks a child per (site,
//    hit, mode) cell and asserts recovery from every one of them.
//
// This header lives in efind_common and must stay free of cluster / obs
// dependencies; callers surface `efind.durable.*` counters from
// `GetDurableStats()` into their own observability sessions.

#ifndef EFIND_COMMON_DURABLE_H_
#define EFIND_COMMON_DURABLE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace efind {
namespace durable {

// --- deterministic crash injection

enum class CrashMode {
  kKill,          ///< _exit at the armed site, mid-protocol.
  kTornTruncate,  ///< Drop the tail of the committed bytes, then _exit.
  kTornBitflip,   ///< Flip bits in the last committed byte, then _exit.
};

/// Process-wide crash-injection arming. Disarmed while `site` is empty.
struct CrashConfig {
  std::string site;  ///< Exact site name the Nth hit of which fires.
  int hit = 1;       ///< 1-based hit ordinal.
  CrashMode mode = CrashMode::kKill;
};

/// Exit code of an injected crash (`_exit`, no cleanup — that is the
/// point). Distinct from common test-failure codes so harnesses can tell
/// "crashed as planted" from "crashed for real".
inline constexpr int kCrashExitCode = 86;

/// Arms (or, with an empty site, disarms) crash injection for this process
/// and resets all site hit counters.
void SetCrashConfig(const CrashConfig& config);

/// Registers one hit of `site`. In kKill mode the armed hit calls
/// `_exit(kCrashExitCode)` and never returns. In the torn modes this
/// returns true on the armed hit — the committing caller corrupts the tail
/// of its payload, finishes the rename, and then calls `CrashNow()`
/// (AtomicWriteFile and the journal do this internally).
bool CrashPoint(const char* site);

/// The injected death itself: `_exit(kCrashExitCode)`.
[[noreturn]] void CrashNow();

/// Applies the armed torn mode to `data` in place (truncate or bit-flip
/// the tail). Used by commit paths after `CrashPoint` returned true.
void TearBytes(std::string* data);

// --- counters (surfaced by callers as efind.durable.* metrics)

struct DurableStats {
  uint64_t commits = 0;        ///< Successful atomic commits.
  uint64_t commit_bytes = 0;   ///< Bytes committed.
  uint64_t fsyncs = 0;         ///< fsync/fdatasync calls issued.
  uint64_t footer_checks = 0;  ///< CheckFooter verifications run.
  uint64_t torn_detected = 0;  ///< Footer / journal-frame failures seen.
};

DurableStats GetDurableStats();
void ResetDurableStats();
/// Counts one detected-torn-state event (journal replay, manifest loads).
void NoteTornDetected();

// --- checksummed generation-stamped footer

/// Bytes `AppendFooter` adds: generation + body length + checksum + magic.
inline constexpr uint64_t kFooterBytes = 32;

/// Seals `data` in place: appends [u64 generation][u64 body_len]
/// [u64 checksum][8B magic]. The checksum covers the body, the generation,
/// and the length, so no prefix/extension of a sealed file verifies.
void AppendFooter(std::string* data, uint64_t generation);

/// Verifies a sealed byte string. On success fills `generation` and `body`
/// (a view into `data` without the footer). Failures are kDataLoss with a
/// message distinguishing "no footer" (too short / bad magic — likely a
/// legacy or truncated file) from a checksum mismatch (torn write). Either
/// failure bumps the torn_detected counter.
Status CheckFooter(std::string_view data, uint64_t* generation,
                   std::string_view* body);

// --- atomic commit

/// Commits `data` to `path` atomically: write `<path>.tmp` (EINTR-safe
/// full write) → fsync → rename over `path` → fsync the parent directory.
/// `site` names the crash-injection family: kill-mode sub-sites
/// `<site>@tmp` (temp written, target untouched), `<site>@rename` (renamed,
/// directory entry not yet synced) and `<site>@done` fire inside, and a
/// torn mode armed on `<site>` itself commits a corrupted tail before
/// dying. Any real I/O failure returns kInternal naming the path; the
/// target is never left half-written (only the `.tmp` may linger).
Status AtomicWriteFile(const std::string& path, std::string_view data,
                       const char* site);

/// Whole-file read with EINTR retries. Returns false when the file cannot
/// be opened or read.
bool ReadFileContents(const std::string& path, std::string* out);

}  // namespace durable
}  // namespace efind

#endif  // EFIND_COMMON_DURABLE_H_

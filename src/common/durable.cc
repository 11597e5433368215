// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "common/durable.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

#include "common/checksum.h"
#include "common/framing.h"

namespace efind {
namespace durable {

namespace {

// The durable layer is orchestration-thread-only, like every persistence
// surface it serves (packed-store builds, journals); plain statics keep
// the hit counting deterministic.
CrashConfig g_crash;
std::map<std::string, int> g_hits;
DurableStats g_stats;

constexpr char kFooterMagic[] = "EFDURBL1";
constexpr uint64_t kFooterMagicBytes = 8;

uint64_t FooterChecksum(std::string_view body, uint64_t generation) {
  Checksum64 c;
  c.Update(body);
  c.UpdateU64(generation);
  c.UpdateU64(body.size());
  return c.Digest();
}

bool FsyncFd(int fd) {
  ++g_stats.fsyncs;
  int r;
  do {
    r = ::fsync(fd);
  } while (r != 0 && errno == EINTR);
  return r == 0;
}

/// fsyncs the parent directory of `path` so the rename itself is durable.
bool FsyncParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = FsyncFd(fd);
  ::close(fd);
  return ok;
}

}  // namespace

void SetCrashConfig(const CrashConfig& config) {
  g_crash = config;
  g_hits.clear();
}

bool CrashPoint(const char* site) {
  if (g_crash.site.empty() || g_crash.site != site) return false;
  if (++g_hits[g_crash.site] != g_crash.hit) return false;
  if (g_crash.mode == CrashMode::kKill) CrashNow();
  return true;  // Torn mode: the committing caller tears, renames, dies.
}

void CrashNow() { ::_exit(kCrashExitCode); }

void TearBytes(std::string* data) {
  if (g_crash.mode == CrashMode::kTornBitflip) {
    if (!data->empty()) (*data)[data->size() - 1] ^= 0x5a;
    if (data->size() >= kFooterBytes) {
      (*data)[data->size() - kFooterBytes / 2] ^= 0x81;
    }
  } else {
    data->resize(data->size() - std::min<size_t>(data->size(),
                                                 kFooterBytes / 2 + 3));
  }
}

DurableStats GetDurableStats() { return g_stats; }

void ResetDurableStats() { g_stats = DurableStats(); }

void NoteTornDetected() { ++g_stats.torn_detected; }

void AppendFooter(std::string* data, uint64_t generation) {
  const uint64_t body_len = data->size();
  const uint64_t checksum = FooterChecksum(*data, generation);
  PutU64(data, generation);
  PutU64(data, body_len);
  PutU64(data, checksum);
  data->append(kFooterMagic, kFooterMagicBytes);
}

Status CheckFooter(std::string_view data, uint64_t* generation,
                   std::string_view* body) {
  ++g_stats.footer_checks;
  if (data.size() < kFooterBytes ||
      std::memcmp(data.data() + data.size() - kFooterMagicBytes, kFooterMagic,
                  kFooterMagicBytes) != 0) {
    NoteTornDetected();
    return Status::DataLoss("durable: missing footer (truncated or legacy)");
  }
  const char* f = data.data() + data.size() - kFooterBytes;
  const uint64_t gen = LoadU64(f);
  const uint64_t body_len = LoadU64(f + 8);
  const uint64_t checksum = LoadU64(f + 16);
  if (body_len != data.size() - kFooterBytes) {
    NoteTornDetected();
    return Status::DataLoss("durable: footer length mismatch");
  }
  const std::string_view b = data.substr(0, body_len);
  if (FooterChecksum(b, gen) != checksum) {
    NoteTornDetected();
    return Status::DataLoss("durable: footer checksum mismatch (torn write)");
  }
  if (generation != nullptr) *generation = gen;
  if (body != nullptr) *body = b;
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, std::string_view data,
                       const char* site) {
  // A torn mode armed on this exact site corrupts the tail but still
  // completes the whole commit protocol before dying — the failure the
  // footer exists to catch.
  std::string torn;
  bool tear = CrashPoint(site);
  if (tear) {
    torn.assign(data);
    TearBytes(&torn);
    data = torn;
  }

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("durable: cannot create " + tmp + ": " +
                            std::strerror(errno));
  }
  if (!WriteAll(fd, data.data(), data.size())) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("durable: short write to " + tmp + ": " + err);
  }
  if (!FsyncFd(fd)) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("durable: fsync failed for " + tmp + ": " + err);
  }
  ::close(fd);
  if (CrashPoint((std::string(site) + "@tmp").c_str())) CrashNow();

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::Internal("durable: rename to " + path + " failed: " + err);
  }
  if (CrashPoint((std::string(site) + "@rename").c_str())) CrashNow();

  if (!FsyncParentDir(path)) {
    return Status::Internal("durable: directory fsync failed for " + path);
  }
  if (tear) CrashNow();
  if (CrashPoint((std::string(site) + "@done").c_str())) CrashNow();

  ++g_stats.commits;
  g_stats.commit_bytes += data.size();
  return Status::OK();
}

bool ReadFileContents(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out->clear();
  char buf[1 << 16];
  while (true) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (r == 0) break;
    out->append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return true;
}

}  // namespace durable
}  // namespace efind

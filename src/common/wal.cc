// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "common/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/checksum.h"
#include "common/durable.h"
#include "common/framing.h"

namespace efind {
namespace durable {

namespace {

constexpr uint64_t kFrameHeaderBytes = 12;  // u32 len + u64 checksum.

uint64_t FrameChecksum(std::string_view record) {
  Checksum64 c;
  c.UpdateFramed(record);
  return c.Digest();
}

}  // namespace

WriteAheadJournal::~WriteAheadJournal() { Close(); }

Status WriteAheadJournal::Open(const std::string& path, std::string site) {
  Close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    return Status::Internal("wal: cannot open " + path + ": " +
                            std::strerror(errno));
  }
  path_ = path;
  site_ = std::move(site);
  records_ = 0;
  return Status::OK();
}

Status WriteAheadJournal::Append(std::string_view record) {
  if (fd_ < 0) return Status::FailedPrecondition("wal: not open");
  std::string frame;
  frame.reserve(kFrameHeaderBytes + record.size());
  PutU32(&frame, static_cast<uint32_t>(record.size()));
  PutU64(&frame, FrameChecksum(record));
  frame.append(record.data(), record.size());

  // A torn crash mode armed on this journal's site corrupts the armed
  // append's frame — the partial record a real crash mid-write leaves.
  const bool tear = CrashPoint(site_.c_str());
  if (tear) TearBytes(&frame);

  if (!WriteAll(fd_, frame.data(), frame.size())) {
    return Status::Internal("wal: short append to " + path_ + ": " +
                            std::strerror(errno));
  }
  int r;
  do {
    r = ::fdatasync(fd_);
  } while (r != 0 && errno == EINTR);
  if (r != 0) {
    return Status::Internal("wal: fdatasync failed for " + path_ + ": " +
                            std::strerror(errno));
  }
  if (tear) CrashNow();
  if (CrashPoint((site_ + "@synced").c_str())) CrashNow();
  ++records_;
  return Status::OK();
}

void WriteAheadJournal::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

WriteAheadJournal::ReplayResult WriteAheadJournal::Replay(
    const std::string& path,
    const std::function<void(std::string_view)>& fn) {
  ReplayResult result;
  std::string raw;
  if (!ReadFileContents(path, &raw)) return result;
  result.found = true;
  result.bytes = raw.size();
  size_t pos = 0;
  while (pos < raw.size()) {
    if (raw.size() - pos < kFrameHeaderBytes) {
      result.torn_tail = true;
      break;
    }
    const uint32_t len = LoadU32(raw.data() + pos);
    const uint64_t checksum = LoadU64(raw.data() + pos + 4);
    if (raw.size() - pos - kFrameHeaderBytes < len) {
      result.torn_tail = true;
      break;
    }
    const std::string_view record(raw.data() + pos + kFrameHeaderBytes, len);
    if (FrameChecksum(record) != checksum) {
      // Frame boundaries past an unverifiable frame cannot be trusted:
      // stop here, whatever follows is unreachable.
      result.torn_tail = true;
      break;
    }
    if (fn) fn(record);
    ++result.records;
    pos += kFrameHeaderBytes + len;
  }
  if (result.torn_tail) NoteTornDetected();
  return result;
}

}  // namespace durable
}  // namespace efind

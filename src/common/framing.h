// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_COMMON_FRAMING_H_
#define EFIND_COMMON_FRAMING_H_

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace efind {

// Little-endian fixed-width integer framing shared by every on-disk format
// (durable footers, journal frames, packed-store pages and sidecars,
// Elias-Fano blobs), plus a full write to a raw file descriptor. Internal
// to the library. Loads are single memcpys, byte-swapped only on a
// big-endian host, so the bytes on disk never depend on the host.

template <typename T>
T LittleEndian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 2) return __builtin_bswap16(v);
    if constexpr (sizeof(T) == 4) return __builtin_bswap32(v);
    if constexpr (sizeof(T) == 8) return __builtin_bswap64(v);
  }
  return v;
}

template <typename T>
T LoadLittle(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return LittleEndian(v);
}

template <typename T>
void PutLittle(std::string* out, T v) {
  v = LittleEndian(v);
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline uint16_t LoadU16(const char* p) { return LoadLittle<uint16_t>(p); }
inline uint32_t LoadU32(const char* p) { return LoadLittle<uint32_t>(p); }
inline uint64_t LoadU64(const char* p) { return LoadLittle<uint64_t>(p); }
inline void PutU32(std::string* out, uint32_t v) { PutLittle(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutLittle(out, v); }

/// Checked readers: load from `*p` and advance it, or return false (and
/// leave `*p` alone) when fewer than 4/8 bytes remain before `end`.
inline bool GetU32(const char** p, const char* end, uint32_t* v) {
  if (end - *p < 4) return false;
  *v = LoadU32(*p);
  *p += 4;
  return true;
}

inline bool GetU64(const char** p, const char* end, uint64_t* v) {
  if (end - *p < 8) return false;
  *v = LoadU64(*p);
  *p += 8;
  return true;
}

/// Full write with EINTR/short-write retries; false on a real error.
inline bool WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

}  // namespace efind

#endif  // EFIND_COMMON_FRAMING_H_

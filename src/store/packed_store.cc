// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "store/packed_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/checksum.h"
#include "common/durable.h"
#include "common/framing.h"
#include "common/hash.h"

namespace efind {
namespace store {

namespace {

// Object header: [u64 key hash][u32 key len][u32 payload len].
constexpr uint64_t kObjectHeaderBytes = 16;
// Page trailer: u16 offset of the first object starting in the page.
constexpr uint16_t kNoObjectStarts = 0xffff;
// Sidecar format 2: adds the data file's content checksum after
// payload_bytes, and the whole blob is sealed with a durable footer.
constexpr char kSidecarMagic[] = "EFSTIDX2";
constexpr uint64_t kSidecarMagicBytes = 8;

/// Object-stream bytes per page after the trailer and the fill degree.
uint64_t UsablePageBytes(const PackedStoreOptions& options) {
  const uint64_t cap = options.page_bytes - 2;
  uint64_t used =
      static_cast<uint64_t>(static_cast<double>(cap) * options.fill);
  if (used < 16) used = 16;
  if (used > cap) used = cap;
  return used;
}

// Data and sidecar files carry the build generation in their name
// (part<N>.g<G>.dat); the manifest — committed last, atomically — is the
// sole pointer to the live generation, so a crash mid-build leaves the
// prior generation loadable.
std::string DataPath(const std::string& dir, int p, uint64_t gen) {
  return dir + "/part" + std::to_string(p) + ".g" + std::to_string(gen) +
         ".dat";
}

std::string IndexPath(const std::string& dir, int p, uint64_t gen) {
  return dir + "/part" + std::to_string(p) + ".g" + std::to_string(gen) +
         ".idx";
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.txt";
}

/// Highest generation number any part file in `dir` carries. A crashed
/// build can leave gen G+1 files behind with the manifest still at G; the
/// next build must skip past them so it never overwrites a torn file with
/// the same name.
uint64_t MaxGenerationInDir(const std::string& dir) {
  uint64_t max_gen = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (struct dirent* e = ::readdir(d)) {
    const char* name = e->d_name;
    if (std::strncmp(name, "part", 4) != 0) continue;
    const char* g = std::strchr(name, 'g');
    if (g == nullptr) continue;
    char* end = nullptr;
    const uint64_t gen = std::strtoull(g + 1, &end, 10);
    if (end == g + 1 || *end != '.') continue;
    if (gen > max_gen) max_gen = gen;
  }
  ::closedir(d);
  return max_gen;
}

/// Removes part files of any generation other than `keep`, plus stray
/// `.tmp` files a crashed commit left behind. Best-effort: runs after the
/// manifest commit, so failures only leak disk.
void RemoveStaleGenerations(const std::string& dir, uint64_t keep) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> doomed;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    const size_t len = name.size();
    if (len > 4 && name.compare(len - 4, 4, ".tmp") == 0) {
      doomed.push_back(name);
      continue;
    }
    if (name.compare(0, 4, "part") != 0) continue;
    const size_t g = name.find(".g");
    if (g == std::string::npos) continue;
    char* end = nullptr;
    const uint64_t gen = std::strtoull(name.c_str() + g + 2, &end, 10);
    if (end == name.c_str() + g + 2 || *end != '.') continue;
    if (gen != keep) doomed.push_back(name);
  }
  ::closedir(d);
  for (const std::string& name : doomed) ::unlink((dir + "/" + name).c_str());
}

/// Parses the line-oriented `key value` manifest. Returns false on a
/// missing file; unknown keys are ignored for forward compatibility. The
/// manifest is sealed with a durable footer: a torn or truncated manifest
/// fails loudly here instead of loading a half-written store description.
bool ParseManifest(const std::string& dir, PackedStoreOptions* options,
                   uint64_t* version, std::string* error) {
  std::string raw;
  if (!durable::ReadFileContents(ManifestPath(dir), &raw)) {
    if (error != nullptr) *error = "missing manifest: " + ManifestPath(dir);
    return false;
  }
  uint64_t footer_gen = 0;
  std::string_view body;
  const Status footer = durable::CheckFooter(raw, &footer_gen, &body);
  if (!footer.ok()) {
    if (error != nullptr) {
      *error = "torn manifest: " + ManifestPath(dir) + " (" +
               footer.message() + ")";
    }
    return false;
  }
  const std::string text(body);
  options->dir = dir;
  size_t pos = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    if (key == "efind_packed_store") {
      saw_header = true;
    } else if (key == "version") {
      *version = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "page_bytes") {
      options->page_bytes = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "fill") {
      options->fill = std::strtod(value.c_str(), nullptr);
    } else if (key == "bins_per_block") {
      options->bins_per_block = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "num_partitions") {
      options->num_partitions = std::atoi(value.c_str());
    } else if (key == "replication") {
      options->replication = std::atoi(value.c_str());
    } else if (key == "num_nodes") {
      options->num_nodes = std::atoi(value.c_str());
    } else if (key == "base_service_sec") {
      options->base_service_sec = std::strtod(value.c_str(), nullptr);
    } else if (key == "serve_per_byte_sec") {
      options->serve_per_byte_sec = std::strtod(value.c_str(), nullptr);
    }
  }
  if (!saw_header) {
    if (error != nullptr) *error = "not a packed store manifest: " + dir;
    return false;
  }
  if (*version != footer_gen) {
    if (error != nullptr) {
      *error = "manifest generation mismatch: " + ManifestPath(dir);
    }
    return false;
  }
  return true;
}

std::string FormatManifest(const PackedStoreOptions& options,
                           uint64_t version) {
  char buf[64];
  std::string out = "efind_packed_store 1\n";
  out += "version " + std::to_string(version) + "\n";
  out += "page_bytes " + std::to_string(options.page_bytes) + "\n";
  std::snprintf(buf, sizeof(buf), "%.17g", options.fill);
  out += std::string("fill ") + buf + "\n";
  out += "bins_per_block " + std::to_string(options.bins_per_block) + "\n";
  out += "num_partitions " + std::to_string(options.num_partitions) + "\n";
  out += "replication " + std::to_string(options.replication) + "\n";
  out += "num_nodes " + std::to_string(options.num_nodes) + "\n";
  std::snprintf(buf, sizeof(buf), "%.17g", options.base_service_sec);
  out += std::string("base_service_sec ") + buf + "\n";
  std::snprintf(buf, sizeof(buf), "%.17g", options.serve_per_byte_sec);
  out += std::string("serve_per_byte_sec ") + buf + "\n";
  return out;
}

/// Decodes an object payload ([u32 count] then per value [u32 len][bytes]
/// [u64 extra]) into IndexValues.
Status DecodeValues(std::string_view payload, std::vector<IndexValue>* out) {
  const char* p = payload.data();
  const char* end = p + payload.size();
  uint32_t count = 0;
  if (!GetU32(&p, end, &count)) {
    return Status::Internal("packed store: truncated object payload");
  }
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!GetU32(&p, end, &len) ||
        static_cast<uint64_t>(end - p) < len + 8ULL) {
      return Status::Internal("packed store: truncated object value");
    }
    IndexValue v;
    v.data.assign(p, len);
    p += len;
    uint64_t extra = 0;
    GetU64(&p, end, &extra);
    v.extra_bytes = extra;
    out->push_back(std::move(v));
  }
  if (p != end) {
    return Status::Internal("packed store: trailing object payload bytes");
  }
  return Status::OK();
}

/// Direct pread-backed page source (the serial `Get` path). Pages land in a
/// lookup-local arena whose first block holds four pages: a typical
/// lookup's pages share one uninitialized block and are never copied.
class DirectPageReader : public PackedObjectStore::PageReader {
 public:
  explicit DirectPageReader(const PackedObjectStore* s)
      : store_(s), pages_(4 * s->page_bytes()) {}
  Status Read(int partition, uint64_t page, const char** data) override {
    char* dst = pages_.AllocateBytes(store_->page_bytes());
    *data = dst;
    return store_->ReadPage(partition, page, dst);
  }

 private:
  const PackedObjectStore* store_;
  Arena pages_;
};

/// Page pointers of one lookup, indexed from its first candidate block.
/// Inline storage covers the usual one or two pages without allocating.
class LookupPages {
 public:
  void push_back(const char* page) {
    if (size_ < kInline) {
      inline_[size_] = page;
    } else {
      spill_.push_back(page);
    }
    ++size_;
  }
  const char* operator[](size_t i) const {
    return i < kInline ? inline_[i] : spill_[i - kInline];
  }

 private:
  static constexpr size_t kInline = 8;
  const char* inline_[kInline] = {};
  std::vector<const char*> spill_;
  size_t size_ = 0;
};

}  // namespace

bool ValidatePackedStoreOptions(const PackedStoreOptions& options,
                                std::string* reason) {
  std::string why;
  if (options.dir.empty()) {
    why = "dir must be set";
  } else if (options.page_bytes < 64 || options.page_bytes > 65536) {
    why = "page_bytes must be in [64, 65536] (u16 page trailer)";
  } else if (!(options.fill > 0.0) || options.fill > 1.0) {
    why = "fill must be in (0, 1]";
  } else if (options.bins_per_block < 1 || options.bins_per_block > 1024) {
    why = "bins_per_block must be in [1, 1024]";
  } else if (options.num_partitions < 1) {
    why = "num_partitions must be >= 1";
  } else if (options.num_nodes < 1) {
    why = "num_nodes must be >= 1";
  } else if (options.replication < 1 ||
             options.replication > options.num_nodes) {
    why = "replication must be in [1, num_nodes]";
  } else if (options.base_service_sec < 0 || options.serve_per_byte_sec < 0) {
    why = "service times must be >= 0";
  }
  if (!why.empty()) {
    if (reason != nullptr) *reason = "packed store options: " + why;
    return false;
  }
  return true;
}

// --- PackedObjectStore

std::unique_ptr<PackedObjectStore> PackedObjectStore::Open(
    const std::string& dir, std::string* error) {
  PackedStoreOptions options;
  uint64_t version = 0;
  if (!ParseManifest(dir, &options, &version, error)) return nullptr;
  if (!ValidatePackedStoreOptions(options, error)) return nullptr;

  std::unique_ptr<PackedObjectStore> s(new PackedObjectStore());
  s->options_ = options;
  s->version_ = version;
  s->usable_ = UsablePageBytes(options);
  s->scheme_ = std::make_unique<HashPartitionScheme>(
      options.num_partitions, options.num_nodes, options.replication);
  s->parts_.resize(options.num_partitions);
  for (int p = 0; p < options.num_partitions; ++p) {
    Partition& part = s->parts_[p];
    const std::string idx_path = IndexPath(dir, p, version);
    std::string blob;
    if (!durable::ReadFileContents(idx_path, &blob)) {
      if (error != nullptr) *error = "missing sidecar: " + idx_path;
      return nullptr;
    }
    uint64_t sidecar_gen = 0;
    std::string_view body;
    const Status footer = durable::CheckFooter(blob, &sidecar_gen, &body);
    if (!footer.ok() || sidecar_gen != version) {
      if (error != nullptr) {
        *error = "torn sidecar: " + idx_path + " (" +
                 (footer.ok() ? std::string("generation mismatch")
                              : footer.message()) +
                 ")";
      }
      return nullptr;
    }
    const char* cur = body.data();
    const char* end = cur + body.size();
    if (body.size() < kSidecarMagicBytes ||
        std::memcmp(cur, kSidecarMagic, kSidecarMagicBytes) != 0) {
      if (error != nullptr) *error = "bad sidecar magic: " + idx_path;
      return nullptr;
    }
    cur += kSidecarMagicBytes;
    uint64_t data_checksum = 0;
    if (!GetU64(&cur, end, &part.num_objects) ||
        !GetU64(&cur, end, &part.num_blocks) ||
        !GetU64(&cur, end, &part.num_bins) ||
        !GetU64(&cur, end, &part.payload_bytes) ||
        !GetU64(&cur, end, &data_checksum) ||
        !part.first_bin.ParseFrom(&cur, end) ||
        part.first_bin.size() != part.num_blocks) {
      if (error != nullptr) *error = "corrupt sidecar: " + idx_path;
      return nullptr;
    }
    if (part.num_blocks == 0) continue;
    const std::string dat_path = DataPath(dir, p, version);
    // The data file has no footer (pages must stay page-aligned); its
    // content checksum lives in the sidecar instead, and Open verifies the
    // whole file so a torn data page can never serve garbage lookups.
    std::string data;
    if (!durable::ReadFileContents(dat_path, &data)) {
      if (error != nullptr) *error = "missing data file: " + dat_path;
      return nullptr;
    }
    if (data.size() != part.num_blocks * options.page_bytes) {
      if (error != nullptr) *error = "data file size mismatch: " + dat_path;
      return nullptr;
    }
    Checksum64 c;
    c.Update(data);
    if (c.Digest() != data_checksum) {
      durable::NoteTornDetected();
      if (error != nullptr) *error = "torn data file: " + dat_path;
      return nullptr;
    }
    part.fd = ::open(dat_path.c_str(), O_RDONLY);
    if (part.fd < 0) {
      if (error != nullptr) *error = "missing data file: " + dat_path;
      return nullptr;
    }
  }
  return s;
}

PackedObjectStore::~PackedObjectStore() {
  for (Partition& part : parts_) {
    if (part.fd >= 0) ::close(part.fd);
  }
}

Status PackedObjectStore::ReadPage(int partition, uint64_t page,
                                   char* dst) const {
  const Partition& part = parts_[partition];
  if (part.fd < 0 || page >= part.num_blocks) {
    return Status::OutOfRange("packed store: page " + std::to_string(page) +
                              " out of range for partition " +
                              std::to_string(partition));
  }
  const uint64_t n = options_.page_bytes;
  uint64_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(part.fd, dst + done, n - done,
                              static_cast<off_t>(page * n + done));
    if (r < 0) {
      if (errno == EINTR) continue;  // Interrupted, not failed: retry.
      return Status::Internal("packed store: pread failed for partition " +
                              std::to_string(partition) + " page " +
                              std::to_string(page) + ": " +
                              std::strerror(errno));
    }
    if (r == 0) {
      // EOF inside a page the sidecar says exists: the file was truncated
      // underneath us after Open's full-file verification.
      durable::NoteTornDetected();
      return Status::DataLoss(
          "packed store: truncated page " + std::to_string(page) +
          " in partition " + std::to_string(partition) + " (short read at " +
          std::to_string(done) + "/" + std::to_string(n) + " bytes)");
    }
    done += static_cast<uint64_t>(r);
  }
  return Status::OK();
}

Status PackedObjectStore::Get(std::string_view key,
                              std::vector<IndexValue>* out) const {
  DirectPageReader reader(this);
  LookupInfo info;
  return LookupWith(&reader, key, out, &info);
}

Status PackedObjectStore::GetPaged(std::string_view key,
                                   std::vector<IndexValue>* out,
                                   LookupInfo* info) const {
  DirectPageReader reader(this);
  return LookupWith(&reader, key, out, info);
}

Status PackedObjectStore::LookupWith(PageReader* reader, std::string_view key,
                                     std::vector<IndexValue>* out,
                                     LookupInfo* info) const {
  out->clear();
  *info = LookupInfo();
  if (key.empty()) return Status::InvalidArgument("empty key");
  const int partition = scheme_->PartitionOf(key);
  info->partition = partition;
  const Partition& part = parts_[partition];
  if (part.num_objects == 0 || part.num_blocks == 0) return Status::NotFound();

  const uint64_t hash = Hash64(key);
  const uint64_t bin = FastRange64(hash, part.num_bins);
  const int64_t pred = part.first_bin.Predecessor(bin);
  if (pred < 0) return Status::NotFound();  // Every block starts past `bin`.
  // The candidate range: objects of `bin` can start no earlier than one
  // block before the first block whose first-bin reaches `bin`.
  const size_t lower = part.first_bin.LowerBound(bin);
  const uint64_t q = lower == 0 ? 0 : static_cast<uint64_t>(lower) - 1;
  const uint64_t p = static_cast<uint64_t>(pred);
  info->first_block = q;

  const uint64_t page_bytes = options_.page_bytes;
  const uint64_t used = usable_;
  LookupPages pages;
  for (uint64_t k = q; k <= p; ++k) {
    const char* data = nullptr;
    const Status rs = reader->Read(partition, k, &data);
    if (!rs.ok()) return rs;
    pages.push_back(data);
  }
  uint64_t last_page = p;
  info->pages = p - q + 1;

  // First object start at or after block q. A block with no start is fully
  // covered by an object that began earlier (and whose bin is < `bin` by
  // the choice of q), so skipping it is safe. With no start in [q, p] the
  // scan below never runs.
  uint64_t pg = p + 1;  // Cursor: page, and offset in its object stream.
  uint64_t off = 0;
  uint16_t first_start = kNoObjectStarts;
  for (uint64_t k = q; k <= p; ++k) {
    first_start = LoadU16(pages[k - q] + page_bytes - 2);
    if (first_start != kNoObjectStarts) {
      pg = k;
      break;
    }
  }
  // Moves the cursor `n` stream bytes forward; divides only when the move
  // leaves the current page, so most objects cost none.
  auto advance = [&](uint64_t n) {
    off += n;
    if (off >= used) {
      pg += off / used;
      off %= used;
    }
  };
  if (first_start != kNoObjectStarts) advance(first_start);

  // Returns page `k`, fetching pages past the prefetched range (an object
  // straddling block p). Propagates the reader's status so a torn page
  // (DataLoss) stays distinguishable from a malformed object stream
  // (Internal).
  auto page_at = [&](uint64_t k, const char** data) -> Status {
    if (k >= part.num_blocks) {
      return Status::Internal("packed store: object stream overruns data file");
    }
    while (k > last_page) {
      const char* next = nullptr;
      const Status rs = reader->Read(partition, last_page + 1, &next);
      if (!rs.ok()) return rs;
      ++last_page;
      pages.push_back(next);
      ++info->pages;
    }
    *data = pages[k - q];
    return Status::OK();
  };
  // Hands the `n` stream bytes at the cursor to `consume` one in-page chunk
  // at a time, advancing the cursor.
  auto walk = [&](uint64_t n, auto&& consume) -> Status {
    while (n > 0) {
      const char* data = nullptr;
      if (const Status rs = page_at(pg, &data); !rs.ok()) return rs;
      const uint64_t take = std::min(n, used - off);
      consume(data + off, take);
      advance(take);
      n -= take;
    }
    return Status::OK();
  };

  // Scan objects starting in blocks [q, p]; the stream is bin-ordered, so
  // the first object whose bin exceeds ours ends the scan. A header that
  // fits in its page is read in place; one straddling two pages is copied.
  char straddled[kObjectHeaderBytes] = {};
  while (pg <= p && pg * used + off < part.payload_bytes) {
    const char* hdr = pages[pg - q] + off;
    if (off + kObjectHeaderBytes <= used) {
      advance(kObjectHeaderBytes);
    } else {
      char* dst = straddled;
      const Status rs =
          walk(kObjectHeaderBytes, [&](const char* s, uint64_t n) {
            std::memcpy(dst, s, n);
            dst += n;
          });
      if (!rs.ok()) return rs;
      hdr = straddled;
    }
    const uint64_t obj_hash = LoadU64(hdr);
    const uint32_t key_len = LoadU32(hdr + 8);
    const uint32_t payload_len = LoadU32(hdr + 12);
    if (FastRange64(obj_hash, part.num_bins) > bin) break;
    if (obj_hash == hash && key_len == key.size()) {
      bool same = true;
      const char* want = key.data();
      const Status ks = walk(key_len, [&](const char* s, uint64_t n) {
        same = same && std::memcmp(s, want, n) == 0;
        want += n;
      });
      if (!ks.ok()) return ks;
      if (same) {
        if (payload_len > 0 && off + payload_len <= used) {
          const char* data = nullptr;
          if (const Status rs = page_at(pg, &data); !rs.ok()) return rs;
          return DecodeValues(std::string_view(data + off, payload_len), out);
        }
        std::string payload;
        payload.reserve(payload_len);
        const Status ps = walk(payload_len, [&](const char* s, uint64_t n) {
          payload.append(s, n);
        });
        if (!ps.ok()) return ps;
        return DecodeValues(payload, out);
      }
      advance(payload_len);  // Arithmetic skip: no page fetch for a miss.
    } else {
      advance(static_cast<uint64_t>(key_len) + payload_len);
    }
  }
  return Status::NotFound();
}

uint64_t PackedObjectStore::num_objects() const {
  uint64_t n = 0;
  for (const Partition& part : parts_) n += part.num_objects;
  return n;
}

uint64_t PackedObjectStore::num_blocks() const {
  uint64_t n = 0;
  for (const Partition& part : parts_) n += part.num_blocks;
  return n;
}

uint64_t PackedObjectStore::index_bits() const {
  uint64_t n = 0;
  for (const Partition& part : parts_) n += part.first_bin.bits_used();
  return n;
}

// --- PackedStoreBuilder

PackedStoreBuilder::PackedStoreBuilder(PackedStoreOptions options)
    : options_(std::move(options)), staged_(&arena_) {}

void PackedStoreBuilder::Add(std::string_view key, const IndexValue& value) {
  staged_.Append(key, value.data, value.extra_bytes, nullptr);
}

std::unique_ptr<PackedObjectStore> PackedStoreBuilder::Build(
    std::string* error) {
  if (!ValidatePackedStoreOptions(options_, error)) return nullptr;
  ::mkdir(options_.dir.c_str(), 0755);  // EEXIST is fine (rebuild).

  // A rebuild into an existing directory bumps the persisted generation so
  // fingerprint-keyed reuse artifacts built on the old contents die. The
  // new generation must also clear every part file already on disk — a
  // crashed earlier build may have left files one past the manifest's
  // generation, and reusing their names would commit over torn data.
  uint64_t version = 0;
  {
    PackedStoreOptions prior;
    uint64_t prior_version = 0;
    if (ParseManifest(options_.dir, &prior, &prior_version, nullptr)) {
      version = prior_version;
    }
    version = std::max(version, MaxGenerationInDir(options_.dir));
  }
  ++version;

  HashPartitionScheme scheme(options_.num_partitions, options_.num_nodes,
                             options_.replication);
  std::vector<std::vector<size_t>> by_part(options_.num_partitions);
  for (size_t i = 0; i < staged_.size(); ++i) {
    by_part[scheme.PartitionOf(staged_.KeyAt(i))].push_back(i);
  }

  const uint64_t used = UsablePageBytes(options_);
  const uint64_t page_bytes = options_.page_bytes;
  for (int p = 0; p < options_.num_partitions; ++p) {
    std::vector<size_t>& idx = by_part[p];
    // Hash order IS bin order (FastRange64 is monotone in the hash), so one
    // sort produces the packed layout for any bin count. Stable: values of
    // a repeated key keep insertion order.
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      const uint64_t ha = staged_.KeyHashAt(a);
      const uint64_t hb = staged_.KeyHashAt(b);
      if (ha != hb) return ha < hb;
      return staged_.KeyAt(a) < staged_.KeyAt(b);
    });

    // Encode the object stream: one object per distinct key.
    std::string payload;
    std::vector<std::pair<uint64_t, uint64_t>> starts;  // (offset, hash)
    uint64_t num_objects = 0;
    for (size_t i = 0; i < idx.size();) {
      size_t j = i;
      while (j < idx.size() &&
             staged_.KeyHashAt(idx[j]) == staged_.KeyHashAt(idx[i]) &&
             staged_.KeyAt(idx[j]) == staged_.KeyAt(idx[i])) {
        ++j;
      }
      const std::string_view key = staged_.KeyAt(idx[i]);
      std::string body;
      PutU32(&body, static_cast<uint32_t>(j - i));
      for (size_t v = i; v < j; ++v) {
        const std::string_view data = staged_.ValueAt(idx[v]);
        PutU32(&body, static_cast<uint32_t>(data.size()));
        body.append(data.data(), data.size());
        PutU64(&body, staged_.ExtraAt(idx[v]));
      }
      starts.emplace_back(payload.size(), staged_.KeyHashAt(idx[i]));
      PutU64(&payload, staged_.KeyHashAt(idx[i]));
      PutU32(&payload, static_cast<uint32_t>(key.size()));
      PutU32(&payload, static_cast<uint32_t>(body.size()));
      payload.append(key.data(), key.size());
      payload.append(body);
      ++num_objects;
      i = j;
    }

    const uint64_t num_blocks =
        payload.empty() ? 0 : (payload.size() + used - 1) / used;
    const uint64_t num_bins = num_blocks * options_.bins_per_block;

    // block → bin of the first object starting in it; a block with no
    // start (covered by a spanning object) carries the last started bin,
    // keeping the sequence monotone.
    std::vector<uint64_t> first_bin(num_blocks, 0);
    std::vector<uint16_t> trailers(num_blocks, kNoObjectStarts);
    size_t si = 0;
    uint64_t carried = 0;
    for (uint64_t k = 0; k < num_blocks; ++k) {
      bool saw_start = false;
      while (si < starts.size() && starts[si].first < (k + 1) * used) {
        const uint64_t b = FastRange64(starts[si].second, num_bins);
        if (!saw_start) {
          first_bin[k] = b;
          trailers[k] = static_cast<uint16_t>(starts[si].first - k * used);
          saw_start = true;
        }
        carried = b;
        ++si;
      }
      if (!saw_start) first_bin[k] = carried;
    }
    EliasFanoSequence ef(first_bin);
    if (!ef.valid()) {
      if (error != nullptr) *error = "packed store: non-monotone bin layout";
      return nullptr;
    }

    // Data file: payload chunk, zero fill, u16 trailer per page.
    std::string data;
    data.reserve(num_blocks * page_bytes);
    for (uint64_t k = 0; k < num_blocks; ++k) {
      std::string page(page_bytes, '\0');
      const uint64_t off = k * used;
      const uint64_t n = std::min<uint64_t>(used, payload.size() - off);
      std::memcpy(page.data(), payload.data() + off, n);
      page[page_bytes - 2] = static_cast<char>(trailers[k] & 0xff);
      page[page_bytes - 1] = static_cast<char>((trailers[k] >> 8) & 0xff);
      data.append(page);
    }
    // Data pages must stay page-aligned, so the file carries no footer;
    // its content checksum goes into the sidecar and Open re-verifies it.
    Status ws = durable::AtomicWriteFile(DataPath(options_.dir, p, version),
                                         data, "store.data");
    if (!ws.ok()) {
      if (error != nullptr) *error = "packed store: " + ws.message();
      return nullptr;
    }

    Checksum64 data_sum;
    data_sum.Update(data);
    std::string sidecar(kSidecarMagic, kSidecarMagicBytes);
    PutU64(&sidecar, num_objects);
    PutU64(&sidecar, num_blocks);
    PutU64(&sidecar, num_bins);
    PutU64(&sidecar, payload.size());
    PutU64(&sidecar, data_sum.Digest());
    ef.AppendTo(&sidecar);
    durable::AppendFooter(&sidecar, version);
    ws = durable::AtomicWriteFile(IndexPath(options_.dir, p, version),
                                  sidecar, "store.sidecar");
    if (!ws.ok()) {
      if (error != nullptr) *error = "packed store: " + ws.message();
      return nullptr;
    }
  }

  // The manifest commits LAST: until its atomic rename lands, the prior
  // generation's manifest still points at fully-committed prior files, so
  // a crash anywhere above leaves the store loadable at the old version.
  std::string manifest = FormatManifest(options_, version);
  durable::AppendFooter(&manifest, version);
  const Status ws = durable::AtomicWriteFile(ManifestPath(options_.dir),
                                             manifest, "store.manifest");
  if (!ws.ok()) {
    if (error != nullptr) *error = "packed store: " + ws.message();
    return nullptr;
  }
  RemoveStaleGenerations(options_.dir, version);

  staged_.Clear();
  arena_.Reset();
  return PackedObjectStore::Open(options_.dir, error);
}

}  // namespace store
}  // namespace efind

// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "mapreduce/record_batch.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace efind {
namespace {

// Attachment wire form: LEB128 varints for every count and length, raw
// bytes for every string.
//
//   attachment := varint(#keys) key_list*  varint(#results) result_list*
//                 u8(has_saved_key) string(saved_key)
//   key_list   := varint(#keys) string*
//   result_list:= varint(#keys) (varint(#values) value*)*
//   value      := string(data) varint(extra_bytes)
//   string     := varint(length) bytes
//
// Every encoding is at least four bytes long, so a zero wire length marks
// a record without attachment.

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

char* PutVarint(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

char* PutString(char* p, std::string_view s) {
  p = PutVarint(p, s.size());
  if (!s.empty()) std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

size_t StringSize(std::string_view s) {
  return VarintSize(s.size()) + s.size();
}

// Wire length of `a`; adds `a.size_bytes()` to `*logical` in the same walk.
size_t WireSize(const RecordAttachment& a, uint64_t* logical) {
  size_t n = VarintSize(a.keys.size()) + VarintSize(a.results.size()) + 1 +
             StringSize(a.saved_key);
  for (const auto& ik_list : a.keys) {
    n += VarintSize(ik_list.size());
    for (const auto& ik : ik_list) {
      n += StringSize(ik);
      *logical += ik.size();
    }
  }
  for (const auto& per_key : a.results) {
    n += VarintSize(per_key.size());
    for (const auto& ivs : per_key) {
      n += VarintSize(ivs.size());
      for (const IndexValue& iv : ivs) {
        n += StringSize(iv.data) + VarintSize(iv.extra_bytes);
        *logical += iv.size_bytes();
      }
    }
  }
  return n;
}

void Encode(const RecordAttachment& a, char* p) {
  p = PutVarint(p, a.keys.size());
  for (const auto& ik_list : a.keys) {
    p = PutVarint(p, ik_list.size());
    for (const auto& ik : ik_list) p = PutString(p, ik);
  }
  p = PutVarint(p, a.results.size());
  for (const auto& per_key : a.results) {
    p = PutVarint(p, per_key.size());
    for (const auto& ivs : per_key) {
      p = PutVarint(p, ivs.size());
      for (const IndexValue& iv : ivs) {
        p = PutString(p, iv.data);
        p = PutVarint(p, iv.extra_bytes);
      }
    }
  }
  *p++ = a.has_saved_key ? 1 : 0;
  PutString(p, a.saved_key);
}

// Reads back what `Encode` wrote. The bytes come from this process's own
// `Encode`, so they are trusted and not bounds-checked.
class WireReader {
 public:
  explicit WireReader(const char* p) : p_(p) {}

  uint64_t Varint() {
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const auto byte = static_cast<unsigned char>(*p_++);
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if (byte < 0x80) return v;
    }
  }
  std::string String() {
    const size_t n = Varint();
    std::string s(p_, n);
    p_ += n;
    return s;
  }
  bool Byte() { return *p_++ != 0; }

 private:
  const char* p_;
};

std::shared_ptr<const RecordAttachment> Decode(const char* p) {
  auto a = std::make_shared<RecordAttachment>();
  WireReader in(p);
  a->keys.resize(in.Varint());
  for (auto& ik_list : a->keys) {
    ik_list.resize(in.Varint());
    for (auto& ik : ik_list) ik = in.String();
  }
  a->results.resize(in.Varint());
  for (auto& per_key : a->results) {
    per_key.resize(in.Varint());
    for (auto& ivs : per_key) {
      ivs.resize(in.Varint());
      for (IndexValue& iv : ivs) {
        iv.data = in.String();
        iv.extra_bytes = in.Varint();
      }
    }
  }
  a->has_saved_key = in.Byte();
  a->saved_key = in.String();
  return a;
}

}  // namespace

void RecordBatch::Reserve(size_t records, size_t bytes) {
  if (records > entries_cap_) GrowEntries(records);
  if (bytes > buf_cap_) EnsureRoom(bytes - buf_size_);
}

void RecordBatch::GrowEntries(size_t min_cap) {
  size_t cap = std::max<size_t>(min_cap, 16);
  cap = std::max(cap, entries_cap_ * 2);
  if (arena_ != nullptr) {
    Entry* grown = static_cast<Entry*>(
        arena_->Allocate(cap * sizeof(Entry), alignof(Entry)));
    if (entries_size_ > 0) {
      std::memcpy(grown, entries_, entries_size_ * sizeof(Entry));
    }
    entries_ = grown;
  } else {
    auto grown = std::make_unique<Entry[]>(cap);
    ++heap_allocations_;
    if (entries_size_ > 0) {
      std::memcpy(grown.get(), entries_, entries_size_ * sizeof(Entry));
    }
    entries_owned_ = std::move(grown);
    entries_ = entries_owned_.get();
  }
  entries_cap_ = cap;
}

char* RecordBatch::EnsureRoom(size_t bytes) {
  if (buf_size_ + bytes > buf_cap_) {
    size_t cap = std::max<size_t>(buf_cap_ * 2, 4096);
    cap = std::max(cap, buf_size_ + bytes);
    if (arena_ != nullptr) {
      // The old slice is abandoned to the arena's bulk free.
      char* grown = arena_->AllocateBytes(cap);
      if (buf_size_ > 0) std::memcpy(grown, buf_, buf_size_);
      buf_ = grown;
    } else {
      auto grown = std::make_unique<char[]>(cap);
      ++heap_allocations_;
      if (buf_size_ > 0) std::memcpy(grown.get(), buf_, buf_size_);
      owned_ = std::move(grown);
      buf_ = owned_.get();
    }
    buf_cap_ = cap;
  }
  return buf_ + buf_size_;
}

void RecordBatch::Append(std::string_view key, std::string_view value,
                         uint64_t extra_bytes,
                         const RecordAttachment* attachment,
                         uint64_t key_hash) {
  uint64_t attach_logical = 0;
  const size_t attach_len =
      attachment != nullptr ? WireSize(*attachment, &attach_logical) : 0;
  char* dst = EnsureRoom(key.size() + value.size() + attach_len);
  if (!key.empty()) std::memcpy(dst, key.data(), key.size());
  if (!value.empty()) std::memcpy(dst + key.size(), value.data(), value.size());
  if (attachment != nullptr) {
    Encode(*attachment, dst + key.size() + value.size());
  }

  Entry e;
  e.key_off = buf_size_;
  e.key_len = static_cast<uint32_t>(key.size());
  e.value_len = static_cast<uint32_t>(value.size());
  e.attach_len = static_cast<uint32_t>(attach_len);
  e.key_hash = key_hash;
  e.extra_bytes = extra_bytes;
  e.logical_bytes = key.size() + value.size() + extra_bytes + attach_logical;
  buf_size_ += key.size() + value.size() + attach_len;
  payload_bytes_ += e.logical_bytes;
  EnsureEntryRoom();
  entries_[entries_size_++] = e;
}

void RecordBatch::AppendFrom(const RecordBatch& other, size_t i) {
  const Entry& src = other.entries_[i];
  const size_t len =
      static_cast<size_t>(src.key_len) + src.value_len + src.attach_len;
  char* dst = EnsureRoom(len);
  std::memcpy(dst, other.buf_ + src.key_off, len);

  Entry e = src;
  e.key_off = buf_size_;
  buf_size_ += len;
  payload_bytes_ += e.logical_bytes;
  EnsureEntryRoom();
  entries_[entries_size_++] = e;
}

std::shared_ptr<const RecordBatch> RecordBatch::Slice(size_t from,
                                                      size_t to) const {
  auto slice = std::make_shared<RecordBatch>();
  if (from >= to) return slice;
  // Entries are appended back to back, so records [from, to) occupy one
  // contiguous byte range of the buffer.
  const Entry& last = entries_[to - 1];
  const uint64_t begin = entries_[from].key_off;
  const uint64_t end = last.key_off + last.key_len + last.value_len +
                       last.attach_len;
  slice->Reserve(to - from, end - begin);
  if (end > begin) std::memcpy(slice->buf_, buf_ + begin, end - begin);
  slice->buf_size_ = end - begin;
  for (size_t i = from; i < to; ++i) {
    Entry e = entries_[i];
    e.key_off -= begin;
    slice->payload_bytes_ += e.logical_bytes;
    slice->entries_[slice->entries_size_++] = e;
  }
  return slice;
}

RecordBatch::View RecordBatch::at(size_t i) const {
  const Entry& e = entries_[i];
  View v;
  v.key = std::string_view(buf_ + e.key_off, e.key_len);
  v.value = std::string_view(buf_ + e.key_off + e.key_len, e.value_len);
  v.extra_bytes = e.extra_bytes;
  v.logical_bytes = e.logical_bytes;
  return v;
}

Record RecordBatch::MaterializeRecord(size_t i) const {
  const Entry& e = entries_[i];
  Record r(std::string(KeyAt(i)), std::string(ValueAt(i)), e.extra_bytes);
  if (e.attach_len > 0) {
    r.attachment = Decode(buf_ + e.key_off + e.key_len + e.value_len);
  }
  return r;
}

std::vector<Record> RecordBatch::ToRecords() const {
  std::vector<Record> out;
  out.reserve(entries_size_);
  for (size_t i = 0; i < entries_size_; ++i) {
    out.push_back(MaterializeRecord(i));
  }
  return out;
}

RecordBatch RecordBatch::FromRecords(const std::vector<Record>& records,
                                     Arena* arena) {
  RecordBatch batch(arena);
  size_t bytes = 0;
  for (const Record& r : records) bytes += r.key.size() + r.value.size();
  batch.Reserve(records.size(), bytes);
  for (const Record& r : records) batch.Append(r);
  return batch;
}

uint64_t RecordBatch::ContentChecksum(uint64_t seed) const {
  Checksum64 sum(seed);
  UpdateChecksum(&sum);
  return sum.Digest();
}

void RecordBatch::UpdateChecksum(Checksum64* sum) const {
  for (size_t i = 0; i < entries_size_; ++i) {
    ChecksumRecord(sum, KeyAt(i), ValueAt(i), entries_[i].extra_bytes);
  }
}

void RecordBatch::Clear() {
  entries_size_ = 0;
  buf_size_ = 0;
  payload_bytes_ = 0;
}

size_t InputSplit::num_records() const {
  return batch ? batch->size() : records.size();
}

uint64_t InputSplit::size_bytes() const {
  if (batch) return batch->payload_bytes();
  uint64_t n = 0;
  for (const auto& r : records) n += r.size_bytes();
  return n;
}

void InputSplit::Materialize() {
  if (!batch) return;
  records = batch->ToRecords();
  batch.reset();
}

void InputSplit::AppendRecordsTo(std::vector<Record>* out) const {
  if (!batch) {
    out->insert(out->end(), records.begin(), records.end());
    return;
  }
  out->reserve(out->size() + batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    out->push_back(batch->MaterializeRecord(i));
  }
}

}  // namespace efind

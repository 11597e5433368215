#include "store/elias_fano.h"

#include <bit>
#include <cstring>

#include "common/framing.h"

namespace efind {
namespace store {

namespace {

// Reads `width` bits starting at bit `pos` of the packed word array.
uint64_t ReadBits(const std::vector<uint64_t>& words, size_t pos,
                  uint32_t width) {
  if (width == 0) return 0;
  const size_t word = pos >> 6;
  const uint32_t shift = static_cast<uint32_t>(pos & 63);
  uint64_t v = words[word] >> shift;
  if (shift + width > 64 && word + 1 < words.size()) {
    v |= words[word + 1] << (64 - shift);
  }
  const uint64_t mask =
      width >= 64 ? ~0ULL : ((uint64_t{1} << width) - 1);
  return v & mask;
}

// Writes `width` low bits of `v` at bit `pos` of the packed word array.
void WriteBits(std::vector<uint64_t>* words, size_t pos, uint32_t width,
               uint64_t v) {
  if (width == 0) return;
  const size_t word = pos >> 6;
  const uint32_t shift = static_cast<uint32_t>(pos & 63);
  (*words)[word] |= v << shift;
  if (shift + width > 64 && word + 1 < words->size()) {
    (*words)[word + 1] |= v >> (64 - shift);
  }
}

}  // namespace

EliasFanoSequence::EliasFanoSequence(const std::vector<uint64_t>& values) {
  n_ = values.size();
  if (n_ == 0) return;
  for (size_t i = 1; i < n_; ++i) {
    if (values[i] < values[i - 1]) {
      valid_ = false;
      n_ = 0;
      return;
    }
  }
  const uint64_t universe = values.back() + 1;
  // l = floor(log2(u/n)), clamped to [0, 63]. universe >= 1 and n >= 1.
  low_bits_ = 0;
  if (universe / n_ >= 2) {
    low_bits_ = 63 - static_cast<uint32_t>(
                         std::countl_zero(universe / n_));
  }
  low_.assign((n_ * low_bits_ + 63) / 64 + 1, 0);
  const uint64_t max_high = values.back() >> low_bits_;
  high_.assign((n_ + max_high + 1 + 63) / 64, 0);
  for (size_t i = 0; i < n_; ++i) {
    const uint64_t low = low_bits_ >= 64
                             ? values[i]
                             : values[i] & ((uint64_t{1} << low_bits_) - 1);
    WriteBits(&low_, i * low_bits_, low_bits_, low);
    const uint64_t high = values[i] >> low_bits_;
    const size_t bitpos = i + high;
    high_[bitpos >> 6] |= uint64_t{1} << (bitpos & 63);
  }
  BuildRank();
}

void EliasFanoSequence::BuildRank() {
  high_rank_.assign(high_.size() + 1, 0);
  uint32_t total = 0;
  for (size_t w = 0; w < high_.size(); ++w) {
    high_rank_[w] = total;
    total += static_cast<uint32_t>(std::popcount(high_[w]));
  }
  high_rank_[high_.size()] = total;
}

size_t EliasFanoSequence::Select1(size_t i) const {
  // Binary search the per-word rank directory for the word holding the i-th
  // set bit, then scan inside the word. O(log words + 64).
  size_t lo = 0, hi = high_.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (high_rank_[mid] <= i) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  uint64_t word = high_[lo];
  uint32_t remaining = static_cast<uint32_t>(i - high_rank_[lo]);
  while (remaining > 0) {
    word &= word - 1;  // Clear lowest set bit.
    --remaining;
  }
  return lo * 64 + static_cast<size_t>(std::countr_zero(word));
}

uint64_t EliasFanoSequence::Get(size_t i) const {
  const size_t pos = Select1(i);
  const uint64_t high = static_cast<uint64_t>(pos - i);
  return (high << low_bits_) | ReadBits(low_, i * low_bits_, low_bits_);
}

int64_t EliasFanoSequence::Predecessor(uint64_t value) const {
  if (n_ == 0 || Get(0) > value) return -1;
  // Largest i with Get(i) <= value; Get is monotone non-decreasing.
  size_t lo = 0, hi = n_;  // Invariant: Get(lo) <= value, Get(hi) > value.
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (Get(mid) <= value) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<int64_t>(lo);
}

size_t EliasFanoSequence::LowerBound(uint64_t value) const {
  if (n_ == 0) return 0;
  if (Get(0) >= value) return 0;
  // Smallest i with Get(i) >= value.
  size_t lo = 0, hi = n_;  // Invariant: Get(lo) < value, Get(hi) >= value.
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (Get(mid) < value) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

uint64_t EliasFanoSequence::bits_used() const {
  if (n_ == 0) return 0;
  return static_cast<uint64_t>(n_) * low_bits_ +
         static_cast<uint64_t>(high_.size()) * 64;
}

void EliasFanoSequence::AppendTo(std::string* out) const {
  PutU64(out, n_);
  PutU64(out, low_bits_);
  PutU64(out, low_.size());
  for (uint64_t w : low_) PutU64(out, w);
  PutU64(out, high_.size());
  for (uint64_t w : high_) PutU64(out, w);
}

bool EliasFanoSequence::ParseFrom(const char** data, const char* end) {
  *this = EliasFanoSequence();
  uint64_t n = 0, low_bits = 0, low_words = 0, high_words = 0;
  if (!GetU64(data, end, &n) || !GetU64(data, end, &low_bits)) return false;
  if (low_bits > 63) return false;
  if (!GetU64(data, end, &low_words)) return false;
  // Cross-check the word counts against n before allocating.
  if (n > 0 && low_words != (n * low_bits + 63) / 64 + 1) return false;
  if (static_cast<uint64_t>(end - *data) < low_words * 8) return false;
  std::vector<uint64_t> low(low_words);
  for (uint64_t i = 0; i < low_words; ++i) {
    if (!GetU64(data, end, &low[i])) return false;
  }
  if (!GetU64(data, end, &high_words)) return false;
  if (static_cast<uint64_t>(end - *data) < high_words * 8) return false;
  std::vector<uint64_t> high(high_words);
  for (uint64_t i = 0; i < high_words; ++i) {
    if (!GetU64(data, end, &high[i])) return false;
  }
  n_ = static_cast<size_t>(n);
  low_bits_ = static_cast<uint32_t>(low_bits);
  low_ = std::move(low);
  high_ = std::move(high);
  BuildRank();
  // The high bitvector must contain exactly n set bits.
  if (n_ > 0 && high_rank_.back() != n_) {
    *this = EliasFanoSequence();
    valid_ = false;
    return false;
  }
  return true;
}

}  // namespace store
}  // namespace efind

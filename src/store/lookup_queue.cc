// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "store/lookup_queue.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace efind {
namespace store {

namespace {

/// Page source that caches every page it reads for the duration of one
/// flush. Cache misses are exactly the distinct (partition, page) pairs the
/// batch touches — the coalesced physical read count. Pages are read
/// straight into a flush-owned arena and lent out in place, so a hit costs
/// one probe of a flat open-addressing index and no copy.
class CachingPageReader : public PackedObjectStore::PageReader {
 public:
  CachingPageReader(const PackedObjectStore* store, size_t lookups)
      : store_(store),
        pages_(std::max<size_t>(kBlockBytes, 2 * (store->page_bytes() + 1))) {
    size_t n = 16;
    while (n < 4 * lookups) n *= 2;
    index_.resize(n);
  }

  Status Read(int partition, uint64_t page, const char** data) override {
    // Pages are block indices well under 2^40; partitions are small ints.
    const uint64_t key = (static_cast<uint64_t>(partition) << 40) | page;
    size_t i = Slot(key);
    for (; index_[i].page != nullptr; i = (i + 1) & (index_.size() - 1)) {
      if (index_[i].key == key) {
        *data = index_[i].page;
        return Status::OK();
      }
    }
    char* dst = pages_.AllocateBytes(store_->page_bytes());
    const Status s = store_->ReadPage(partition, page, dst);
    if (!s.ok()) return s;  // Failed pages are never cached.
    index_[i] = Entry{key, dst};
    ++misses_;
    if (2 * misses_ > index_.size()) Grow();
    *data = dst;
    return Status::OK();
  }

  uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    uint64_t key = 0;
    const char* page = nullptr;  // Null marks an empty entry.
  };

  size_t Slot(uint64_t key) const {
    return Mix64(key) & (index_.size() - 1);
  }

  /// Doubles the index (load stays <= 1/2, so probes always terminate).
  void Grow() {
    const std::vector<Entry> old = std::move(index_);
    index_.assign(2 * old.size(), Entry());
    for (const Entry& e : old) {
      if (e.page == nullptr) continue;
      size_t i = Slot(e.key);
      while (index_[i].page != nullptr) i = (i + 1) & (index_.size() - 1);
      index_[i] = e;
    }
  }

  /// Buffer block size (at least two pages, the arena's bump limit). Small
  /// blocks are recycled from the heap's free chunks flush after flush; a
  /// block sized to a whole deep batch would grow the heap instead.
  static constexpr size_t kBlockBytes = 32 * 1024;

  const PackedObjectStore* store_;
  Arena pages_;
  uint64_t misses_ = 0;
  std::vector<Entry> index_;  // Power-of-two size.
};

}  // namespace

uint64_t BatchedLookupQueue::Submit(const std::string& key) {
  const uint64_t ticket = next_ticket_++;
  pending_.emplace_back(ticket, key);
  return ticket;
}

FlushOutcome BatchedLookupQueue::Flush() {
  FlushOutcome outcome;
  if (pending_.empty()) return outcome;
  CachingPageReader reader(store_, pending_.size());
  outcome.completions.reserve(pending_.size());
  for (const auto& [ticket, key] : pending_) {
    LookupCompletion c;
    c.ticket = ticket;
    PackedObjectStore::LookupInfo info;
    const Status s = store_->LookupWith(&reader, key, &c.values, &info);
    c.found = s.ok();
    c.error = !s.ok() && !s.IsNotFound();
    if (c.error) c.values.clear();
    c.pages = info.pages;
    c.partition = info.partition;
    c.first_block = info.first_block;
    outcome.uncoalesced_pages += info.pages;
    outcome.completions.push_back(std::move(c));
  }
  pending_.clear();
  outcome.distinct_pages = reader.misses();
  // Fixed out-of-order delivery: storage order, then submission order —
  // the page-cache contents above are order-independent (a set), so the
  // whole outcome is a pure function of the submitted key multiset.
  std::sort(outcome.completions.begin(), outcome.completions.end(),
            [](const LookupCompletion& a, const LookupCompletion& b) {
              if (a.partition != b.partition) return a.partition < b.partition;
              if (a.first_block != b.first_block) {
                return a.first_block < b.first_block;
              }
              return a.ticket < b.ticket;
            });
  return outcome;
}

}  // namespace store
}  // namespace efind

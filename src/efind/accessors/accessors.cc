#include "efind/accessors/accessors.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "store/lookup_queue.h"

namespace efind {

Status KvIndexAccessor::Lookup(const std::string& ik,
                               std::vector<IndexValue>* out) {
  out->clear();
  return store_->Get(ik, out);
}

Status BTreeIndexAccessor::Lookup(const std::string& ik,
                                  std::vector<IndexValue>* out) {
  out->clear();
  std::string value;
  const Status status = tree_->Get(ik, &value);
  if (!status.ok()) return status;
  out->emplace_back(std::move(value));
  return Status::OK();
}

Status RTreeKnnAccessor::Lookup(const std::string& ik,
                                std::vector<IndexValue>* out) {
  out->clear();
  double x = 0, y = 0;
  if (!DecodePoint(ik, &x, &y)) {
    return Status::InvalidArgument("bad point key: " + ik);
  }
  for (const SpatialPoint& p : index_->KNearest(x, y, k_)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ":%.17g,%.17g", p.id, p.x,
                  p.y);
    out->emplace_back(std::string(buf), per_result_extra_bytes_);
  }
  return Status::OK();
}

Status PackedStoreAccessor::Lookup(const std::string& ik,
                                   std::vector<IndexValue>* out) {
  out->clear();
  return store_->Get(ik, out);
}

uint64_t PackedStoreAccessor::ConfigFingerprint() const {
  // The on-disk geometry decides which pages a lookup touches (and hence
  // every charge downstream), so all of it splits the reuse equivalence
  // class. `fill` is folded via its bit pattern: any change changes it.
  const store::PackedStoreOptions& o = store_->options();
  uint64_t fp = Hash64(name());
  fp = Mix64(fp ^ Mix64(o.page_bytes));
  uint64_t fill_bits = 0;
  std::memcpy(&fill_bits, &o.fill, sizeof(fill_bits));
  fp = Mix64(fp ^ Mix64(fill_bits));
  fp = Mix64(fp ^ Mix64(o.bins_per_block));
  fp = Mix64(fp ^ Mix64(static_cast<uint64_t>(o.num_partitions)));
  fp = Mix64(fp ^ Mix64(static_cast<uint64_t>(o.replication)));
  return fp;
}

std::unique_ptr<store::BatchedLookupHandle> PackedStoreAccessor::NewBatch()
    const {
  return std::make_unique<store::BatchedLookupQueue>(store_);
}

Status InvertedIndexAccessor::Lookup(const std::string& ik,
                                     std::vector<IndexValue>* out) {
  out->clear();
  std::vector<Posting> postings;
  const Status status = index_->Lookup(ik, &postings);
  if (!status.ok()) return status;
  out->reserve(postings.size());
  for (const Posting& p : postings) {
    out->emplace_back(std::to_string(p.doc_id) + ":" +
                      std::to_string(p.term_frequency));
  }
  return Status::OK();
}

}  // namespace efind

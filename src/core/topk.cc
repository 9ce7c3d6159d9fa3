#include "core/topk.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace halk::core {

TopKAccumulator::TopKAccumulator(int64_t k, SharedTopK* shared, int shard)
    : k_(k), shared_(shared), shard_(shard) {
  if (k_ > 0) heap_.reserve(static_cast<size_t>(k_));
}

void TopKAccumulator::Push(int64_t entity, float distance) {
  // NaN has no place in the (distance, entity) order: admitting it would
  // break the heap's strict weak ordering and evict true best entries.
  if (k_ <= 0 || std::isnan(distance)) return;
  // Strictly above k entries another shard scored: not in the merged top-k.
  if (shared_ != nullptr && distance > shared_->bound()) return;
  const ScoredEntity candidate{entity, distance};
  if (static_cast<int64_t>(heap_.size()) < k_) {
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), ScoredBefore);
  } else {
    // Full: the heap front is the current worst kept entry.
    if (!ScoredBefore(candidate, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), ScoredBefore);
    heap_.back() = candidate;
    std::push_heap(heap_.begin(), heap_.end(), ScoredBefore);
  }
  if (shared_ != nullptr) shared_->Offer(shard_, entity, distance);
}

std::vector<ScoredEntity> TopKAccumulator::Take() {
  std::sort(heap_.begin(), heap_.end(), ScoredBefore);
  return std::move(heap_);
}

SharedTopK::SharedTopK(int64_t k, int num_shards)
    : heap_(k),
      offered_(static_cast<size_t>(num_shards), false),
      bound_(k > 0 ? std::numeric_limits<float>::infinity()
                   : -std::numeric_limits<float>::infinity()) {}

void SharedTopK::Offer(int shard, int64_t entity, float distance) {
  MutexLock lock(mu_);
  if (closed_ && !offered_[static_cast<size_t>(shard)]) return;
  offered_[static_cast<size_t>(shard)] = true;
  heap_.Push(entity, distance);
  // order: the value is a bound whenever it is read; no other data is
  // published with it, and the offered/closed handshake is under mu_.
  bound_.store(heap_.bound(), std::memory_order_relaxed);
}

void SharedTopK::Close() {
  MutexLock lock(mu_);
  closed_ = true;
}

bool SharedTopK::offered(int shard) const {
  MutexLock lock(mu_);
  return offered_[static_cast<size_t>(shard)];
}

std::vector<ScoredEntity> TopKFromDistances(const std::vector<float>& dist,
                                            int64_t k, int64_t first_entity) {
  TopKAccumulator acc(k);
  for (size_t i = 0; i < dist.size(); ++i) {
    acc.Push(first_entity + static_cast<int64_t>(i), dist[i]);
  }
  return acc.Take();
}

std::vector<ScoredEntity> MergeTopK(
    const std::vector<std::vector<ScoredEntity>>& partials, int64_t k) {
  // (entry, partial index, offset) min-heap over the heads of each list.
  struct Head {
    ScoredEntity entry;
    size_t list;
    size_t offset;
  };
  auto later = [](const Head& a, const Head& b) {
    return ScoredBefore(b.entry, a.entry);  // min-heap
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heads(later);
  for (size_t l = 0; l < partials.size(); ++l) {
    if (!partials[l].empty()) heads.push({partials[l][0], l, 0});
  }
  std::vector<ScoredEntity> out;
  if (k > 0) out.reserve(static_cast<size_t>(k));
  while (!heads.empty() && static_cast<int64_t>(out.size()) < k) {
    Head head = heads.top();
    heads.pop();
    out.push_back(head.entry);
    const std::vector<ScoredEntity>& list = partials[head.list];
    if (head.offset + 1 < list.size()) {
      heads.push({list[head.offset + 1], head.list, head.offset + 1});
    }
  }
  return out;
}

}  // namespace halk::core

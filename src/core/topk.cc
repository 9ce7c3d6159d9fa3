#include "core/topk.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace halk::core {

TopKAccumulator::TopKAccumulator(int64_t k) : k_(k) {
  if (k_ > 0) heap_.reserve(static_cast<size_t>(k_));
}

void TopKAccumulator::Push(int64_t entity, float distance) {
  // NaN has no place in the (distance, entity) order: admitting it would
  // break the heap's strict weak ordering and evict true best entries.
  if (k_ <= 0 || std::isnan(distance)) return;
  const ScoredEntity candidate{entity, distance};
  if (static_cast<int64_t>(heap_.size()) < k_) {
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), ScoredBefore);
    return;
  }
  // Full: the heap front is the current worst kept entry.
  if (!ScoredBefore(candidate, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), ScoredBefore);
  heap_.back() = candidate;
  std::push_heap(heap_.begin(), heap_.end(), ScoredBefore);
}

std::vector<ScoredEntity> TopKAccumulator::Take() {
  std::sort(heap_.begin(), heap_.end(), ScoredBefore);
  return std::move(heap_);
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

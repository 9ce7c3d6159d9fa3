#ifndef HALK_CORE_TOPK_H_
#define HALK_CORE_TOPK_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace halk::core {

/// One ranked entity. Every top-k path in the system (brute-force
/// Evaluator::TopK, the serving engine, sharded scatter-gather) orders by
/// (distance, entity id): strictly ascending model distance with the lower
/// entity id winning ties, so rankings are bit-identical regardless of how
/// the entity table was partitioned or which code path scored it.
struct ScoredEntity {
  int64_t entity = 0;
  float distance = 0.0f;

  bool operator==(const ScoredEntity& other) const {
    return entity == other.entity && distance == other.distance;
  }
};

/// The canonical ranking order: (distance, entity) lexicographic.
inline bool ScoredBefore(const ScoredEntity& a, const ScoredEntity& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.entity < b.entity;
}

/// Bounded top-k accumulator: a max-heap of the k best (lowest-distance)
/// candidates seen so far. Push is O(1) for candidates that lose to the
/// current worst — the common case when streaming a large entity range —
/// and O(log k) otherwise. k <= 0 accepts nothing, and a NaN distance is
/// never ranked (ScoredBefore is no strict weak order over NaN).
class TopKAccumulator {
 public:
  explicit TopKAccumulator(int64_t k);

  void Push(int64_t entity, float distance);

  /// Drains the heap into an ascending (distance, entity) ranking and
  /// resets the accumulator. At most k entries; fewer when fewer
  /// candidates were pushed.
  std::vector<ScoredEntity> Take();

  int64_t k() const { return k_; }
  size_t size() const { return heap_.size(); }

  /// Admission bound: a candidate with distance strictly above it can never
  /// enter (one at the bound still can, on the entity-id tie-break). +inf
  /// while the heap is not yet full, so bound-aware scans prune nothing
  /// until k candidates are in.
  float bound() const {
    if (k_ <= 0) return -std::numeric_limits<float>::infinity();
    if (static_cast<int64_t>(heap_.size()) < k_) {
      return std::numeric_limits<float>::infinity();
    }
    return heap_.front().distance;
  }

 private:
  int64_t k_;
  std::vector<ScoredEntity> heap_;  // max-heap under ScoredBefore
};

/// Top-k over a dense distance vector where index i scores entity
/// `first_entity + i` (shards pass their range offset).
std::vector<ScoredEntity> TopKFromDistances(const std::vector<float>& dist,
                                            int64_t k,
                                            int64_t first_entity = 0);

/// K-way merge of partial rankings — each already ascending under
/// ScoredBefore, e.g. per-shard heaps — into one global ascending top-k.
/// Partials may be empty (an empty shard contributes nothing) and k may
/// exceed the total candidate count.
std::vector<ScoredEntity> MergeTopK(
    const std::vector<std::vector<ScoredEntity>>& partials, int64_t k);

}  // namespace halk::core

#endif  // HALK_CORE_TOPK_H_

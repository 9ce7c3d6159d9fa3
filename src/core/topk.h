#ifndef HALK_CORE_TOPK_H_
#define HALK_CORE_TOPK_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/mutex.h"

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

class SharedTopK;

/// Bounded top-k accumulator: a max-heap of the k best (lowest-distance)
/// candidates seen so far. Push is O(1) for candidates that lose to the
/// current worst — the common case when streaming a large entity range —
/// and O(log k) otherwise. k <= 0 accepts nothing, and a NaN distance is
/// never ranked (ScoredBefore is no strict weak order over NaN).
///
/// With a `shared` top-k (one per sharded request, see SharedTopK) the
/// accumulator ranks shard `shard`'s range against the whole request: every
/// candidate it admits is offered to the shared heap, a candidate strictly
/// above the shared bound is dropped, and bound() is the tighter of the
/// two. Take() then returns the shard's exact top-k among the candidates
/// that can still be in the merged top-k, so merging every shard's Take()
/// gives the request's exact top-k.
class TopKAccumulator {
 public:
  explicit TopKAccumulator(int64_t k, SharedTopK* shared = nullptr,
                           int shard = 0);

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
  /// until k candidates are in. With a shared top-k, the minimum of this
  /// heap's bound and the shared one.
  float bound() const;

 private:
  int64_t k_;
  SharedTopK* shared_;
  int shard_;
  std::vector<ScoredEntity> heap_;  // max-heap under ScoredBefore
};

/// One request's top-k across the shards that rank it in parallel: a
/// mutex-guarded heap of the k best (entity, distance) pairs the shards
/// have admitted, and an atomic mirror of its k-th distance that the
/// shards' scans read without the lock. Every published bound is the k-th
/// of k real, kernel-scored entries, so an entity strictly above it cannot
/// be in the merged top-k; ties at it survive.
///
/// Close() serves the request deadline: it shuts the heap to every shard
/// that has not offered yet, whose later offers are then ignored. The
/// coordinator must then wait for every shard that has offered, because
/// the bound the covered shards filtered against may hold its entries;
/// it may drop the rest, whose entries never reached the bound.
class SharedTopK {
 public:
  SharedTopK(int64_t k, int num_shards);

  SharedTopK(const SharedTopK&) = delete;
  SharedTopK& operator=(const SharedTopK&) = delete;

  /// The k-th best distance offered so far; +inf until k are in.
  float bound() const {
    // order: any value ever stored is a valid bound; nothing else is read
    // through it.
    return bound_.load(std::memory_order_relaxed);
  }

  /// Offers shard `shard`'s admitted candidate; ignored once the heap is
  /// closed to that shard.
  void Offer(int shard, int64_t entity, float distance);

  /// Closes the heap to every shard that has not offered yet. Idempotent.
  void Close();

  /// Whether `shard` has offered; final for every shard once Close() ran.
  bool offered(int shard) const;

 private:
  mutable Mutex mu_;
  TopKAccumulator heap_ HALK_GUARDED_BY(mu_);
  std::vector<bool> offered_ HALK_GUARDED_BY(mu_);
  bool closed_ HALK_GUARDED_BY(mu_) = false;
  // Own cache line: the shards' scans read it once per block, and the
  // offers that lock mu_ should not evict it from their caches.
  alignas(64) std::atomic<float> bound_;
};

inline float TopKAccumulator::bound() const {
  float own;
  if (k_ <= 0) {
    own = -std::numeric_limits<float>::infinity();
  } else if (static_cast<int64_t>(heap_.size()) < k_) {
    own = std::numeric_limits<float>::infinity();
  } else {
    own = heap_.front().distance;
  }
  return shared_ == nullptr ? own : std::min(own, shared_->bound());
}

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

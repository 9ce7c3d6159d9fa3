#ifndef HALK_SERVING_SUBTREE_CACHE_H_
#define HALK_SERVING_SUBTREE_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "query/fingerprint.h"

namespace halk::serving {

namespace internal {

/// Size of the heap block glibc's malloc hands out for an `n`-byte request
/// on a 64-bit target: an 8-byte header, 16-byte alignment and a 32-byte
/// minimum. Zero for an empty buffer, which allocates nothing.
constexpr size_t HeapBlockBytes(size_t n) {
  return n == 0 ? 0 : std::max<size_t>(32, (n + 8 + 15) / 16 * 16);
}

}  // namespace internal

/// Intermediate-result cache of the planner path: one embedding row
/// (center row ‖ length row, 2·d floats) per unique subtree fingerprint,
/// shared by every serving worker. Where the final-answer LRU cache only
/// pays off when whole queries repeat, this one hits whenever any
/// *subtree* repeats across requests, which diverse workloads do
/// constantly.
///
/// Unlike LruCache it is byte-budgeted — entries are small but unbounded
/// in count — and each entry is charged every heap block it takes
/// (ChargedBytes), so the budget bounds the memory the cache holds. It
/// also carries invalidation hooks: each entry is tagged with the sorted
/// relations of its subtree, so a KG update along relation r can evict
/// exactly the embeddings it staled with InvalidateRelation(r).
/// (Entity or parameter updates are coarser — use Clear().)
///
/// Admission is the caller's choice: the plan executor Puts a subtree only
/// once Admit reports its second sighting, so one-off subtrees never take
/// budget from recurring ones.
///
/// Thread-safe; one mutex guards the recency list, index and doorkeeper,
/// same reasoning as LruCache.
class SubtreeCache {
 public:
  struct Entry {
    /// Center row followed by length row: 2·d floats.
    std::vector<float> row;
    /// Sorted distinct relations of the subtree (invalidation tags).
    std::vector<int64_t> relations;
  };

  explicit SubtreeCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes),
        doorkeeper_keys_(std::max<size_t>(1, capacity_bytes /
                                                 kEntryOverheadBytes)),
        doorkeeper_((doorkeeper_keys_ * kDoorkeeperBitsPerKey + 63) / 64) {}

  SubtreeCache(const SubtreeCache&) = delete;
  SubtreeCache& operator=(const SubtreeCache&) = delete;

  /// Copies the entry into `*out` (if non-null) and marks it
  /// most-recently-used.
  bool Get(const query::Fingerprint& key, Entry* out) HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    ++hits_;
    if (out != nullptr) *out = it->second->second;
    return true;
  }

  /// Presence probe without recency or counter side effects (explain).
  bool Contains(const query::Fingerprint& key) const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return index_.find(key) != index_.end();
  }

  /// TinyLFU's doorkeeper (Einziger, Friedman & Manes, 2017): records a
  /// sighting of `key` and returns whether it had been seen before, i.e.
  /// whether its entry is worth a Put. The record is a bit set of
  /// kDoorkeeperBitsPerKey bits per key the budget could hold at the
  /// smallest charge (kEntryOverheadBytes), probed at two positions per key;
  /// it is cleared once it has recorded that many new keys, so a sighting
  /// is remembered for about one budget's worth of distinct subtrees. A
  /// false positive admits a one-off key; a repeat is refused only on its
  /// first sighting since the last clear.
  bool Admit(const query::Fingerprint& key) HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const size_t bits = doorkeeper_.size() * 64;
    const size_t a = static_cast<size_t>(key.lo % bits);
    const size_t b = static_cast<size_t>(key.hi % bits);
    auto test = [&](size_t i) {
      return (doorkeeper_[i / 64] >> (i % 64) & 1u) != 0;
    };
    if (test(a) && test(b)) return true;
    if (++doorkeeper_recorded_ > doorkeeper_keys_) {
      std::fill(doorkeeper_.begin(), doorkeeper_.end(), 0);
      doorkeeper_recorded_ = 1;
    }
    doorkeeper_[a / 64] |= uint64_t{1} << (a % 64);
    doorkeeper_[b / 64] |= uint64_t{1} << (b % 64);
    return false;
  }

  /// Inserts or overwrites, then evicts least-recently-used entries until
  /// the byte budget holds. An entry larger than the whole budget is
  /// dropped on the floor.
  void Put(const query::Fingerprint& key, Entry entry) HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const size_t entry_bytes = ChargedBytes(entry);
    if (entry_bytes > capacity_bytes_) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      bytes_ -= ChargedBytes(it->second->second);
      it->second->second = std::move(entry);
      bytes_ += entry_bytes;
      order_.splice(order_.begin(), order_, it->second);
    } else {
      order_.emplace_front(key, std::move(entry));
      index_[key] = order_.begin();
      bytes_ += entry_bytes;
    }
    while (bytes_ > capacity_bytes_ && !order_.empty()) {
      bytes_ -= ChargedBytes(order_.back().second);
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  /// Drops every entry whose subtree uses `relation`; returns the number
  /// evicted. Call after adding/removing triples of that relation.
  size_t InvalidateRelation(int64_t relation) HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    size_t dropped = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      const std::vector<int64_t>& tags = it->second.relations;
      if (std::binary_search(tags.begin(), tags.end(), relation)) {
        bytes_ -= ChargedBytes(it->second);
        index_.erase(it->first);
        it = order_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    invalidations_ += static_cast<int64_t>(dropped);
    return dropped;
  }

  /// Bytes `entry` is charged against the budget: its list node, index
  /// node and bucket slots (kEntryOverheadBytes) plus its row and tag
  /// buffers, each as the allocator rounds it.
  static size_t ChargedBytes(const Entry& entry) {
    using internal::HeapBlockBytes;
    return kEntryOverheadBytes +
           HeapBlockBytes(entry.row.capacity() * sizeof(float)) +
           HeapBlockBytes(entry.relations.capacity() * sizeof(int64_t));
  }

  void Clear() HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    order_.clear();
    index_.clear();
    bytes_ = 0;
  }

  size_t bytes() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return bytes_;
  }
  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t size() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return index_.size();
  }
  int64_t hits() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return hits_;
  }
  int64_t misses() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return misses_;
  }
  int64_t evictions() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return evictions_;
  }
  int64_t invalidations() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return invalidations_;
  }

 private:
  using Order = std::list<std::pair<query::Fingerprint, Entry>>;

  /// The payload-free part of every charge: the recency-list node (two
  /// links, key and Entry), the index node (a link, key, list iterator
  /// and cached hash), and two bucket slots — the index keeps at most one
  /// entry per bucket and doubles its bucket array as it grows.
  static constexpr size_t kEntryOverheadBytes =
      internal::HeapBlockBytes(2 * sizeof(void*) +
                               sizeof(Order::value_type)) +
      internal::HeapBlockBytes(2 * sizeof(void*) +
                               sizeof(query::Fingerprint) +
                               sizeof(Order::iterator)) +
      2 * sizeof(void*);
  static constexpr size_t kDoorkeeperBitsPerKey = 8;

  const size_t capacity_bytes_;
  const size_t doorkeeper_keys_;
  mutable Mutex mu_;
  /// front = most recently used
  Order order_ HALK_GUARDED_BY(mu_);
  std::unordered_map<query::Fingerprint, Order::iterator,
                     query::FingerprintHash>
      index_ HALK_GUARDED_BY(mu_);
  size_t bytes_ HALK_GUARDED_BY(mu_) = 0;
  int64_t hits_ HALK_GUARDED_BY(mu_) = 0;
  int64_t misses_ HALK_GUARDED_BY(mu_) = 0;
  int64_t evictions_ HALK_GUARDED_BY(mu_) = 0;
  int64_t invalidations_ HALK_GUARDED_BY(mu_) = 0;
  std::vector<uint64_t> doorkeeper_ HALK_GUARDED_BY(mu_);
  size_t doorkeeper_recorded_ HALK_GUARDED_BY(mu_) = 0;
};

}  // namespace halk::serving

#endif  // HALK_SERVING_SUBTREE_CACHE_H_

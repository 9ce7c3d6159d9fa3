#ifndef HALK_SERVING_REQUEST_QUEUE_H_
#define HALK_SERVING_REQUEST_QUEUE_H_

#include <deque>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace halk::serving {

/// Bounded multi-producer/multi-consumer FIFO used as the serving
/// admission queue. Producers fail fast (kUnavailable) when the queue is
/// full — backpressure is surfaced to the client instead of buffering
/// unboundedly — and consumers pop whatever is queued, up to a batch cap.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking admission: kUnavailable when full or closed.
  [[nodiscard]] Status TryPush(T item) HALK_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_) return Status::Unavailable("queue closed");
      if (items_.size() >= capacity_) {
        return Status::Unavailable("queue full");
      }
      items_.push_back(std::move(item));
    }
    ready_.NotifyOne();
    return Status::OK();
  }

  /// Blocks until at least one item (or close), then drains up to
  /// `max_items` of what is queued and returns at once: a batch fills only
  /// from a backlog, and a lone item is never held back. Returns false
  /// only when the queue is closed and empty — the consumer's signal to
  /// exit.
  bool PopBatch(std::vector<T>* out, size_t max_items) HALK_EXCLUDES(mu_) {
    out->clear();
    MutexLock lock(mu_);
    ready_.Wait(mu_, [this]() HALK_REQUIRES(mu_) {
      return !items_.empty() || closed_;
    });
    if (items_.empty()) return false;  // closed and drained
    while (!items_.empty() && out->size() < max_items) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return true;
  }

  /// Rejects future pushes and wakes all consumers; already-queued items
  /// are still handed out so shutdown drains rather than drops.
  void Close() HALK_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    ready_.NotifyAll();
  }

  size_t size() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }
  size_t capacity() const { return capacity_; }
  bool closed() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar ready_;
  std::deque<T> items_ HALK_GUARDED_BY(mu_);
  bool closed_ HALK_GUARDED_BY(mu_) = false;
};

}  // namespace halk::serving

#endif  // HALK_SERVING_REQUEST_QUEUE_H_


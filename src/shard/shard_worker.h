#ifndef HALK_SHARD_SHARD_WORKER_H_
#define HALK_SHARD_SHARD_WORKER_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/query_model.h"
#include "core/topk.h"
#include "obs/trace.h"
#include "serving/metrics.h"
#include "serving/request_queue.h"

namespace halk::shard {

/// Half-open slice [begin, end) of the entity-id space owned by one shard.
struct EntityRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end - begin; }
};

/// The embedded form of one query after DNF expansion: each entry of
/// `rows` names row `second` of `embeddings[first]`. EmbeddingBatch holds
/// cheap value-semantic tensor handles, so a BranchSet shares the
/// underlying buffers rather than copying them.
struct BranchSet {
  std::vector<core::EmbeddingBatch> embeddings;
  std::vector<std::pair<size_t, int64_t>> rows;
};

/// One contiguous slice of the entity table plus its instruments (null
/// when the coordinator has no metrics registry).
struct Shard {
  EntityRange range;
  int index = 0;
  serving::Counter* tasks = nullptr;
  serving::Histogram* scan_us = nullptr;
};

/// The scan every shard runs, inline or on its worker: scores the shard's
/// range against every branch (min across branches per entity — the DNF
/// union semantics) through the model's bound-aware top-k kernel and
/// returns the local top-k. kDeadlineExceeded, without scanning, when
/// `deadline` has already passed. With an active `trace`, records a
/// `shard_scan` span annotated with the shard index and scan counters.
[[nodiscard]] Result<std::vector<core::ScoredEntity>> ScanShard(
    const core::QueryModel& model, const Shard& shard,
    const BranchSet& branches, int64_t k,
    std::chrono::steady_clock::time_point deadline,
    const obs::TraceContext& trace);

/// A scatter task for a worker shard. Tasks own their BranchSet through a
/// shared_ptr so a task the coordinator stopped waiting for at the
/// deadline can still run to completion safely.
struct ShardTask {
  std::shared_ptr<const BranchSet> branches;
  int64_t k = 0;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  obs::TraceContext trace;
  std::promise<Result<std::vector<core::ScoredEntity>>> result;
};

/// A dedicated thread draining a bounded task queue and running ScanShard
/// over one shard's read-only view of the model's entity table (trained
/// parameters are never copied).
class ShardWorker {
 public:
  /// `model` and `shard` must outlive the worker.
  ShardWorker(const core::QueryModel* model, const Shard* shard,
              size_t queue_capacity);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Enqueues a task; kUnavailable when the queue is full or stopped.
  [[nodiscard]] Status Submit(std::unique_ptr<ShardTask> task);

  /// Closes the queue (pending tasks still drain) and joins the thread.
  /// Idempotent; also run by the destructor.
  void Stop();

 private:
  void Loop();

  const core::QueryModel* model_;
  const Shard* shard_;
  serving::BoundedQueue<std::unique_ptr<ShardTask>> queue_;
  std::atomic<bool> stopped_{false};
  std::thread thread_;
};

}  // namespace halk::shard

#endif  // HALK_SHARD_SHARD_WORKER_H_

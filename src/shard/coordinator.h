#ifndef HALK_SHARD_COORDINATOR_H_
#define HALK_SHARD_COORDINATOR_H_

#include <chrono>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/query_model.h"
#include "core/topk.h"
#include "obs/trace.h"
#include "query/dag.h"
#include "serving/metrics.h"
#include "shard/shard_worker.h"

namespace halk::shard {

struct ShardOptions {
  /// Contiguous entity-table shards scored in parallel.
  int num_shards = 4;
  /// Per-worker task-queue capacity.
  size_t queue_capacity = 256;
};

/// Outcome of one scatter-gather top-k. `coverage` is the fraction of the
/// entity table actually scored; `status` is OK at full coverage,
/// kPartialResult when some shard missed the deadline (the entries are
/// still the exact top-k of the covered fraction), and kDeadlineExceeded
/// when nothing was covered at all.
struct ShardedTopK {
  std::vector<core::ScoredEntity> entries;
  double coverage = 1.0;
  Status status;

  bool ok() const { return status.ok(); }
  bool partial() const {
    return status.code() == StatusCode::kPartialResult;
  }
};

/// Scatter-gather ranking over a sharded entity table. The table is
/// partitioned into `num_shards` contiguous slabs. Shard 0 is scanned on
/// the calling thread; shards 1..S-1 each have a ShardWorker thread holding
/// a read-only view of the trained parameters, so one shard spawns no
/// thread at all. A request hands its embedded DNF branches to every
/// shard, k-way merges the partial top-k heaps, and — because every path
/// orders by (distance, entity id) — reproduces Evaluator::TopK
/// bit-for-bit at any shard count.
///
/// Deadline semantics: each shard checks the deadline before its scan
/// starts, and the caller waits for the worker shards until the deadline.
/// A shard that misses it is left uncovered and the request degrades to a
/// partial result carrying its coverage.
class ShardCoordinator {
 public:
  /// `model` and `metrics` (optional) must outlive the coordinator. When
  /// `metrics` is given, the coordinator exports `shard.*` instruments:
  /// request/partial/deadline-miss counters, gather latency, and labeled
  /// per-shard `shard.tasks{shard=...}` counters and
  /// `shard.scan_us{shard=...}` scan-latency histograms.
  ShardCoordinator(core::QueryModel* model, const ShardOptions& options,
                   serving::MetricsRegistry* metrics = nullptr);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Scatter-gather over pre-embedded branches (min across branches per
  /// entity). `deadline` bounds the whole gather. With an active `trace`,
  /// records a `scatter` span (one `shard_scan` child per shard) and a
  /// sibling `merge` span.
  ShardedTopK TopKEmbedded(const BranchSet& branches, int64_t k,
                           std::chrono::steady_clock::time_point deadline =
                               std::chrono::steady_clock::time_point::max(),
                           const obs::TraceContext& trace = {});

  /// Convenience: DNF-expands and embeds `query` exactly as Evaluator does
  /// (one single-row EmbedQueries per branch), then scatter-gathers.
  /// `timeout` zero means no deadline.
  ShardedTopK TopK(
      const query::QueryGraph& query, int64_t k,
      std::chrono::microseconds timeout = std::chrono::microseconds::zero());

  /// Stops and joins every worker. Idempotent; also run by the destructor.
  void Stop();

  int num_shards() const { return options_.num_shards; }
  int64_t num_entities() const { return num_entities_; }
  EntityRange shard_range(int shard) const;

 private:
  core::QueryModel* model_;
  const ShardOptions options_;
  const int64_t num_entities_;
  bool stopped_ = false;

  // shards_[s] for every shard; workers_[s - 1] serves shards_[s] for
  // s >= 1 and points into shards_, which never resizes after
  // construction.
  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;

  // Metrics (null when no registry was given).
  serving::Counter* requests_ = nullptr;
  serving::Counter* partials_ = nullptr;
  serving::Counter* deadline_misses_ = nullptr;
  serving::Histogram* gather_us_ = nullptr;
};

}  // namespace halk::shard

#endif  // HALK_SHARD_COORDINATOR_H_

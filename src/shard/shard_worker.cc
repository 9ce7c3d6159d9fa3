#include "shard/shard_worker.h"

#include "common/logging.h"

namespace halk::shard {

Result<std::vector<core::ScoredEntity>> ScanShard(
    const core::QueryModel& model, const Shard& shard,
    const BranchSet& branches, int64_t k,
    std::chrono::steady_clock::time_point deadline,
    const obs::TraceContext& trace) {
  if (shard.tasks != nullptr) shard.tasks->Increment();
  if (std::chrono::steady_clock::now() > deadline) {
    return Status::DeadlineExceeded("shard scan past its deadline");
  }
  std::vector<core::BranchRef> refs;
  refs.reserve(branches.rows.size());
  for (const auto& [embedding_index, row] : branches.rows) {
    refs.push_back({&branches.embeddings[embedding_index], row});
  }
  obs::SpanGuard scan(trace, "shard_scan");
  core::TopKAccumulator acc(k);
  core::ScanStats stats;
  const int64_t scan_start = shard.scan_us != nullptr ? obs::NowNs() : 0;
  model.AccumulateTopKRange(refs, shard.range.begin, shard.range.end, &acc,
                            &stats);
  if (shard.scan_us != nullptr) {
    // The request's trace id rides along as the bucket exemplar so a slow
    // scraped scan bucket names a concrete trace.
    shard.scan_us->Observe(
        static_cast<double>(obs::NowNs() - scan_start) / 1e3, trace.trace_id);
  }
  if (scan.active()) {
    scan.Annotate("shard", shard.index);
    scan.Annotate("entities_scanned",
                  static_cast<double>(stats.entities_scanned));
    scan.Annotate("entities_pruned",
                  static_cast<double>(stats.entities_pruned));
    scan.Annotate("entities_filtered",
                  static_cast<double>(stats.entities_filtered));
    scan.Annotate("early_exit_rate",
                  stats.entities_scanned == 0
                      ? 0.0
                      : static_cast<double>(stats.entities_pruned) /
                            static_cast<double>(stats.entities_scanned));
  }
  return acc.Take();
}

ShardWorker::ShardWorker(const core::QueryModel* model, const Shard* shard,
                         size_t queue_capacity)
    : model_(model), shard_(shard), queue_(queue_capacity) {
  HALK_CHECK(model != nullptr);
  HALK_CHECK(shard != nullptr);
  thread_ = std::thread([this] { Loop(); });
}

ShardWorker::~ShardWorker() { Stop(); }

void ShardWorker::Stop() {
  if (stopped_.exchange(true)) return;
  queue_.Close();
  if (thread_.joinable()) thread_.join();
}

Status ShardWorker::Submit(std::unique_ptr<ShardTask> task) {
  return queue_.TryPush(std::move(task));
}

void ShardWorker::Loop() {
  std::vector<std::unique_ptr<ShardTask>> batch;
  while (queue_.PopBatch(&batch, 1)) {
    ShardTask* task = batch[0].get();
    task->result.set_value(ScanShard(*model_, *shard_, *task->branches,
                                     task->k, task->deadline, task->trace));
    batch.clear();
  }
}

}  // namespace halk::shard

#include "shard/coordinator.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "query/dnf.h"

namespace halk::shard {

namespace {

using Clock = std::chrono::steady_clock;
using Partial = Result<std::vector<core::ScoredEntity>>;

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

}  // namespace

ShardCoordinator::ShardCoordinator(core::QueryModel* model,
                                   const ShardOptions& options,
                                   serving::MetricsRegistry* metrics)
    : model_(model),
      options_(options),
      num_entities_(model->config().num_entities) {
  HALK_CHECK(model != nullptr);
  HALK_CHECK_GT(options_.num_shards, 0);
  HALK_CHECK_GT(options_.queue_capacity, 0u);

  const auto latency_bounds =
      serving::Histogram::ExponentialBounds(1.0, 2.0, 26);
  if (metrics != nullptr) {
    requests_ = metrics->GetCounter("shard.requests");
    partials_ = metrics->GetCounter("shard.partial_results");
    deadline_misses_ = metrics->GetCounter("shard.deadline_misses");
    gather_us_ = metrics->GetHistogram("shard.gather_us", latency_bounds);
  }

  // Contiguous balanced partition: the first `num_entities % num_shards`
  // shards own one extra entity.
  const int64_t num_shards = options_.num_shards;
  const int64_t base = num_entities_ / num_shards;
  const int64_t extra = num_entities_ % num_shards;
  int64_t next = 0;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    const int64_t size = base + (s < extra ? 1 : 0);
    Shard shard;
    shard.range = {next, next + size};
    shard.index = s;
    next += size;
    if (metrics != nullptr) {
      const serving::Labels label = {{"shard", std::to_string(s)}};
      shard.tasks = metrics->GetCounter("shard.tasks", label);
      shard.scan_us =
          metrics->GetHistogram("shard.scan_us", latency_bounds, label);
    }
    shards_.push_back(shard);
  }
  HALK_CHECK_EQ(next, num_entities_);
  for (size_t s = 1; s < shards_.size(); ++s) {
    workers_.push_back(std::make_unique<ShardWorker>(model, &shards_[s],
                                                     options_.queue_capacity));
  }
}

ShardCoordinator::~ShardCoordinator() { Stop(); }

void ShardCoordinator::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& worker : workers_) worker->Stop();
}

EntityRange ShardCoordinator::shard_range(int shard) const {
  return shards_[static_cast<size_t>(shard)].range;
}

ShardedTopK ShardCoordinator::TopKEmbedded(const BranchSet& branches,
                                           int64_t k,
                                           Clock::time_point deadline,
                                           const obs::TraceContext& trace) {
  const Clock::time_point start = Clock::now();
  if (requests_ != nullptr) requests_->Increment();

  // The scatter span covers dispatch, the inline scan and the gather; every
  // shard_scan nests under it. Merge is a disjoint sibling so per-phase
  // spans tile the request wall-clock.
  obs::SpanGuard scatter(trace, "scatter");
  const obs::TraceContext scatter_ctx = scatter.child_context();

  // Worker shards are dispatched first so they scan while shard 0 runs
  // here. Tasks share ownership of the branch set, so a shard left behind
  // at the deadline finishes harmlessly after this call returns.
  std::vector<std::future<Partial>> pending(workers_.size());
  if (!workers_.empty()) {
    auto shared = std::make_shared<const BranchSet>(branches);
    for (size_t w = 0; w < workers_.size(); ++w) {
      auto task = std::make_unique<ShardTask>();
      task->branches = shared;
      task->k = k;
      task->deadline = deadline;
      task->trace = scatter_ctx;
      std::future<Partial> future = task->result.get_future();
      // A full or stopped queue leaves the future invalid, and the gather
      // below scans that shard inline instead.
      if (workers_[w]->Submit(std::move(task)).ok()) {
        pending[w] = std::move(future);
      }
    }
  }

  std::vector<std::vector<core::ScoredEntity>> partials(shards_.size());
  int64_t covered_entities = 0;
  int uncovered_shards = 0;
  auto gather = [&](size_t s, Partial result) {
    if (result.ok()) {
      partials[s] = std::move(*result);
      covered_entities += shards_[s].range.size();
    } else {
      ++uncovered_shards;
      if (deadline_misses_ != nullptr) deadline_misses_->Increment();
    }
  };
  gather(0, ScanShard(*model_, shards_[0], branches, k, deadline,
                      scatter_ctx));
  for (size_t w = 0; w < workers_.size(); ++w) {
    std::future<Partial>& future = pending[w];
    if (!future.valid()) {
      gather(w + 1, ScanShard(*model_, shards_[w + 1], branches, k,
                              deadline, scatter_ctx));
    } else if (deadline == kNoDeadline ||
               future.wait_until(deadline) == std::future_status::ready) {
      gather(w + 1, future.get());
    } else {
      gather(w + 1, Status::DeadlineExceeded("shard missed the deadline"));
    }
  }
  if (scatter.active()) {
    scatter.Annotate("shards", static_cast<double>(shards_.size()));
    scatter.Annotate("uncovered_shards", static_cast<double>(uncovered_shards));
  }
  scatter.End();

  ShardedTopK out;
  {
    obs::SpanGuard merge(trace, "merge");
    out.entries = core::MergeTopK(partials, k);
    if (merge.active()) {
      merge.Annotate("entries", static_cast<double>(out.entries.size()));
    }
  }
  out.coverage = num_entities_ == 0
                     ? 1.0
                     : static_cast<double>(covered_entities) /
                           static_cast<double>(num_entities_);
  if (uncovered_shards == 0) {
    out.status = Status::OK();
  } else if (covered_entities == 0) {
    out.status = Status::DeadlineExceeded("no shard scanned before the deadline");
  } else {
    if (partials_ != nullptr) partials_->Increment();
    out.status = Status::PartialResult(
        std::to_string(uncovered_shards) + " of " +
        std::to_string(shards_.size()) + " shards missed the deadline");
  }
  if (gather_us_ != nullptr) {
    // Exemplar: a slow gather bucket in the scrape names this trace.
    gather_us_->Observe(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count(),
        trace.trace_id);
  }
  return out;
}

ShardedTopK ShardCoordinator::TopK(const query::QueryGraph& query, int64_t k,
                                   std::chrono::microseconds timeout) {
  // One single-row EmbedQueries per DNF branch, exactly as
  // Evaluator::ScoreAllEntities does, so rankings match the brute-force
  // evaluator bit-for-bit.
  BranchSet branches;
  for (const query::QueryGraph& branch : query::ToDnf(query)) {
    std::vector<const query::QueryGraph*> single = {&branch};
    branches.embeddings.push_back(model_->EmbedQueries(single));
    branches.rows.emplace_back(branches.embeddings.size() - 1, 0);
  }
  const Clock::time_point deadline =
      timeout.count() > 0 ? Clock::now() + timeout : kNoDeadline;
  return TopKEmbedded(branches, k, deadline);
}

}  // namespace halk::shard

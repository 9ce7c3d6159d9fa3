#include "serving/server.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "core/topk.h"
#include "kg/dictionary.h"
#include "obs/trace.h"
#include "plan/explain.h"
#include "query/dnf.h"

namespace halk::serving {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Unpacks a (distance, entity)-ordered ranking into the answer arrays.
void FillAnswer(const std::vector<core::ScoredEntity>& ranking,
                TopKAnswer* out) {
  out->entities.reserve(ranking.size());
  out->distances.reserve(ranking.size());
  for (const core::ScoredEntity& s : ranking) {
    out->entities.push_back(s.entity);
    out->distances.push_back(s.distance);
  }
}

}  // namespace

QueryServer::QueryServer(core::QueryModel* model,
                         const kg::KnowledgeGraph* kg,
                         const ServerOptions& options)
    : model_(model),
      kg_(kg),
      options_(options),
      queue_(options.queue_capacity),
      cache_(options.cache_capacity),
      submitted_(metrics_.GetCounter("serving.submitted")),
      rejected_(metrics_.GetCounter("serving.rejected")),
      invalid_(metrics_.GetCounter("serving.invalid")),
      completed_(metrics_.GetCounter("serving.completed")),
      expired_(metrics_.GetCounter("serving.deadline_expired")),
      cache_hits_(metrics_.GetCounter("serving.cache_hits")),
      cache_misses_(metrics_.GetCounter("serving.cache_misses")),
      latency_us_(metrics_.GetHistogram(
          "serving.latency_us", Histogram::ExponentialBounds(1.0, 2.0, 26))),
      batch_size_(metrics_.GetHistogram(
          "serving.batch_size", Histogram::ExponentialBounds(1.0, 2.0, 12))),
      queue_depth_(metrics_.GetGauge("serving.queue_depth")),
      in_flight_(metrics_.GetGauge("serving.in_flight")),
      plan_requests_(metrics_.GetCounter("plan.requests")),
      plan_nodes_(metrics_.GetCounter("plan.nodes")),
      plan_unique_nodes_(metrics_.GetCounter("plan.unique_nodes")),
      plan_node_evals_(metrics_.GetCounter("plan.node_evals")),
      plan_cache_hits_(metrics_.GetCounter("plan.subtree_cache_hits")),
      plan_cache_misses_(metrics_.GetCounter("plan.subtree_cache_misses")),
      plan_op_batches_(metrics_.GetCounter("plan.op_batches")),
      plan_build_us_(metrics_.GetHistogram(
          "plan.build_us", Histogram::ExponentialBounds(1.0, 2.0, 20))),
      plan_exec_us_(metrics_.GetHistogram(
          "plan.exec_us", Histogram::ExponentialBounds(1.0, 2.0, 26))),
      plan_cache_bytes_(metrics_.GetGauge("plan.subtree_cache_bytes")),
      plan_qerror_(metrics_.GetHistogram(
          "plan.qerror", Histogram::ExponentialBounds(1.0, 2.0, 16))) {
  for (size_t op = 0; op < obs::kNumOpKinds; ++op) {
    plan_node_us_[op] = metrics_.GetHistogram(
        "plan.node_us", Histogram::ExponentialBounds(1.0, 2.0, 20),
        {{"op", query::OpTypeName(static_cast<query::OpType>(op))}});
  }
  HALK_CHECK(model != nullptr);
  HALK_CHECK_GT(options_.num_workers, 0);
  HALK_CHECK_GT(options_.max_batch_size, 0u);
  HALK_CHECK_GT(options_.queue_capacity, 0u);
  if (options_.tracer != nullptr &&
      options_.slow_query_threshold.count() > 0) {
    slow_log_ = std::make_unique<obs::SlowQueryLog>(
        options_.slow_query_log_capacity,
        options_.slow_query_threshold.count() * 1000);
  }
  if (options_.num_shards > 0) {
    shard::ShardOptions shard_options;
    shard_options.num_shards = options_.num_shards;
    shard_options.replication = options_.shard_replication;
    shard_options.pin_threads = options_.shard_pin_threads;
    coordinator_ = std::make_unique<shard::ShardCoordinator>(
        model, shard_options, options_.shard_faults, &metrics_);
  }
  if ((options_.analytics || options_.use_feedback) &&
      options_.query_stats_capacity > 0) {
    query_stats_ = std::make_unique<obs::QueryStatsStore>(
        options_.query_stats_capacity, /*feedback_capacity=*/4096,
        options_.feedback_min_samples);
  }
  if (options_.subtree_cache_bytes > 0) {
    subtree_cache_ =
        std::make_unique<SubtreeCache>(options_.subtree_cache_bytes);
  }
  const kg::GraphStats* stats =
      (kg_ != nullptr && kg_->finalized()) ? &kg_->stats() : nullptr;
  plan::PlannerOptions planner_options;
  planner_options.feedback =
      options_.use_feedback ? query_stats_.get() : nullptr;
  planner_ = std::make_unique<plan::Planner>(
      stats, model_->config().num_entities, planner_options);
  plan_executor_ = std::make_unique<plan::PlanExecutor>(
      model_, model_->AsOperatorModel(), subtree_cache_.get());
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryServer::~QueryServer() { Shutdown(); }

void QueryServer::Shutdown() {
  if (shutdown_.exchange(true)) return;
  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // After the serving workers drain, no one submits shard tasks anymore.
  if (coordinator_ != nullptr) coordinator_->Stop();
}

Status QueryServer::ValidateQuery(const query::QueryGraph& query,
                                  int64_t k) const {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  HALK_RETURN_NOT_OK(query.Validate(/*grounded=*/true));
  const core::ModelConfig& config = model_->config();
  for (const query::QueryNode& n : query.nodes()) {
    if (!model_->Supports(n.op)) {
      return Status::InvalidArgument(
          std::string("model does not support operator ") +
          query::OpTypeName(n.op));
    }
    if (n.op == query::OpType::kAnchor &&
        (n.anchor_entity < 0 || n.anchor_entity >= config.num_entities)) {
      return Status::InvalidArgument("anchor entity out of range");
    }
    if (n.op == query::OpType::kProjection &&
        (n.relation < 0 || n.relation >= config.num_relations)) {
      return Status::InvalidArgument("relation out of range");
    }
  }
  return Status::OK();
}

Result<std::future<Result<TopKAnswer>>> QueryServer::Submit(
    const query::QueryGraph& query, int64_t k,
    std::chrono::microseconds timeout) {
  // order: acquire pairs with the seq_cst exchange in Shutdown so a
  // submitter that sees the flag also sees the queue already closed.
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::Unavailable("server is shut down");
  }
  Status valid = ValidateQuery(query, k);
  if (!valid.ok()) {
    invalid_->Increment();
    return valid;
  }
  submitted_->Increment();
  const Clock::time_point now = Clock::now();
  const query::Fingerprint key = query::CanonicalFingerprint(query);

  // One relaxed atomic load when tracing is off (StartTrace returns 0 and
  // every span helper below no-ops on the inactive context).
  obs::TraceContext trace;
  uint32_t root_span = 0;
  int64_t submit_ns = 0;
  if (options_.tracer != nullptr) {
    const uint64_t trace_id = options_.tracer->StartTrace();
    if (trace_id != 0) {
      // The root span id is pre-allocated so every phase span can parent
      // it; the root itself is recorded when the request finishes.
      root_span = options_.tracer->NextSpanId();
      trace = {options_.tracer, trace_id, root_span};
      submit_ns = obs::NowNs();
    }
  }

  if (options_.cache_capacity > 0) {
    obs::SpanGuard lookup(trace, "cache_lookup");
    CachedAnswer cached;
    if (cache_.Get(key, &cached) &&
        static_cast<int64_t>(cached.entities.size()) >= std::min<int64_t>(
            k, model_->config().num_entities)) {
      cache_hits_->Increment();
      completed_->Increment();
      TopKAnswer answer;
      const size_t take = static_cast<size_t>(
          std::min<int64_t>(k, static_cast<int64_t>(cached.entities.size())));
      answer.entities.assign(cached.entities.begin(),
                             cached.entities.begin() + take);
      answer.distances.assign(cached.distances.begin(),
                              cached.distances.begin() + take);
      answer.from_cache = true;
      answer.trace_id = trace.trace_id;
      const double latency_us = MicrosSince(now);
      latency_us_->Observe(latency_us, trace.trace_id);
      if (options_.slo != nullptr) {
        options_.slo->RecordRequest(latency_us, /*ok=*/true);
      }
      if (trace.active()) {
        lookup.Annotate("hit", 1.0);
        lookup.End();
        obs::RecordSpan({trace.tracer, trace.trace_id, 0}, "request",
                        submit_ns, obs::NowNs(), {{"cache_hit", 1.0}},
                        root_span);
      }
      if (options_.serve_journal != nullptr) {
        options_.serve_journal->Record(key.ToHex(), "OK", latency_us, k,
                                       /*coverage=*/1.0, /*cache_hit=*/true,
                                       trace.trace_id);
      }
      if (query_stats_ != nullptr) {
        obs::QueryObservation observation;
        observation.latency_us = latency_us;
        observation.cache_hit = true;
        query_stats_->Record(key.ToHex(), observation);
      }
      std::promise<Result<TopKAnswer>> ready;
      ready.set_value(std::move(answer));
      return ready.get_future();
    }
    // Not counted as a miss yet: a twin in flight may fill the cache
    // before a worker reaches this request. The worker-side triage counts
    // each request as exactly one hit or one miss.
    lookup.Annotate("hit", 0.0);
  }

  auto request = std::make_unique<PendingRequest>();
  request->graph = query;
  request->k = k;
  request->key = key;
  request->submit_time = now;
  request->has_deadline = timeout.count() > 0;
  request->deadline =
      request->has_deadline ? now + timeout : Clock::time_point::max();
  request->trace = trace;
  request->root_span = root_span;
  request->submit_ns = submit_ns;
  std::future<Result<TopKAnswer>> future = request->promise.get_future();

  // Bumped before the push so a worker that picks the request up
  // immediately can never observe (and decrement) a count it predates.
  queue_depth_->Add(1.0);
  in_flight_->Add(1.0);
  Status pushed = queue_.TryPush(std::move(request));
  if (!pushed.ok()) {
    queue_depth_->Add(-1.0);
    in_flight_->Add(-1.0);
    rejected_->Increment();
    return pushed;
  }
  return future;
}

Result<TopKAnswer> QueryServer::Answer(const query::QueryGraph& query,
                                       int64_t k,
                                       std::chrono::microseconds timeout) {
  HALK_ASSIGN_OR_RETURN(std::future<Result<TopKAnswer>> future,
                        Submit(query, k, timeout));
  return future.get();
}

void QueryServer::Finish(PendingRequest* request, Result<TopKAnswer> result) {
  if (result.ok()) {
    completed_->Increment();
    result->trace_id = request->trace.trace_id;
  }
  const double latency_us = MicrosSince(request->submit_time);
  // The trace id rides along as the landing bucket's exemplar, so a
  // scraped latency histogram links back to a concrete trace.
  latency_us_->Observe(latency_us, request->trace.trace_id);
  if (options_.slo != nullptr) {
    options_.slo->RecordRequest(latency_us, result.ok());
  }
  in_flight_->Add(-1.0);
  if (request->trace.active()) {
    const int64_t end_ns = obs::NowNs();
    obs::RecordSpan({request->trace.tracer, request->trace.trace_id, 0},
                    "request", request->submit_ns, end_ns,
                    {{"ok", result.ok() ? 1.0 : 0.0}}, request->root_span);
    if (slow_log_ != nullptr &&
        end_ns - request->submit_ns >= slow_log_->threshold_ns()) {
      slow_log_->Offer(
          request->key.ToHex(),
          request->trace.tracer->Collect(request->trace.trace_id),
          request->plan_node_count, request->plan_dedup);
    }
  }
  if (options_.serve_journal != nullptr) {
    options_.serve_journal->Record(
        request->key.ToHex(),
        result.ok() ? "OK" : StatusCodeToString(result.status().code()),
        latency_us, request->k, result.ok() ? result->coverage : 0.0,
        result.ok() && result->from_cache, request->trace.trace_id,
        request->plan_node_count, request->plan_dedup);
  }
  if (query_stats_ != nullptr) {
    obs::QueryObservation observation;
    observation.structure = std::move(request->structure);
    observation.latency_us = latency_us;
    observation.cache_hit = result.ok() && result->from_cache;
    observation.plan_nodes = request->plan_node_count;
    observation.dedup_ratio = request->plan_dedup;
    observation.worst_qerror = request->worst_qerror;
    observation.op_ns = request->op_ns;
    query_stats_->Record(request->key.ToHex(), observation);
  }
  request->promise.set_value(std::move(result));
}

void QueryServer::WorkerLoop() {
  std::vector<std::unique_ptr<PendingRequest>> chunk;
  while (queue_.PopBatch(&chunk, options_.max_batch_size,
                         options_.batch_linger)) {
    ServeChunk(&chunk);
    chunk.clear();
  }
}

void QueryServer::ServeChunk(
    std::vector<std::unique_ptr<PendingRequest>>* chunk) {
  const Clock::time_point now = Clock::now();
  bool any_traced = false;
  for (const std::unique_ptr<PendingRequest>& request : *chunk) {
    if (request->trace.active()) any_traced = true;
  }
  const int64_t pickup_ns = any_traced ? obs::NowNs() : 0;
  // Admission-to-service triage: expired requests fail fast, and requests
  // answered by a twin that completed while they sat in the queue are
  // served straight from the cache.
  std::vector<std::unique_ptr<PendingRequest>> live;
  live.reserve(chunk->size());
  for (std::unique_ptr<PendingRequest>& request : *chunk) {
    queue_depth_->Add(-1.0);
    // The queue-wait phase is timed after the fact: its start was stamped
    // at Submit, its end is this pickup.
    obs::RecordSpan(request->trace, "queue_wait", request->submit_ns,
                    pickup_ns);
    if (request->has_deadline && now > request->deadline) {
      expired_->Increment();
      Finish(request.get(),
             Status::DeadlineExceeded("expired while queued"));
      continue;
    }
    if (options_.cache_capacity > 0) {
      obs::SpanGuard lookup(request->trace, "cache_lookup");
      CachedAnswer cached;
      if (cache_.Get(request->key, &cached) &&
          static_cast<int64_t>(cached.entities.size()) >=
              std::min<int64_t>(request->k, model_->config().num_entities)) {
        TopKAnswer answer;
        const size_t take = static_cast<size_t>(std::min<int64_t>(
            request->k, static_cast<int64_t>(cached.entities.size())));
        answer.entities.assign(cached.entities.begin(),
                               cached.entities.begin() + take);
        answer.distances.assign(cached.distances.begin(),
                                cached.distances.begin() + take);
        answer.from_cache = true;
        cache_hits_->Increment();
        lookup.Annotate("hit", 1.0);
        lookup.End();
        Finish(request.get(), std::move(answer));
        continue;
      }
      cache_misses_->Increment();
      lookup.Annotate("hit", 0.0);
    }
    live.push_back(std::move(request));
  }
  if (live.empty()) return;

  // DNF-expand every live request; branches (not requests) are the unit of
  // planning, so one plan can mix branches of many requests.
  std::vector<std::vector<query::QueryGraph>> branches(live.size());
  for (size_t r = 0; r < live.size(); ++r) {
    obs::SpanGuard dnf(live[r]->trace, "dnf_expand");
    branches[r] = query::ToDnf(live[r]->graph);
    dnf.Annotate("branches", static_cast<double>(branches[r].size()));
    dnf.End();
  }

  ServeChunkPlanned(&live, branches, any_traced);
}

void QueryServer::ServeChunkPlanned(
    std::vector<std::unique_ptr<PendingRequest>>* live_ptr,
    const std::vector<std::vector<query::QueryGraph>>& branches,
    bool any_traced) {
  std::vector<std::unique_ptr<PendingRequest>>& live = *live_ptr;
  plan_requests_->Increment(static_cast<int64_t>(live.size()));

  std::vector<plan::PlanItem> items;
  for (size_t r = 0; r < live.size(); ++r) {
    for (const query::QueryGraph& branch : branches[r]) {
      items.push_back({r, &branch});
    }
  }

  // Plan construction is one pass shared by the whole chunk; each traced
  // request records the shared interval as its own plan_build phase.
  const Clock::time_point build_start = Clock::now();
  const int64_t build_start_ns = any_traced ? obs::NowNs() : 0;
  const plan::Plan plan = planner_->BuildPlan(items);
  plan_build_us_->Observe(MicrosSince(build_start));
  if (any_traced) {
    const int64_t build_end_ns = obs::NowNs();
    for (const std::unique_ptr<PendingRequest>& request : live) {
      obs::RecordSpan(
          request->trace, "plan_build", build_start_ns, build_end_ns,
          {{"nodes", static_cast<double>(plan.nodes.size())},
           {"dedup_ratio", plan.dedup_ratio()}});
    }
  }
  plan_nodes_->Increment(plan.total_nodes);
  plan_unique_nodes_->Increment(static_cast<int64_t>(plan.nodes.size()));

  // Span ids for the shared batch_assembly / embed phases are allocated up
  // front on the first traced request so the executor's subtree_cache_hit
  // events and node_eval spans nest under them; the spans themselves are
  // recorded once their intervals close. Other traced requests in the
  // chunk record the same intervals without the children.
  size_t lead = live.size();  // first traced request, if any
  for (size_t r = 0; r < live.size(); ++r) {
    if (live[r]->trace.active()) {
      lead = r;
      break;
    }
  }
  obs::TraceContext assembly_ctx;
  uint32_t assembly_span = 0;
  obs::TraceContext embed_ctx;
  uint32_t embed_span = 0;
  if (lead < live.size()) {
    const obs::TraceContext& trace = live[lead]->trace;
    assembly_span = trace.tracer->NextSpanId();
    assembly_ctx = {trace.tracer, trace.trace_id, assembly_span};
    embed_span = trace.tracer->NextSpanId();
    embed_ctx = {trace.tracer, trace.trace_id, embed_span};
  }

  // Batch assembly on the planner path is Prepare: the top-down subtree
  // cache probe plus grouping of still-needed nodes into batched operator
  // calls.
  const bool analytics = query_stats_ != nullptr && options_.analytics;
  const int64_t sample_period =
      std::max<int64_t>(1, options_.analyze_sample_period);
  const bool collect_actuals =
      analytics && analyze_chunk_counter_.fetch_add(1) %
                           static_cast<uint64_t>(sample_period) ==
                       0;
  plan::ExecOptions exec_options;
  exec_options.collect_actuals = collect_actuals;
  exec_options.sample_entities = options_.analyze_sample_entities;
  const int64_t assembly_start_ns = any_traced ? obs::NowNs() : 0;
  plan::ExecSchedule schedule =
      plan_executor_->Prepare(plan, assembly_ctx, exec_options);
  if (any_traced) {
    const int64_t assembly_end_ns = obs::NowNs();
    for (size_t r = 0; r < live.size(); ++r) {
      obs::RecordSpan(
          live[r]->trace, "batch_assembly", assembly_start_ns,
          assembly_end_ns,
          {{"batches", static_cast<double>(schedule.batches.size())},
           {"chunk_requests", static_cast<double>(live.size())},
           {"subtree_cache_hits",
            static_cast<double>(schedule.stats.cache_hits)}},
          r == lead ? assembly_span : 0);
    }
  }
  plan_cache_hits_->Increment(schedule.stats.cache_hits);
  plan_cache_misses_->Increment(schedule.stats.cache_misses);
  plan_op_batches_->Increment(schedule.stats.op_batches);
  for (const plan::ExecSchedule::OpBatch& batch : schedule.batches) {
    batch_size_->Observe(static_cast<double>(batch.node_ids.size()));
  }

  // One executor pass materializes every unique subtree of the chunk; the
  // result has one embedding row per DNF branch root.
  const Clock::time_point exec_start = Clock::now();
  const int64_t embed_start_ns = any_traced ? obs::NowNs() : 0;
  const core::EmbeddingBatch embedding =
      plan_executor_->Run(plan, &schedule, embed_ctx);
  plan_exec_us_->Observe(MicrosSince(exec_start));
  plan_node_evals_->Increment(schedule.stats.evaluated);
  if (subtree_cache_ != nullptr) {
    plan_cache_bytes_->Set(static_cast<double>(subtree_cache_->bytes()));
  }
  if (any_traced) {
    const int64_t embed_end_ns = obs::NowNs();
    for (size_t r = 0; r < live.size(); ++r) {
      obs::RecordSpan(
          live[r]->trace, "embed", embed_start_ns, embed_end_ns,
          {{"rows", static_cast<double>(plan.roots.size())},
           {"node_evals", static_cast<double>(schedule.stats.evaluated)}},
          r == lead ? embed_span : 0);
    }
  }

  // Analytics plane: per-node metric families, the feedback EWMAs, and
  // per-request attribution stashed for Finish to fold into the store.
  // Plan-shape attribution covers every analytics chunk; the parts that
  // need per-node actuals only exist on the sampled chunks.
  if (analytics) {
    const std::vector<plan::NodeActuals>& actuals = schedule.stats.actuals;
    const bool measured = !actuals.empty();
    for (size_t id = 0; measured && id < plan.nodes.size(); ++id) {
      const plan::NodeActuals& a = actuals[id];
      const plan::PlanNode& node = plan.nodes[id];
      if (a.actual_rows >= 0.0) {
        plan_qerror_->Observe(plan::QError(node.est_rows, a.actual_rows));
        query_stats_->RecordSubtreeRows(node.key, a.actual_rows);
      }
      if (a.evaluated) {
        plan_node_us_[static_cast<size_t>(node.op)]->Observe(
            static_cast<double>(a.wall_ns) / 1e3);
      }
    }
    // Per-request attribution over each request's reachable sub-DAG; a
    // node shared across requests counts fully for every one of them
    // (attribution answers "what did serving this query involve", not
    // "who pays", so shares are not split).
    std::vector<int32_t> stack;
    std::vector<uint8_t> visited(plan.nodes.size());
    for (size_t r = 0; r < live.size(); ++r) {
      std::fill(visited.begin(), visited.end(), 0);
      stack.clear();
      for (const plan::PlanRoot& root : plan.roots) {
        if (root.request_index == r) stack.push_back(root.node);
      }
      PendingRequest* request = live[r].get();
      request->structure =
          query::StructureFingerprint(request->graph).ToHex();
      request->plan_dedup = plan.dedup_ratio();
      while (!stack.empty()) {
        const int32_t id = stack.back();
        stack.pop_back();
        if (visited[static_cast<size_t>(id)]) continue;
        visited[static_cast<size_t>(id)] = 1;
        ++request->plan_node_count;
        const plan::PlanNode& node = plan.node(id);
        if (measured) {
          const plan::NodeActuals& a = actuals[static_cast<size_t>(id)];
          if (a.evaluated) {
            request->op_ns[static_cast<size_t>(node.op)] += a.wall_ns;
          }
          if (a.actual_rows >= 0.0) {
            request->worst_qerror = std::max(
                request->worst_qerror,
                plan::QError(node.est_rows, a.actual_rows));
          }
        }
        for (uint32_t j = 0; j < node.num_inputs; ++j) {
          stack.push_back(node.inputs[j]);
        }
      }
    }
  }

  // DNF union semantics: per request, the minimum over its branch roots,
  // ranked by the model's top-k scan over the whole table (unsharded, as
  // Evaluator::TopK does) or by the scatter-gather coordinator over the
  // request's branch set (sharded).
  const bool sharded = coordinator_ != nullptr;
  std::vector<std::vector<core::BranchRef>> branch_refs(live.size());
  std::vector<shard::BranchSet> branch_sets(sharded ? live.size() : 0);
  for (size_t j = 0; j < plan.roots.size(); ++j) {
    const size_t r = plan.roots[j].request_index;
    if (sharded) {
      shard::BranchSet& set = branch_sets[r];
      if (set.embeddings.empty()) set.embeddings.push_back(embedding);
      set.rows.emplace_back(0, static_cast<int64_t>(j));
    } else {
      branch_refs[r].push_back({&embedding, static_cast<int64_t>(j)});
    }
  }

  for (size_t r = 0; r < live.size(); ++r) {
    FinishRanked(live[r].get(), branch_refs[r],
                 sharded ? &branch_sets[r] : nullptr);
  }
}

void QueryServer::FinishRanked(PendingRequest* request,
                               const std::vector<core::BranchRef>& branches,
                               shard::BranchSet* branch_set) {
  TopKAnswer answer;
  if (branch_set != nullptr) {
    shard::ShardedTopK top = coordinator_->TopKEmbedded(
        *branch_set, request->k, request->deadline, request->trace);
    if (!top.ok() && !top.partial()) {
      Finish(request, top.status);
      return;
    }
    FillAnswer(top.entries, &answer);
    answer.coverage = top.coverage;
    answer.completeness = top.status;
  } else {
    const int64_t n = model_->config().num_entities;
    core::TopKAccumulator acc(request->k);
    core::ScanStats stats;
    obs::SpanGuard score(request->trace, "score");
    model_->AccumulateTopKRange(branches, 0, n, &acc, &stats);
    score.Annotate("entities", static_cast<double>(stats.entities_scanned));
    score.Annotate("pruned", static_cast<double>(stats.entities_pruned));
    score.End();
    obs::SpanGuard rank(request->trace, "rank");
    FillAnswer(acc.Take(), &answer);
    rank.End();
  }
  // Degraded answers are never cached: the outage must not outlive the
  // replicas that caused it.
  if (options_.cache_capacity > 0 && answer.coverage == 1.0) {
    CachedAnswer entry{answer.entities, answer.distances};
    cache_.Put(request->key, std::move(entry));
  }
  Finish(request, std::move(answer));
}

plan::Plan QueryServer::PlanSolo(const query::QueryGraph& query) const {
  const std::vector<query::QueryGraph> branches = query::ToDnf(query);
  std::vector<plan::PlanItem> items;
  items.reserve(branches.size());
  for (const query::QueryGraph& branch : branches) {
    items.push_back({0, &branch});
  }
  return planner_->BuildPlan(items);
}

plan::ExplainOptions QueryServer::ExplainRenderOptions() const {
  plan::ExplainOptions opt;
  opt.cache = subtree_cache_.get();
  opt.num_entities = model_->config().num_entities;
  if (kg_ != nullptr) {
    const kg::KnowledgeGraph* kg = kg_;
    opt.entity_name = [kg](int64_t id) { return kg->entities().Name(id); };
    opt.relation_name = [kg](int64_t id) {
      return kg->relations().Name(id);
    };
  }
  return opt;
}

Result<std::string> QueryServer::Explain(
    const query::QueryGraph& query) const {
  HALK_RETURN_NOT_OK(ValidateQuery(query, /*k=*/1));
  return plan::ExplainPlan(PlanSolo(query), ExplainRenderOptions());
}

Result<std::string> QueryServer::ExplainAnalyze(
    const query::QueryGraph& query) {
  HALK_RETURN_NOT_OK(ValidateQuery(query, /*k=*/1));
  const plan::Plan plan = PlanSolo(query);

  // A diagnostic run favors estimate accuracy over probe cost: sample a
  // larger slice of the table than the serving default, capped so huge
  // KGs stay interactive.
  plan::ExecOptions exec_options;
  exec_options.collect_actuals = true;
  exec_options.sample_entities =
      std::min<int64_t>(model_->config().num_entities, 4096);
  plan::ExecSchedule schedule =
      plan_executor_->Prepare(plan, /*trace=*/{}, exec_options);
  (void)plan_executor_->Run(plan, &schedule);
  return plan::ExplainAnalyze(plan, schedule.stats, ExplainRenderOptions());
}

std::string QueryServer::DumpMetrics() const {
  std::ostringstream out;
  out << metrics_.DumpText();
  const int64_t hits = cache_hits_->value();
  const int64_t misses = cache_misses_->value();
  const int64_t lookups = hits + misses;
  out << "derived serving.cache_hit_rate "
      << (lookups == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(lookups))
      << "\n";
  const int64_t plan_total = plan_nodes_->value();
  const int64_t plan_unique = plan_unique_nodes_->value();
  out << "derived plan.dedup_ratio "
      << (plan_total == 0 ? 0.0
                          : 1.0 - static_cast<double>(plan_unique) /
                                      static_cast<double>(plan_total))
      << "\n";
  const int64_t subtree_hits = plan_cache_hits_->value();
  const int64_t subtree_lookups = subtree_hits + plan_cache_misses_->value();
  out << "derived plan.subtree_cache_hit_rate "
      << (subtree_lookups == 0 ? 0.0
                               : static_cast<double>(subtree_hits) /
                                     static_cast<double>(subtree_lookups))
      << "\n";
  return out.str();
}

}  // namespace halk::serving

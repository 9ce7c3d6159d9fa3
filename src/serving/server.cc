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

/// Distinct query fingerprints the slow-query log retains.
constexpr size_t kSlowQueryLogCapacity = 32;

/// An obs::NowNs() stamp as a steady-clock time point (the same clock).
Clock::time_point AtNs(int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

double MicrosBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e3;
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
      queue_wait_us_(metrics_.GetHistogram(
          "serving.queue_wait_us",
          Histogram::ExponentialBounds(1.0, 2.0, 26))),
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
  model_->PrepareForServing();
  if (options_.tracer != nullptr &&
      options_.slow_query_threshold.count() > 0) {
    slow_log_ = std::make_unique<obs::SlowQueryLog>(
        kSlowQueryLogCapacity,
        options_.slow_query_threshold.count() * 1000);
  }
  shard::ShardOptions shard_options;
  shard_options.num_shards = options_.num_shards;
  coordinator_ = std::make_unique<shard::ShardCoordinator>(
      model, shard_options, &metrics_);
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
  coordinator_->Stop();
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
  RequestRecord record;
  record.submit_ns = obs::NowNs();
  record.key = query::CanonicalFingerprint(query);
  record.k = k;

  // One relaxed atomic load when tracing is off (StartTrace returns 0 and
  // every span helper below no-ops on the inactive context).
  if (options_.tracer != nullptr) {
    const uint64_t trace_id = options_.tracer->StartTrace();
    if (trace_id != 0) {
      // The root span id is pre-allocated so every phase span can parent
      // it; the root itself is recorded when the request finishes.
      record.root_span = options_.tracer->NextSpanId();
      record.trace = {options_.tracer, trace_id, record.root_span};
    }
  }
  const bool traced = record.trace.active();

  // The request's one answer-cache probe: it counts exactly one hit or one
  // miss, and its end is where queue_wait starts.
  int64_t enqueue_ns = 0;
  if (options_.cache_capacity > 0) {
    const int64_t lookup_start_ns = traced ? obs::NowNs() : 0;
    CachedAnswer cached;
    const bool hit =
        cache_.Get(record.key, &cached) &&
        static_cast<int64_t>(cached.entities.size()) >=
            std::min<int64_t>(k, model_->config().num_entities);
    (hit ? cache_hits_ : cache_misses_)->Increment();
    if (traced) {
      enqueue_ns = obs::NowNs();
      obs::RecordSpan(record.trace, "cache_lookup", lookup_start_ns,
                      enqueue_ns, {{"hit", hit ? 1.0 : 0.0}});
    }
    if (hit) {
      const size_t take = static_cast<size_t>(
          std::min<int64_t>(k, static_cast<int64_t>(cached.entities.size())));
      TopKAnswer answer;
      answer.entities = std::move(cached.entities);
      answer.distances = std::move(cached.distances);
      answer.entities.resize(take);
      answer.distances.resize(take);
      record.observation.cache_hit = true;
      std::promise<Result<TopKAnswer>> ready;
      Finish(&record, std::move(answer), &ready);
      return ready.get_future();
    }
  }

  auto request = std::make_unique<PendingRequest>();
  request->graph = query;
  request->deadline = timeout.count() > 0 ? AtNs(record.submit_ns) + timeout
                                          : Clock::time_point::max();
  request->enqueue_ns = enqueue_ns != 0 ? enqueue_ns : obs::NowNs();
  request->record = std::move(record);
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

void QueryServer::Finish(RequestRecord* record, Result<TopKAnswer> result,
                         std::promise<Result<TopKAnswer>>* promise) {
  obs::QueryObservation& observation = record->observation;
  const obs::TraceContext& trace = record->trace;
  const bool ok = result.ok();
  if (ok) {
    completed_->Increment();
    result->from_cache = observation.cache_hit;
    result->trace_id = trace.trace_id;
  }
  const int64_t end_ns = obs::NowNs();
  observation.latency_us = MicrosBetween(record->submit_ns, end_ns);
  // The trace id rides along as the landing bucket's exemplar, so a
  // scraped latency histogram links back to a concrete trace.
  latency_us_->Observe(observation.latency_us, trace.trace_id);
  if (options_.slo != nullptr) {
    options_.slo->RecordRequest(observation.latency_us, ok);
  }
  // Hits resolve inside Submit: only misses were queued and counted.
  if (!observation.cache_hit) in_flight_->Add(-1.0);
  bool slow = false;
  if (trace.active()) {
    obs::RecordSpan({trace.tracer, trace.trace_id, 0}, "request",
                    record->submit_ns, end_ns,
                    {{"ok", ok ? 1.0 : 0.0},
                     {"cache_hit", observation.cache_hit ? 1.0 : 0.0}},
                    record->root_span);
    slow = slow_log_ != nullptr &&
           end_ns - record->submit_ns >= slow_log_->threshold_ns();
  }
  // The join key of the slow log, the journal and /queryz: rendered at
  // most once, and only when one of them is on.
  std::string fingerprint;
  if (slow || options_.serve_journal != nullptr || query_stats_ != nullptr) {
    fingerprint = record->key.ToHex();
  }
  if (slow) {
    slow_log_->Offer(fingerprint, trace.tracer->Collect(trace.trace_id),
                     observation.plan_nodes, observation.dedup_ratio);
  }
  if (options_.serve_journal != nullptr) {
    options_.serve_journal->Record(
        fingerprint, ok ? "OK" : StatusCodeToString(result.status().code()),
        observation.latency_us, record->k, ok ? result->coverage : 0.0,
        observation.cache_hit, trace.trace_id, observation.plan_nodes,
        observation.dedup_ratio);
  }
  if (query_stats_ != nullptr) query_stats_->Record(fingerprint, observation);
  promise->set_value(std::move(result));
}

void QueryServer::RecordChunkPhase(
    const std::vector<std::unique_ptr<PendingRequest>>& live,
    const char* name, int64_t start_ns, int64_t end_ns,
    std::initializer_list<obs::Annotation> annotations, uint32_t lead_span) {
  for (const std::unique_ptr<PendingRequest>& request : live) {
    if (!request->record.trace.active()) continue;
    obs::RecordSpan(request->record.trace, name, start_ns, end_ns,
                    annotations, lead_span);
    lead_span = 0;
  }
}

void QueryServer::WorkerLoop() {
  std::vector<std::unique_ptr<PendingRequest>> chunk;
  while (queue_.PopBatch(&chunk, options_.max_batch_size)) {
    ServeChunk(&chunk);
    chunk.clear();
  }
}

void QueryServer::ServeChunk(
    std::vector<std::unique_ptr<PendingRequest>>* chunk) {
  // One clock read at pickup ends every queue wait (span and histogram)
  // and is the deadline check's now. Every request here already missed
  // the answer cache.
  const int64_t pickup_ns = obs::NowNs();
  std::vector<std::unique_ptr<PendingRequest>> live;
  live.reserve(chunk->size());
  for (std::unique_ptr<PendingRequest>& request : *chunk) {
    queue_depth_->Add(-1.0);
    queue_wait_us_->Observe(MicrosBetween(request->enqueue_ns, pickup_ns));
    obs::RecordSpan(request->record.trace, "queue_wait", request->enqueue_ns,
                    pickup_ns);
    if (AtNs(pickup_ns) > request->deadline) {
      expired_->Increment();
      Finish(&request->record,
             Status::DeadlineExceeded("expired while queued"),
             &request->promise);
      continue;
    }
    live.push_back(std::move(request));
  }
  if (live.empty()) return;
  plan_requests_->Increment(static_cast<int64_t>(live.size()));

  // DNF-expand every live request; branches (not requests) are the unit of
  // planning, so one plan can mix branches of many requests.
  std::vector<std::vector<query::QueryGraph>> branches(live.size());
  std::vector<plan::PlanItem> items;
  for (size_t r = 0; r < live.size(); ++r) {
    obs::SpanGuard dnf(live[r]->record.trace, "dnf_expand");
    branches[r] = query::ToDnf(live[r]->graph);
    dnf.Annotate("branches", static_cast<double>(branches[r].size()));
    dnf.End();
    for (const query::QueryGraph& branch : branches[r]) {
      items.push_back({r, &branch});
    }
  }

  // Span ids for the shared batch_assembly / embed phases are allocated up
  // front on the first traced request so the executor's subtree_cache_hit
  // events and node_eval spans nest under them; RecordChunkPhase records
  // the spans themselves once their intervals close.
  obs::TraceContext assembly_ctx;
  obs::TraceContext embed_ctx;
  for (const std::unique_ptr<PendingRequest>& request : live) {
    const obs::TraceContext& trace = request->record.trace;
    if (!trace.active()) continue;
    assembly_ctx = trace.Child(trace.tracer->NextSpanId());
    embed_ctx = trace.Child(trace.tracer->NextSpanId());
    break;
  }
  const bool analytics = query_stats_ != nullptr && options_.analytics;
  const int64_t sample_period =
      std::max<int64_t>(1, options_.analyze_sample_period);
  plan::ExecOptions exec_options;
  exec_options.collect_actuals =
      analytics && analyze_chunk_counter_.fetch_add(1) %
                           static_cast<uint64_t>(sample_period) ==
                       0;
  exec_options.sample_entities = options_.analyze_sample_entities;

  // One plan for the whole chunk, then batch assembly (Prepare: the
  // top-down subtree-cache probe plus grouping still-needed nodes into
  // batched operator calls), then one executor pass that materializes
  // every unique subtree with one embedding row per DNF branch root. One
  // clock read per phase boundary feeds both the histograms and the spans.
  const int64_t build_start_ns = obs::NowNs();
  const plan::Plan plan = planner_->BuildPlan(items);
  const int64_t build_end_ns = obs::NowNs();
  plan::ExecSchedule schedule =
      plan_executor_->Prepare(plan, assembly_ctx, exec_options);
  const int64_t assembly_end_ns = obs::NowNs();
  const core::EmbeddingBatch embedding =
      plan_executor_->Run(plan, &schedule, embed_ctx);
  const int64_t embed_end_ns = obs::NowNs();

  plan_build_us_->Observe(MicrosBetween(build_start_ns, build_end_ns));
  plan_exec_us_->Observe(MicrosBetween(assembly_end_ns, embed_end_ns));
  plan_nodes_->Increment(plan.total_nodes);
  plan_unique_nodes_->Increment(static_cast<int64_t>(plan.nodes.size()));
  plan_cache_hits_->Increment(schedule.stats.cache_hits);
  plan_cache_misses_->Increment(schedule.stats.cache_misses);
  plan_op_batches_->Increment(schedule.stats.op_batches);
  plan_node_evals_->Increment(schedule.stats.evaluated);
  for (const plan::ExecSchedule::OpBatch& batch : schedule.batches) {
    batch_size_->Observe(static_cast<double>(batch.node_ids.size()));
  }
  if (subtree_cache_ != nullptr) {
    plan_cache_bytes_->Set(static_cast<double>(subtree_cache_->bytes()));
  }
  RecordChunkPhase(live, "plan_build", build_start_ns, build_end_ns,
                   {{"nodes", static_cast<double>(plan.nodes.size())},
                    {"dedup_ratio", plan.dedup_ratio()}});
  RecordChunkPhase(
      live, "batch_assembly", build_end_ns, assembly_end_ns,
      {{"batches", static_cast<double>(schedule.batches.size())},
       {"chunk_requests", static_cast<double>(live.size())},
       {"subtree_cache_hits", static_cast<double>(schedule.stats.cache_hits)}},
      assembly_ctx.parent);
  RecordChunkPhase(
      live, "embed", assembly_end_ns, embed_end_ns,
      {{"rows", static_cast<double>(plan.roots.size())},
       {"node_evals", static_cast<double>(schedule.stats.evaluated)}},
      embed_ctx.parent);

  // Analytics plane: per-node metric families, the feedback EWMAs, and
  // each request's plan shape written into its record for Finish.
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
      obs::QueryObservation& observation = live[r]->record.observation;
      observation.structure =
          query::StructureFingerprint(live[r]->graph).ToHex();
      observation.dedup_ratio = plan.dedup_ratio();
      while (!stack.empty()) {
        const int32_t id = stack.back();
        stack.pop_back();
        if (visited[static_cast<size_t>(id)]) continue;
        visited[static_cast<size_t>(id)] = 1;
        ++observation.plan_nodes;
        const plan::PlanNode& node = plan.node(id);
        if (measured) {
          const plan::NodeActuals& a = actuals[static_cast<size_t>(id)];
          if (a.evaluated) {
            observation.op_ns[static_cast<size_t>(node.op)] += a.wall_ns;
          }
          if (a.actual_rows >= 0.0) {
            observation.worst_qerror =
                std::max(observation.worst_qerror,
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
  // ranked by the scatter-gather coordinator over the request's branch set.
  std::vector<shard::BranchSet> branch_sets(live.size());
  for (size_t j = 0; j < plan.roots.size(); ++j) {
    shard::BranchSet& set = branch_sets[plan.roots[j].request_index];
    if (set.embeddings.empty()) set.embeddings.push_back(embedding);
    set.rows.emplace_back(0, static_cast<int64_t>(j));
  }

  for (size_t r = 0; r < live.size(); ++r) {
    FinishRanked(live[r].get(), branch_sets[r]);
  }
}

void QueryServer::FinishRanked(PendingRequest* request,
                               const shard::BranchSet& branches) {
  RequestRecord& record = request->record;
  shard::ShardedTopK top = coordinator_->TopKEmbedded(
      branches, record.k, request->deadline, record.trace);
  if (!top.ok() && !top.partial()) {
    Finish(&record, top.status, &request->promise);
    return;
  }
  TopKAnswer answer;
  FillAnswer(top.entries, &answer);
  answer.coverage = top.coverage;
  answer.completeness = top.status;
  // Partial answers are never cached: a later request with more time must
  // get the full-coverage answer.
  if (options_.cache_capacity > 0 && top.ok()) {
    CachedAnswer entry{answer.entities, answer.distances};
    cache_.Put(record.key, std::move(entry));
  }
  Finish(&record, std::move(answer), &request->promise);
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

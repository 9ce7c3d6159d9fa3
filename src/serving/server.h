#ifndef HALK_SERVING_SERVER_H_
#define HALK_SERVING_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/query_model.h"
#include "kg/graph.h"
#include "obs/journal.h"
#include "obs/query_stats.h"
#include "obs/slo_tracker.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "plan/executor.h"
#include "plan/explain.h"
#include "plan/planner.h"
#include "query/dag.h"
#include "query/fingerprint.h"
#include "serving/lru_cache.h"
#include "serving/metrics.h"
#include "serving/request_queue.h"
#include "serving/subtree_cache.h"
#include "shard/coordinator.h"

namespace halk::serving {

/// Tuning knobs of the serving engine. The defaults favor throughput on a
/// trained mid-size model; tests shrink them to force edge cases.
struct ServerOptions {
  /// Worker threads draining the request queue.
  int num_workers = 4;
  /// Admission-queue capacity; Submit rejects (kUnavailable) beyond it.
  size_t queue_capacity = 1024;
  /// Upper bound on requests per worker chunk (one plan per chunk).
  size_t max_batch_size = 16;
  /// How long a worker lingers for stragglers when its chunk is not full.
  std::chrono::microseconds batch_linger{100};
  /// Entry capacity of the answer cache; 0 disables caching outright.
  size_t cache_capacity = 4096;
  /// Entity-table shards ranked in parallel per request (>= 1). Shard 0
  /// is scanned on the serving worker thread, so the default of 1 spawns
  /// no shard thread at all.
  int num_shards = 1;
  /// Optional request tracer (must outlive the server). While its enabled
  /// flag is set, every submitted request records a span tree — queue
  /// wait, cache lookup, DNF expansion, batching, embedding, per-shard
  /// scatter/scan, merge — retrievable via tracer->Collect(trace_id) with
  /// the id returned in TopKAnswer::trace_id. Null or disabled costs one
  /// relaxed atomic load per request.
  obs::Tracer* tracer = nullptr;
  /// Rolling-window SLO tracker fed with every finished request's latency
  /// and outcome (must outlive the server; null disables). Burn rates are
  /// exported when the tracker registered its metrics — typically into
  /// this server's registry via slo->RegisterMetrics(server.metrics()).
  obs::SloTracker* slo = nullptr;
  /// Per-request JSONL audit journal (fingerprint, status, latency,
  /// coverage, cache hit, trace id); must outlive the server. Null
  /// disables — the journal write is a mutex-serialized flushed append,
  /// so enable it for auditing, not for peak throughput.
  obs::ServeJournal* serve_journal = nullptr;
  /// Requests slower than this land in the slow-query log (zero disables
  /// the log; it only retains traces, so it also requires `tracer`).
  std::chrono::microseconds slow_query_threshold{0};
  /// Distinct query fingerprints retained by the slow-query log.
  size_t slow_query_log_capacity = 32;
  /// Byte budget of the subtree (intermediate-result) cache; 0 disables
  /// it.
  size_t subtree_cache_bytes = 8u << 20;
  /// Query analytics plane: collect per-node actuals on sampled planned
  /// chunks (attributed wall, sampled actual rows, cache / slot-reuse
  /// flags), feed the fingerprint-keyed query-statistics store behind
  /// /queryz, and export the plan.qerror / plan.node_us metric families.
  /// Request-level aggregation (hits, latency, plan shape) covers every
  /// request; the per-node membership probes run on one planned chunk in
  /// analyze_sample_period, so the amortized cost stays within the
  /// bench-smoke CI gate (analytics-on throughput within 5% of off).
  bool analytics = true;
  /// Entities probed per plan node for the sampled actual-rows estimate.
  int64_t analyze_sample_entities = 256;
  /// Collect per-node actuals on one planned chunk in this many (the
  /// first chunk is always sampled; values < 1 behave as 1 = every
  /// chunk). Probing every chunk costs O(nodes * analyze_sample_entities)
  /// distance evaluations per chunk — measurably slower than serving
  /// itself on cheap queries — while the q-error and feedback aggregates
  /// converge fine from samples.
  int64_t analyze_sample_period = 16;
  /// Distinct canonical fingerprints the query-statistics store retains
  /// (LRU beyond it); 0 disables the store — and with it /queryz feeding,
  /// q-error aggregation, and cardinality feedback.
  size_t query_stats_capacity = 512;
  /// Cardinality feedback: let the planner override cost-model estimates
  /// with the store's observed subtree cardinalities when ordering each
  /// depth level. Ordering is all that changes — operator math never
  /// reads the scheduling key, so served rankings stay bit-identical to
  /// Evaluator::TopK (the equivalence suite proves it with this on).
  /// Default off; requires analytics to have something to feed it.
  bool use_feedback = false;
  /// Observations of a subtree required before feedback trusts its EWMA.
  int64_t feedback_min_samples = 2;
};

/// A served top-k answer: entity ids in ascending model distance.
struct TopKAnswer {
  std::vector<int64_t> entities;
  std::vector<float> distances;
  bool from_cache = false;
  /// Fraction of the entity table scored. Below 1 only when some shard
  /// missed the request deadline; the entities are still the exact top-k
  /// of the covered fraction.
  double coverage = 1.0;
  /// OK, or kPartialResult when coverage < 1.
  Status completeness;
  /// Id of the request's trace when the server's tracer captured one
  /// (pass to Tracer::Collect); 0 when tracing was off for this request.
  uint64_t trace_id = 0;
};

/// Concurrent query-serving engine over a trained QueryModel (Sec. IV's
/// evaluation path, productionized): any thread submits grounded query
/// graphs; a bounded MPMC queue applies admission control; worker threads
/// drain pending requests in chunks, and the cost-based planner
/// (src/plan/) turns each chunk into one deduplicated compute DAG that the
/// shared-graph executor evaluates through the model's OperatorModel
/// surface — every model implements it, so every model serves this way.
/// Canonical-fingerprint LRU caching short-circuits repeated queries;
/// counters and latency histograms are exported through a
/// MetricsRegistry. Answers are bit-identical to Evaluator::TopK.
///
/// Union queries are DNF-expanded (exactly as Evaluator does) and their
/// branches plan independently — a branch of one request can share plan
/// nodes with branches of other requests.
class QueryServer {
 public:
  /// `model` must stay alive for the server's lifetime and is shared with
  /// the workers — inference paths (EmbedQueries / AccumulateTopKRange) only
  /// read parameters, so no external synchronization is needed as long as
  /// nobody trains the model while it serves. `kg` (optional, may be null)
  /// adds grounding validation against the graph's vocabulary.
  QueryServer(core::QueryModel* model, const kg::KnowledgeGraph* kg,
              const ServerOptions& options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Submits one query for asynchronous answering. Fails fast with
  /// kUnavailable when the queue is full (admission control) and
  /// kInvalidArgument for malformed/unsupported queries; cache hits
  /// resolve before returning. `timeout` zero means no deadline; a request
  /// still queued when its deadline passes resolves to kDeadlineExceeded.
  [[nodiscard]] Result<std::future<Result<TopKAnswer>>> Submit(
      const query::QueryGraph& query, int64_t k,
      std::chrono::microseconds timeout = std::chrono::microseconds::zero());

  /// Synchronous convenience wrapper around Submit.
  [[nodiscard]] Result<TopKAnswer> Answer(
      const query::QueryGraph& query, int64_t k,
      std::chrono::microseconds timeout = std::chrono::microseconds::zero());

  /// Stops admission, drains queued requests, and joins the workers.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  MetricsRegistry* metrics() { return &metrics_; }
  /// Plain-text metrics dump plus derived cache hit rate, planner dedup
  /// ratio, and subtree-cache hit rate.
  std::string DumpMetrics() const;

  /// Renders the plan the server would run for `query` — node order,
  /// estimated selectivities, dedup and subtree-cache annotations —
  /// without executing it (the sparql_endpoint `.explain` command).
  /// kInvalidArgument for malformed or unsupported queries.
  [[nodiscard]] Result<std::string> Explain(
      const query::QueryGraph& query) const;

  /// EXPLAIN ANALYZE: plans `query` solo, executes it with per-node
  /// actuals collection, and renders estimated vs. sampled-actual rows,
  /// per-node q-error, attributed wall time, and cache annotations (the
  /// sparql_endpoint `.analyze` command). Unlike Explain this *runs* the
  /// plan — it warms the subtree cache exactly as serving would, but
  /// bypasses the queue, the answer cache, and ranking. Same errors as
  /// Explain.
  [[nodiscard]] Result<std::string> ExplainAnalyze(
      const query::QueryGraph& query);

  /// The intermediate-result cache, or null when subtree_cache_bytes is 0.
  /// Invalidation hooks live here: InvalidateRelation / Clear after KG or
  /// parameter updates.
  SubtreeCache* subtree_cache() { return subtree_cache_.get(); }

  /// The fingerprint-keyed query-statistics store (the /queryz source and
  /// feedback seam), or null when query_stats_capacity was 0 or both
  /// analytics and use_feedback were off.
  obs::QueryStatsStore* query_stats() { return query_stats_.get(); }

  /// The tracer from ServerOptions, or null.
  obs::Tracer* tracer() { return options_.tracer; }
  /// The slow-query log, or null when slow_query_threshold was zero or no
  /// tracer was configured.
  obs::SlowQueryLog* slow_query_log() { return slow_log_.get(); }

  const ServerOptions& options() const { return options_; }

  /// The sharded execution engine every request ranks through.
  shard::ShardCoordinator* coordinator() { return coordinator_.get(); }

 private:
  struct CachedAnswer {
    std::vector<int64_t> entities;
    std::vector<float> distances;
  };

  struct PendingRequest {
    query::QueryGraph graph;
    int64_t k = 0;
    query::Fingerprint key;
    std::chrono::steady_clock::time_point submit_time;
    std::chrono::steady_clock::time_point deadline;  // max() = none
    bool has_deadline = false;
    /// Trace handle parented at the request's root span; inactive when
    /// tracing is off. `root_span` is pre-allocated at Submit so children
    /// can reference it before the root is recorded at Finish.
    obs::TraceContext trace;
    uint32_t root_span = 0;
    int64_t submit_ns = 0;
    /// Analytics stashed by ServeChunkPlanned for Finish to fold into the
    /// query-stats store, the slow-query log, and the serve journal:
    /// structure fingerprint, reachable plan nodes, the chunk plan's dedup
    /// ratio, worst node q-error, and per-operator attributed wall.
    std::string structure;
    int64_t plan_node_count = 0;
    double plan_dedup = 0.0;
    double worst_qerror = 0.0;
    std::array<int64_t, obs::kNumOpKinds> op_ns{};
    std::promise<Result<TopKAnswer>> promise;
  };

  void WorkerLoop();
  void ServeChunk(std::vector<std::unique_ptr<PendingRequest>>* chunk);
  /// One deduplicated compute DAG for the whole chunk, one embedding row
  /// per DNF branch root. `branches[r]` are request r's DNF branches; both
  /// vectors are indexed by position in `live`.
  void ServeChunkPlanned(
      std::vector<std::unique_ptr<PendingRequest>>* live,
      const std::vector<std::vector<query::QueryGraph>>& branches,
      bool any_traced);
  /// Ranks a request through the coordinator over its DNF `branches`,
  /// fills the answer cache, and resolves the promise.
  void FinishRanked(PendingRequest* request,
                    const shard::BranchSet& branches);
  [[nodiscard]] Status ValidateQuery(const query::QueryGraph& query, int64_t k) const;
  /// Plans one request's DNF branches alone (Explain / ExplainAnalyze).
  plan::Plan PlanSolo(const query::QueryGraph& query) const;
  /// Render options for Explain / ExplainAnalyze: live subtree-cache
  /// annotations and, when a KG is attached, entity / relation names.
  plan::ExplainOptions ExplainRenderOptions() const;
  void Finish(PendingRequest* request, Result<TopKAnswer> result);

  core::QueryModel* model_;
  const kg::KnowledgeGraph* kg_;  // may be null
  ServerOptions options_;

  BoundedQueue<std::unique_ptr<PendingRequest>> queue_;
  LruCache<query::Fingerprint, CachedAnswer, query::FingerprintHash> cache_;
  MetricsRegistry metrics_;
  std::unique_ptr<shard::ShardCoordinator> coordinator_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;  // null = disabled

  // The executor's OperatorModel pointer aliases model_; the subtree cache
  // (null when subtree_cache_bytes is 0) is internally synchronized.
  std::unique_ptr<plan::Planner> planner_;
  std::unique_ptr<plan::PlanExecutor> plan_executor_;
  std::unique_ptr<SubtreeCache> subtree_cache_;
  std::unique_ptr<obs::QueryStatsStore> query_stats_;  // null = disabled

  // Hot-path instrument pointers (stable for the registry's lifetime).
  Counter* submitted_;
  Counter* rejected_;
  Counter* invalid_;
  Counter* completed_;
  Counter* expired_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  Histogram* latency_us_;
  Histogram* batch_size_;
  Gauge* queue_depth_;  // requests admitted, not yet picked up
  Gauge* in_flight_;    // requests admitted, not yet finished

  // Planner instruments.
  Counter* plan_requests_;
  Counter* plan_nodes_;
  Counter* plan_unique_nodes_;
  Counter* plan_node_evals_;
  Counter* plan_cache_hits_;
  Counter* plan_cache_misses_;
  Counter* plan_op_batches_;
  Histogram* plan_build_us_;
  Histogram* plan_exec_us_;
  Gauge* plan_cache_bytes_;
  // Analytics-plane instruments: per-node q-error and one labeled
  // plan.node_us child per operator kind, pre-resolved so the hot path
  // never takes the registry lock.
  Histogram* plan_qerror_;
  std::array<Histogram*, obs::kNumOpKinds> plan_node_us_{};
  // Planned-chunk counter electing the 1-in-analyze_sample_period chunks
  // that pay for per-node membership probes. Starts at 0 so the very
  // first chunk is always measured.
  std::atomic<uint64_t> analyze_chunk_counter_{0};

  std::vector<std::thread> workers_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace halk::serving

#endif  // HALK_SERVING_SERVER_H_


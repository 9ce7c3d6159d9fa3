#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "core/distance.h"
#include "core/topk.h"
#include "obs/query_stats.h"
#include "obs/trace.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "query/dnf.h"
#include "query/fingerprint.h"
#include "serving/lru_cache.h"
#include "serving/metrics.h"
#include "serving/subtree_cache.h"
#include "shard/coordinator.h"

namespace halk::bench_e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// The layer boundaries the replay times, one span name each.
enum Layer : uint8_t {
  kChunk,
  kRequest,
  kValidate,
  kFingerprint,
  kCacheGet,
  kDnf,
  kPlanBuild,
  kPlanPrepare,
  kPlanRun,
  kScan,
  kRank,
  kBoundedScan,
  kStoreScan,
  kMerge,
  kShardTopK,
  kStatsRecord,
  kLatencyObserve,
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "chunk",           "request",         "query.validate",
    "query.fingerprint", "serving.cache_get", "query.dnf",
    "plan.build",      "plan.prepare",    "plan.run",
    "core.scan",       "core.rank",       "core.bounded_scan",
    "store.scan",      "core.merge",      "shard.topk",
    "obs.stats_record", "obs.latency_observe"};

/// Spans written to the Chrome trace; the metrics use every span.
constexpr size_t kMaxTraceSpans = 20000;

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double work = 0.0;  // entity * dimension (* branch) units of a scan
  int64_t request = -1;
  int32_t parent = 0;  // 1-based span id, 0 = none
  Layer layer = kChunk;
};

/// In-memory span log. Disabled, Open/Close read no clock and store
/// nothing, so a spans-off pass runs exactly the same calls minus the
/// tracing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int32_t Open(Layer layer, int32_t parent, int64_t request,
               double work = 0.0) {
    if (!enabled_) return 0;
    // Stamped after the push so a growing log never bills its
    // reallocation to the span.
    spans_.push_back({0, 0, work, request, parent, layer});
    spans_.back().start_ns = obs::NowNs();
    return static_cast<int32_t>(spans_.size());
  }
  void Close(int32_t id) {
    if (id != 0) spans_[static_cast<size_t>(id - 1)].end_ns = obs::NowNs();
  }
  int64_t Duration(int32_t id) const {
    if (id == 0) return 0;
    const Span& s = spans_[static_cast<size_t>(id - 1)];
    return s.end_ns - s.start_ns;
  }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class Scoped {
 public:
  Scoped(SpanLog* log, Layer layer, int32_t parent, int64_t request,
         double work = 0.0)
      : log_(log), id_(log->Open(layer, parent, request, work)) {}
  ~Scoped() { End(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int32_t id() const { return id_; }

  /// Closes the span now (idempotent); returns its duration, 0 when the
  /// log is disabled.
  int64_t End() {
    if (!ended_) log_->Close(id_);
    ended_ = true;
    return log_->Duration(id_);
  }

 private:
  SpanLog* log_;
  int32_t id_;
  bool ended_ = false;
};

/// Counters summed over one pass.
struct PassTotals {
  int64_t live_requests = 0;
  int64_t branches = 0;
  int64_t store_entities = 0;
  int64_t store_pruned = 0;
  int64_t blocks_scanned = 0;
  int64_t blocks_skipped = 0;
  int64_t digests_compared = 0;
  std::vector<double> scatter_overhead_us;
};

/// One replay pass from fresh bench-owned caches. Returns false (with
/// `*error`) on the first disagreement.
class Pass {
 public:
  Pass(const ReplayInputs& in, shard::ShardCoordinator* coordinator,
       SpanLog* log)
      : in_(in),
        spec_(*in.spec),
        served_(in.setup->served()),
        reference_(in.reference),
        store_(in.setup->store.get()),
        coordinator_(coordinator),
        log_(log),
        cache_(spec_.server.cache_capacity),
        subtree_cache_(spec_.server.subtree_cache_bytes),
        planner_(&in.world->stats(),
                 served_->config().num_entities),
        executor_(served_, served_->AsOperatorModel(), &subtree_cache_),
        query_stats_(spec_.server.query_stats_capacity, 4096,
                     spec_.server.feedback_min_samples),
        latency_us_(serving::Histogram::ExponentialBounds(1.0, 2.0, 26)) {}

  bool Run(int64_t end, PassTotals* totals, std::string* error) {
    totals_ = totals;
    error_ = error;
    const int64_t chunk = std::max(1, spec_.clients);
    for (int64_t j = 0; j < end; j += chunk) {
      if (!RunChunk(j, std::min(end, j + chunk))) return false;
    }
    return true;
  }

 private:
  struct Request {
    int64_t j = 0;
    query::QueryGraph scratch;
    const query::QueryGraph* graph = nullptr;
    query::Fingerprint key;
    Clock::time_point start;
    int32_t span = 0;
    std::vector<query::QueryGraph> branches;
  };

  bool RunChunk(int64_t begin, int64_t end) {
    Scoped chunk(log_, kChunk, 0, begin);
    std::vector<std::unique_ptr<Request>> live;
    for (int64_t j = begin; j < end; ++j) {
      auto r = std::make_unique<Request>();
      r->j = j;
      r->graph = &in_.setup->requests->At(j, &r->scratch);
      r->start = Clock::now();
      r->span = log_->Open(kRequest, chunk.id(), j);
      Status valid;
      {
        Scoped s(log_, kValidate, r->span, j);
        valid = r->graph->Validate(/*grounded=*/true);
      }
      if (!valid.ok()) return Fail("request " + std::to_string(j) + ": " +
                                   valid.ToString());
      {
        Scoped s(log_, kFingerprint, r->span, j);
        r->key = query::CanonicalFingerprint(*r->graph);
      }
      Ranking cached;
      bool hit = false;
      {
        Scoped s(log_, kCacheGet, r->span, j);
        hit = cache_.Get(r->key, &cached) &&
              static_cast<int64_t>(cached.entities.size()) >=
                  std::min<int64_t>(kTopK, served_->config().num_entities);
      }
      if (hit) {
        const size_t take = std::min<size_t>(kTopK, cached.entities.size());
        cached.entities.resize(take);
        cached.distances.resize(take);
        if (!Finish(r.get(), cached, /*cache_hit=*/true)) return false;
        continue;
      }
      live.push_back(std::move(r));
    }
    if (live.empty()) return true;

    std::vector<plan::PlanItem> items;
    for (size_t r = 0; r < live.size(); ++r) {
      {
        Scoped s(log_, kDnf, live[r]->span, live[r]->j);
        live[r]->branches = query::ToDnf(*live[r]->graph);
      }
      totals_->branches += static_cast<int64_t>(live[r]->branches.size());
      ++totals_->live_requests;
    }
    for (size_t r = 0; r < live.size(); ++r) {
      for (const query::QueryGraph& branch : live[r]->branches) {
        items.push_back({r, &branch});
      }
    }
    plan::Plan plan;
    {
      Scoped s(log_, kPlanBuild, chunk.id(), begin);
      plan = planner_.BuildPlan(items);
    }
    // The server's analytics sampling: actuals on one chunk in
    // analyze_sample_period, the first one included.
    plan::ExecOptions exec_options;
    exec_options.collect_actuals =
        spec_.server.analytics &&
        chunk_counter_++ %
                static_cast<uint64_t>(
                    std::max<int64_t>(1, spec_.server.analyze_sample_period)) ==
            0;
    exec_options.sample_entities = spec_.server.analyze_sample_entities;
    plan::ExecSchedule schedule;
    {
      Scoped s(log_, kPlanPrepare, chunk.id(), begin);
      schedule = executor_.Prepare(plan, {}, exec_options);
    }
    core::EmbeddingBatch embedding;
    {
      Scoped s(log_, kPlanRun, chunk.id(), begin);
      embedding = executor_.Run(plan, &schedule);
    }
    for (size_t r = 0; r < live.size(); ++r) {
      std::vector<int64_t> rows;
      for (size_t root = 0; root < plan.roots.size(); ++root) {
        if (plan.roots[root].request_index == r) {
          rows.push_back(static_cast<int64_t>(root));
        }
      }
      Ranking answer;
      if (!Rank(live[r].get(), embedding, rows, &answer)) return false;
      cache_.Put(live[r]->key, answer);
      if (!Finish(live[r].get(), answer, /*cache_hit=*/false)) return false;
    }
    return true;
  }

  /// Ranks one request every way the workload's model can and checks they
  /// agree.
  bool Rank(const Request* r, const core::EmbeddingBatch& embedding,
            const std::vector<int64_t>& rows, Ranking* answer) {
    const core::ModelConfig& config = reference_->config();
    const int64_t n = config.num_entities;
    const int64_t d = config.dim;
    const double branches = static_cast<double>(rows.size());

    // The unsharded serving path: DistancesToAll per branch, then the
    // min-merge and TopKFromDistances.
    std::vector<std::vector<float>> dist(rows.size());
    for (size_t b = 0; b < rows.size(); ++b) {
      Scoped s(log_, kScan, r->span, r->j, static_cast<double>(n * d));
      reference_->DistancesToAll(embedding, rows[b], &dist[b]);
    }
    std::vector<core::ScoredEntity> ranked;
    {
      Scoped s(log_, kRank, r->span, r->j);
      std::vector<float>& best = dist[0];
      for (size_t b = 1; b < rows.size(); ++b) {
        for (size_t i = 0; i < best.size(); ++i) {
          best[i] = std::min(best[i], dist[b][i]);
        }
      }
      ranked = core::TopKFromDistances(best, kTopK);
    }

    // The in-RAM bound-aware kernel over the whole table.
    std::vector<core::BranchRef> refs;
    for (const int64_t row : rows) refs.push_back({&embedding, row});
    core::TopKAccumulator bounded_acc(kTopK);
    {
      Scoped s(log_, kBoundedScan, r->span, r->j,
               static_cast<double>(n * d) * branches);
      reference_->AccumulateTopKRange(refs, 0, n, &bounded_acc);
    }
    if (bounded_acc.Take() != ranked) {
      return Fail("in-RAM AccumulateTopKRange disagrees with DistancesToAll "
                  "at request " + std::to_string(r->j));
    }

    shard::ShardedTopK gathered;
    if (store_ != nullptr &&
        !RankFromStore(r, embedding, rows, ranked, &gathered)) {
      return false;
    }
    const std::vector<core::ScoredEntity>& served =
        store_ != nullptr ? gathered.entries : ranked;
    for (const core::ScoredEntity& e : served) {
      answer->entities.push_back(e.entity);
      answer->distances.push_back(e.distance);
    }
    return true;
  }

  /// The store-backed serving path: per-shard-range columnar store scans
  /// and the k-way merge, then scatter-gather over the store-backed model.
  /// Both must equal `ranked`; the coordinator's answer is the served one.
  bool RankFromStore(const Request* r, const core::EmbeddingBatch& embedding,
                     const std::vector<int64_t>& rows,
                     const std::vector<core::ScoredEntity>& ranked,
                     shard::ShardedTopK* gathered) {
    const core::ModelConfig& config = reference_->config();
    const int64_t d = config.dim;
    const double branches = static_cast<double>(rows.size());
    std::vector<core::ArcConstants> arcs;
    shard::BranchSet set;
    set.embeddings.push_back(embedding);
    for (const int64_t row : rows) {
      arcs.push_back(core::MakeArcConstants(embedding.a.data() + row * d,
                                            embedding.b.data() + row * d, d,
                                            config.rho, config.eta));
      set.rows.emplace_back(0, row);
    }

    std::vector<std::vector<core::ScoredEntity>> partials;
    int64_t slowest_scan_ns = 0;
    for (int s = 0; s < coordinator_->num_shards(); ++s) {
      const shard::EntityRange range = coordinator_->shard_range(s);
      core::TopKAccumulator acc(kTopK);
      core::ScanStats stats;
      {
        Scoped span(log_, kStoreScan, r->span, r->j,
                    static_cast<double>(range.size() * d) * branches);
        store_->AccumulateTopKRange(arcs, range.begin, range.end, &acc,
                                    &stats);
        slowest_scan_ns = std::max(slowest_scan_ns, span.End());
      }
      partials.push_back(acc.Take());
      totals_->store_entities += stats.entities_scanned;
      totals_->store_pruned += stats.entities_pruned;
      totals_->blocks_scanned += stats.column_blocks_scanned;
      totals_->blocks_skipped += stats.column_blocks_skipped;
    }
    std::vector<core::ScoredEntity> merged;
    {
      Scoped s(log_, kMerge, r->span, r->j);
      merged = core::MergeTopK(partials, kTopK);
    }

    {
      Scoped s(log_, kShardTopK, r->span, r->j);
      *gathered = coordinator_->TopKEmbedded(set, kTopK);
      const int64_t topk_ns = s.End();
      if (log_->enabled()) {
        totals_->scatter_overhead_us.push_back(
            static_cast<double>(topk_ns - slowest_scan_ns) / 1e3);
      }
    }
    if (!gathered->ok()) {
      return Fail("scatter-gather failed: " + gathered->status.ToString());
    }
    const char* disagreeing = nullptr;
    if (merged != ranked) disagreeing = "store scan + MergeTopK";
    if (gathered->entries != ranked) disagreeing = "ShardCoordinator";
    if (disagreeing != nullptr) {
      return Fail(std::string(disagreeing) +
                  " disagrees with DistancesToAll at request " +
                  std::to_string(r->j));
    }
    return true;
  }

  /// The server's Finish sinks, then the end-to-end answer comparison.
  bool Finish(Request* r, const Ranking& answer, bool cache_hit) {
    const double latency_us =
        std::chrono::duration<double, std::micro>(Clock::now() - r->start)
            .count();
    {
      Scoped s(log_, kStatsRecord, r->span, r->j);
      obs::QueryObservation observation;
      observation.latency_us = latency_us;
      observation.cache_hit = cache_hit;
      query_stats_.Record(r->key.ToHex(), observation);
    }
    {
      Scoped s(log_, kLatencyObserve, r->span, r->j);
      latency_us_.Observe(latency_us);
    }
    log_->Close(r->span);
    const int64_t m = r->j - in_.setup->requests->warmup();
    const std::vector<uint64_t>& e2e = *in_.e2e_digests;
    if (m >= 0 && m < static_cast<int64_t>(e2e.size()) &&
        e2e[static_cast<size_t>(m)] != 0) {
      ++totals_->digests_compared;
      if (AnswerDigest(answer.entities, answer.distances) !=
          e2e[static_cast<size_t>(m)]) {
        return Fail("replayed answer differs from the end-to-end answer of "
                    "measured request " + std::to_string(m));
      }
    }
    return true;
  }

  bool Fail(const std::string& message) {
    *error_ = message;
    return false;
  }

  const ReplayInputs& in_;
  const WorkloadSpec& spec_;
  core::HalkModel* served_;
  const core::HalkModel* reference_;
  const store::EmbeddingStore* store_;       // null unless store-backed
  shard::ShardCoordinator* coordinator_;     // null unless store-backed
  SpanLog* log_;
  serving::LruCache<query::Fingerprint, Ranking, query::FingerprintHash>
      cache_;
  serving::SubtreeCache subtree_cache_;
  plan::Planner planner_;
  plan::PlanExecutor executor_;
  obs::QueryStatsStore query_stats_;
  serving::Histogram latency_us_;
  uint64_t chunk_counter_ = 0;
  PassTotals* totals_ = nullptr;
  std::string* error_ = nullptr;
};

void WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  const size_t n = std::min(spans.size(), kMaxTraceSpans);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"replay\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{"
                 "\"id\":%zu,\"parent\":%d,\"request\":%lld}}",
                 i == 0 ? "" : ",", kLayerNames[s.layer],
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                 s.parent, static_cast<long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace

ReplayResult RunReplay(const ReplayInputs& in) {
  ReplayResult result;
  std::unique_ptr<shard::ShardCoordinator> coordinator;
  if (in.setup->store != nullptr) {
    shard::ShardOptions shard_options;
    shard_options.num_shards = kShards;
    coordinator = std::make_unique<shard::ShardCoordinator>(
        in.setup->store_model.get(), shard_options);
  }
  const int64_t end = in.setup->requests->warmup() + in.spec->replay;

  // Pass 0 is untimed: it alone would pay first touches of the mapped
  // snapshot and the allocator's growth, biasing the ratio of passes 1, 2.
  double wall[3] = {0.0, 0.0, 0.0};
  SpanLog off(/*enabled=*/false);
  SpanLog on(/*enabled=*/true);
  PassTotals totals[3];
  SpanLog* logs[3] = {&off, &off, &on};
  for (int p = 0; p < 3; ++p) {
    Pass pass(in, coordinator.get(), logs[p]);
    const Clock::time_point start = Clock::now();
    const bool ok = pass.Run(end, &totals[p], &result.error);
    wall[p] = std::chrono::duration<double>(Clock::now() - start).count();
    result.requests += end;
    if (!ok) {
      result.ok = false;
      return result;
    }
  }
  if (totals[2].digests_compared == 0) {
    result.ok = false;
    result.error = "no replayed answer had an end-to-end counterpart";
    return result;
  }

  // Per-call durations (and per-unit-of-work costs) from the traced pass.
  std::vector<double> us[kNumLayers];
  std::vector<double> ns_per_work[kNumLayers];
  for (const Span& s : on.spans()) {
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    us[s.layer].push_back(ns / 1e3);
    if (s.work > 0.0) ns_per_work[s.layer].push_back(ns / s.work);
  }
  const PassTotals& t = totals[2];
  const store::EmbeddingStore* store = in.setup->store.get();
  // Layers a workload's requests never reach (no spans, no counts) read 0.
  result.metrics = {
      {"core.scan_us", Median(us[kScan])},
      {"core.scan_ns_per_entity_dim", Median(ns_per_work[kScan])},
      {"query.branches_per_request", Ratio(t.branches, t.live_requests)},
      {"core.bounded_scan_ns_per_entity_dim",
       Median(ns_per_work[kBoundedScan])},
      {"core.rank_us", Median(us[kRank])},
      {"store.scan_ns_per_entity_dim", Median(ns_per_work[kStoreScan])},
      {"store.pruned_fraction", Ratio(t.store_pruned, t.store_entities)},
      {"store.blocks_skipped_ratio",
       Ratio(t.blocks_skipped, t.blocks_scanned + t.blocks_skipped)},
      {"store.resident_mib",
       store == nullptr ? 0.0
                        : static_cast<double>(store->ResidentBytes()) /
                              (1024.0 * 1024.0)},
      {"shard.topk_us", Median(us[kShardTopK])},
      {"shard.scatter_overhead_us", Median(t.scatter_overhead_us)},
      {"core.merge_us", Median(us[kMerge])},
      {"plan.build_us", Median(us[kPlanBuild])},
      {"plan.prepare_us", Median(us[kPlanPrepare])},
      {"plan.run_us", Median(us[kPlanRun])},
      {"query.dnf_us", Median(us[kDnf])},
      {"serving.cache_get_us", Median(us[kCacheGet])},
      {"query.validate_us", Median(us[kValidate])},
      {"query.fingerprint_us", Median(us[kFingerprint])},
      {"obs.stats_record_us", Median(us[kStatsRecord])},
      {"obs.latency_observe_ns", Median(us[kLatencyObserve]) * 1e3},
      {"obs.trace_overhead", wall[2] / wall[1]},
  };
  if (!in.trace_path.empty()) WriteChromeTrace(on.spans(), in.trace_path);
  return result;
}

}  // namespace halk::bench_e2e

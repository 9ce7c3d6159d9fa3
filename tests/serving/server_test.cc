#include "serving/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/halk_model.h"
#include "kg/synthetic.h"
#include "obs/journal.h"
#include "obs/query_stats.h"
#include "obs/slo_tracker.h"
#include "obs/trace.h"
#include "query/sampler.h"
#include "query/structures.h"
#include "shard/slow_range_model.h"

namespace halk::serving {
namespace {

using query::StructureId;

/// Shared fixture: a small synthetic KG and an (untrained) HaLk model.
/// Serving correctness is weight-independent, so training is skipped.
class QueryServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 150;
    opt.num_relations = 6;
    opt.num_triples = 900;
    opt.seed = 11;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
    core::ModelConfig config;
    config.num_entities = dataset_->train.num_entities();
    config.num_relations = dataset_->train.num_relations();
    config.dim = 8;
    config.hidden = 16;
    config.seed = 7;
    model_ = new core::HalkModel(config, nullptr);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
  }

  static std::vector<query::GroundedQuery> SampleQueries(
      StructureId structure, int count, uint64_t seed) {
    query::QuerySampler sampler(&dataset_->train, seed);
    return sampler.SampleMany(structure, count).ValueOrDie();
  }

  static kg::Dataset* dataset_;
  static core::HalkModel* model_;
};

kg::Dataset* QueryServerTest::dataset_ = nullptr;
core::HalkModel* QueryServerTest::model_ = nullptr;

TEST_F(QueryServerTest, AgreesWithUncachedEvaluatorAcrossStructures) {
  ServerOptions options;
  options.num_workers = 3;
  options.max_batch_size = 4;
  QueryServer server(model_, &dataset_->train, options);
  core::Evaluator evaluator(model_);
  // Union structures exercise the DNF branch batching.
  for (StructureId s : {StructureId::k1p, StructureId::k2p, StructureId::k2i,
                        StructureId::k2in, StructureId::k2d,
                        StructureId::k2u, StructureId::kUp}) {
    for (const query::GroundedQuery& q : SampleQueries(s, 3, 101)) {
      Result<TopKAnswer> served = server.Answer(q.graph, 10);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      std::vector<int64_t> expected = evaluator.TopK(q.graph, 10);
      EXPECT_EQ(served->entities, expected)
          << "structure " << query::StructureName(s);
    }
  }
}

TEST_F(QueryServerTest, CacheHitMatchesUncachedAnswer) {
  ServerOptions cached_options;
  cached_options.num_workers = 2;
  ServerOptions uncached_options;
  uncached_options.num_workers = 2;
  uncached_options.cache_capacity = 0;
  QueryServer cached(model_, &dataset_->train, cached_options);
  QueryServer uncached(model_, &dataset_->train, uncached_options);

  query::GroundedQuery q = SampleQueries(StructureId::k2i, 1, 33)[0];
  Result<TopKAnswer> first = cached.Answer(q.graph, 8);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  Result<TopKAnswer> second = cached.Answer(q.graph, 8);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  Result<TopKAnswer> baseline = uncached.Answer(q.graph, 8);
  ASSERT_TRUE(baseline.ok());

  EXPECT_EQ(first->entities, baseline->entities);
  EXPECT_EQ(second->entities, baseline->entities);
  EXPECT_EQ(second->distances, baseline->distances);
  EXPECT_GE(cached.metrics()->CounterValue("serving.cache_hits"), 1);
}

TEST_F(QueryServerTest, SmallerKIsServedFromLargerCachedEntry) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(model_, &dataset_->train, options);
  query::GroundedQuery q = SampleQueries(StructureId::k2p, 1, 55)[0];
  Result<TopKAnswer> big = server.Answer(q.graph, 10);
  ASSERT_TRUE(big.ok());
  Result<TopKAnswer> small = server.Answer(q.graph, 3);
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small->from_cache);
  ASSERT_EQ(small->entities.size(), 3u);
  EXPECT_EQ(std::vector<int64_t>(big->entities.begin(),
                                 big->entities.begin() + 3),
            small->entities);
}

TEST_F(QueryServerTest, ConcurrentSubmittersAllAnswered) {
  ServerOptions options;
  options.num_workers = 4;
  options.max_batch_size = 8;
  QueryServer server(model_, &dataset_->train, options);
  core::Evaluator evaluator(model_);

  std::vector<query::GroundedQuery> pool =
      SampleQueries(StructureId::k2i, 12, 77);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const query::GroundedQuery& q =
            pool[static_cast<size_t>((t * kPerThread + i) % pool.size())];
        Result<TopKAnswer> r = server.Answer(q.graph, 5);
        if (!r.ok() || r->entities.size() != 5u) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.metrics()->CounterValue("serving.submitted"),
            kThreads * kPerThread);
  EXPECT_EQ(server.metrics()->CounterValue("serving.completed"),
            kThreads * kPerThread);
  // Spot-check one answer against the single-threaded path.
  Result<TopKAnswer> r = server.Answer(pool[0].graph, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->entities, evaluator.TopK(pool[0].graph, 5));
}

TEST_F(QueryServerTest, QueuedRequestsPastDeadlineExpire) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch_size = 4;
  options.cache_capacity = 0;
  QueryServer server(model_, &dataset_->train, options);

  // Fill the single worker with two full batches of undeadlined work, then
  // queue requests that can only be reached after >= one batch of real
  // embedding work — far beyond their 1us deadline.
  std::vector<query::GroundedQuery> blockers =
      SampleQueries(StructureId::k3p, 8, 91);
  std::vector<std::future<Result<TopKAnswer>>> blocker_futures;
  for (const query::GroundedQuery& q : blockers) {
    auto r = server.Submit(q.graph, 5);
    ASSERT_TRUE(r.ok());
    blocker_futures.push_back(std::move(*r));
  }
  std::vector<query::GroundedQuery> doomed =
      SampleQueries(StructureId::k1p, 4, 92);
  std::vector<std::future<Result<TopKAnswer>>> doomed_futures;
  for (const query::GroundedQuery& q : doomed) {
    auto r = server.Submit(q.graph, 5, std::chrono::microseconds(1));
    ASSERT_TRUE(r.ok());
    doomed_futures.push_back(std::move(*r));
  }
  for (auto& f : blocker_futures) {
    EXPECT_TRUE(f.get().ok());
  }
  int expired = 0;
  for (auto& f : doomed_futures) {
    Result<TopKAnswer> r = f.get();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
      ++expired;
    }
  }
  EXPECT_GE(expired, 1);
  EXPECT_EQ(server.metrics()->CounterValue("serving.deadline_expired"),
            expired);
}

TEST_F(QueryServerTest, FullQueueAppliesBackpressure) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch_size = 2;
  options.queue_capacity = 2;
  options.cache_capacity = 0;
  QueryServer server(model_, &dataset_->train, options);

  std::vector<query::GroundedQuery> pool =
      SampleQueries(StructureId::k2p, 8, 13);
  int accepted = 0;
  int rejected = 0;
  std::vector<std::future<Result<TopKAnswer>>> futures;
  for (int i = 0; i < 64; ++i) {
    auto r = server.Submit(pool[static_cast<size_t>(i) % pool.size()].graph,
                           5);
    if (r.ok()) {
      ++accepted;
      futures.push_back(std::move(*r));
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
  EXPECT_EQ(server.metrics()->CounterValue("serving.rejected"), rejected);
}

TEST_F(QueryServerTest, InvalidQueriesRejectedSynchronously) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(model_, &dataset_->train, options);

  query::QueryGraph ungrounded = query::MakeStructure(StructureId::k2i);
  auto r1 = server.Submit(ungrounded, 5);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  query::QueryGraph out_of_range;
  out_of_range.SetTarget(out_of_range.AddProjection(
      out_of_range.AddAnchor(dataset_->train.num_entities() + 5), 0));
  auto r2 = server.Submit(out_of_range, 5);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  query::GroundedQuery q = SampleQueries(StructureId::k1p, 1, 3)[0];
  auto r3 = server.Submit(q.graph, 0);
  EXPECT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.metrics()->CounterValue("serving.invalid"), 3);
}

TEST_F(QueryServerTest, ShutdownDrainsQueuedWorkAndRejectsNewWork) {
  ServerOptions options;
  options.num_workers = 2;
  QueryServer* server = new QueryServer(model_, &dataset_->train, options);
  std::vector<query::GroundedQuery> pool =
      SampleQueries(StructureId::k2i, 10, 29);
  std::vector<std::future<Result<TopKAnswer>>> futures;
  for (const query::GroundedQuery& q : pool) {
    auto r = server->Submit(q.graph, 5);
    ASSERT_TRUE(r.ok());
    futures.push_back(std::move(*r));
  }
  server->Shutdown();
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());  // drained, not dropped
  }
  auto rejected = server->Submit(pool[0].graph, 5);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  delete server;  // double-shutdown must be safe
}

TEST_F(QueryServerTest, KLargerThanEntityCountIsClamped) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(model_, &dataset_->train, options);
  query::GroundedQuery q = SampleQueries(StructureId::k1p, 1, 41)[0];
  Result<TopKAnswer> r =
      server.Answer(q.graph, dataset_->train.num_entities() + 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<int64_t>(r->entities.size()),
            dataset_->train.num_entities());
  // And the clamped full answer satisfies later smaller-k requests.
  Result<TopKAnswer> again = server.Answer(q.graph, 4);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
}

TEST_F(QueryServerTest, NanEntityIsNeverServedAndAnswersMatchEvaluator) {
  // A private model whose entity row holds a NaN: its distance is NaN on
  // every branch, so no ranking path may serve it, and the NaN must not
  // displace true best entries from any heap.
  core::HalkModel model(model_->config(), nullptr);
  const query::GroundedQuery probe = SampleQueries(StructureId::k1p, 1, 77)[0];
  core::Evaluator evaluator(&model);
  const int64_t nan_entity = evaluator.TopK(probe.graph, 1).at(0);
  tensor::Tensor table = model.entity_angles();
  table.data()[nan_entity * model.config().dim + 3] =
      std::numeric_limits<float>::quiet_NaN();
  const int64_t n = model.config().num_entities;
  for (const int64_t shards : {1, 3}) {
    ServerOptions options;
    options.num_workers = 2;
    options.num_shards = shards;
    options.cache_capacity = 0;
    QueryServer server(&model, &dataset_->train, options);
    for (StructureId s :
         {StructureId::k1p, StructureId::k2i, StructureId::k2u}) {
      for (const query::GroundedQuery& q : SampleQueries(s, 3, 77)) {
        for (const int64_t k : {int64_t{10}, n}) {
          Result<TopKAnswer> served = server.Answer(q.graph, k);
          ASSERT_TRUE(served.ok()) << served.status().ToString();
          EXPECT_EQ(served->entities, evaluator.TopK(q.graph, k))
              << query::StructureName(s) << ", " << shards << " shards";
          EXPECT_EQ(std::count(served->entities.begin(),
                               served->entities.end(), nan_entity),
                    0);
          for (const float d : served->distances) {
            EXPECT_FALSE(std::isnan(d));
          }
        }
      }
    }
  }
}

TEST_F(QueryServerTest, MetricsDumpContainsDerivedHitRate) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(model_, &dataset_->train, options);
  query::GroundedQuery q = SampleQueries(StructureId::k1p, 1, 61)[0];
  ASSERT_TRUE(server.Answer(q.graph, 5).ok());
  ASSERT_TRUE(server.Answer(q.graph, 5).ok());
  const std::string dump = server.DumpMetrics();
  EXPECT_NE(dump.find("counter serving.submitted 2"), std::string::npos);
  EXPECT_NE(dump.find("serving.cache_hit_rate 0.5"), std::string::npos);
  EXPECT_NE(dump.find("histogram serving.latency_us"), std::string::npos);
}

TEST_F(QueryServerTest, ShardedServerAgreesWithEvaluatorAcrossStructures) {
  ServerOptions options;
  options.num_workers = 2;
  options.max_batch_size = 4;
  options.num_shards = 4;
  options.cache_capacity = 0;
  QueryServer server(model_, &dataset_->train, options);
  ASSERT_NE(server.coordinator(), nullptr);
  core::Evaluator evaluator(model_);
  for (StructureId s : {StructureId::k1p, StructureId::k2p, StructureId::k2i,
                        StructureId::k2in, StructureId::k2d,
                        StructureId::k2u, StructureId::kUp}) {
    for (const query::GroundedQuery& q : SampleQueries(s, 3, 211)) {
      Result<TopKAnswer> served = server.Answer(q.graph, 10);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_EQ(served->coverage, 1.0);
      EXPECT_TRUE(served->completeness.ok());
      EXPECT_EQ(served->entities, evaluator.TopK(q.graph, 10))
          << "structure " << query::StructureName(s);
    }
  }
  EXPECT_GT(server.metrics()->CounterValue("shard.requests"), 0);
}

TEST_F(QueryServerTest, ShardOutageServesPartialAnswersUncached) {
  // Shard 3 stalls for 10x the request deadline, so it misses it.
  constexpr std::chrono::milliseconds kDeadline{200};
  shard::SlowRangeModel model(model_->config(), 10 * kDeadline);
  ServerOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  QueryServer server(&model, &dataset_->train, options);
  query::GroundedQuery q = SampleQueries(StructureId::k2i, 1, 223)[0];

  const shard::EntityRange lost = server.coordinator()->shard_range(3);
  model.SlowRange(lost.begin);
  const double expected_coverage =
      1.0 - static_cast<double>(lost.size()) /
                static_cast<double>(dataset_->train.num_entities());

  Result<TopKAnswer> degraded = server.Answer(q.graph, 10, kDeadline);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_DOUBLE_EQ(degraded->coverage, expected_coverage);
  EXPECT_EQ(degraded->completeness.code(), StatusCode::kPartialResult);
  EXPECT_FALSE(degraded->from_cache);
  for (int64_t e : degraded->entities) {
    EXPECT_TRUE(e < lost.begin || e >= lost.end) << "entity " << e;
  }

  // Partial answers must not be cached: once the shard is fast again, the
  // same query gets the full-coverage answer computed fresh.
  model.Heal();
  core::Evaluator evaluator(&model);
  Result<TopKAnswer> healed = server.Answer(q.graph, 10);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->from_cache);
  EXPECT_EQ(healed->coverage, 1.0);
  EXPECT_EQ(healed->entities, evaluator.TopK(q.graph, 10));
  // The healed full answer is cacheable again.
  Result<TopKAnswer> cached = server.Answer(q.graph, 10);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);
}

TEST_F(QueryServerTest, TracedShardedRequestPhaseSpansTileTheLatency) {
  // With the answer cache on, the request's one probe runs at Submit, so
  // its cache_lookup span must sit before queue_wait, not overlap it.
  for (const size_t cache_capacity : {size_t{0}, size_t{4096}}) {
    SCOPED_TRACE("cache_capacity " + std::to_string(cache_capacity));
    obs::Tracer tracer;
    tracer.set_enabled(true);
    ServerOptions options;
    options.num_workers = 2;
    options.max_batch_size = 4;
    options.num_shards = 2;
    options.cache_capacity = cache_capacity;
    options.tracer = &tracer;
    QueryServer server(model_, &dataset_->train, options);

    query::GroundedQuery q = SampleQueries(StructureId::k2i, 1, 301)[0];
    Result<TopKAnswer> r = server.Answer(q.graph, 10);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r->trace_id, 0u);

    const obs::Trace trace = tracer.Collect(r->trace_id);
    const obs::SpanRecord* root = trace.Find("request");
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->parent, 0u);
    EXPECT_EQ(root->annotation("ok"), 1.0);
    EXPECT_EQ(root->annotation("cache_hit", -1.0), 0.0);

    // Every request-path phase must be present as a direct child of the
    // root.
    for (const char* phase : {"queue_wait", "dnf_expand", "batch_assembly",
                              "embed", "scatter", "merge"}) {
      const obs::SpanRecord* span = trace.Find(phase);
      ASSERT_NE(span, nullptr) << "missing span " << phase;
      EXPECT_EQ(span->parent, root->id) << phase;
      EXPECT_GE(span->start_ns, root->start_ns) << phase;
      EXPECT_LE(span->end_ns(), root->end_ns()) << phase;
    }
    const std::vector<const obs::SpanRecord*> lookups =
        trace.FindAll("cache_lookup");
    EXPECT_EQ(lookups.size(), cache_capacity > 0 ? 1u : 0u);
    if (!lookups.empty()) {
      EXPECT_EQ(lookups[0]->parent, root->id);
      EXPECT_EQ(lookups[0]->annotation("hit", -1.0), 0.0);
    }
    // The phases are sequentially disjoint slices of the request, so their
    // durations sum to at most the end-to-end latency.
    std::vector<const obs::SpanRecord*> phases;
    int64_t phase_sum_ns = 0;
    for (const obs::SpanRecord& span : trace.spans()) {
      if (span.parent != root->id) continue;
      phases.push_back(&span);
      phase_sum_ns += span.duration_ns;
    }
    EXPECT_GT(phase_sum_ns, 0);
    EXPECT_LE(phase_sum_ns, root->duration_ns);
    for (size_t i = 0; i < phases.size(); ++i) {
      for (size_t j = i + 1; j < phases.size(); ++j) {
        EXPECT_TRUE(phases[i]->end_ns() <= phases[j]->start_ns ||
                    phases[j]->end_ns() <= phases[i]->start_ns)
            << phases[i]->name << " [" << phases[i]->start_ns << ", "
            << phases[i]->end_ns() << ") overlaps " << phases[j]->name
            << " [" << phases[j]->start_ns << ", " << phases[j]->end_ns()
            << ")";
      }
    }

    // Each shard contributed one shard_scan under the scatter span, with
    // its scan statistics attached.
    const obs::SpanRecord* scatter = trace.Find("scatter");
    ASSERT_NE(scatter, nullptr);
    EXPECT_EQ(scatter->annotation("shards"), 2.0);
    EXPECT_EQ(scatter->annotation("uncovered_shards"), 0.0);
    const std::vector<const obs::SpanRecord*> scans =
        trace.FindAll("shard_scan");
    ASSERT_EQ(scans.size(), 2u);
    for (const obs::SpanRecord* scan : scans) {
      EXPECT_EQ(scan->parent, scatter->id);
      EXPECT_TRUE(scan->has_annotation("shard"));
      EXPECT_TRUE(scan->has_annotation("entities_scanned"));
      EXPECT_GT(scan->annotation("entities_scanned"), 0.0);
    }
  }
}

TEST_F(QueryServerTest, SlowQueryLogKeysRepeatedSlowRequestsByFingerprint) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  ServerOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;  // repeats must reach the workers
  options.tracer = &tracer;
  // Every request blows a 1us threshold, so each one lands in the log.
  options.slow_query_threshold = std::chrono::microseconds(1);
  QueryServer server(model_, &dataset_->train, options);
  ASSERT_NE(server.slow_query_log(), nullptr);

  query::GroundedQuery hot = SampleQueries(StructureId::k2p, 1, 311)[0];
  query::GroundedQuery cold = SampleQueries(StructureId::k2i, 1, 313)[0];
  ASSERT_TRUE(server.Answer(hot.graph, 5).ok());
  ASSERT_TRUE(server.Answer(cold.graph, 5).ok());
  ASSERT_TRUE(server.Answer(hot.graph, 5).ok());

  const auto entries = server.slow_query_log()->Entries();
  ASSERT_EQ(entries.size(), 2u);  // two fingerprints, not three requests
  // Most-recently-slow first: the repeated query, with both hits folded in.
  EXPECT_EQ(entries[0].hits, 2);
  EXPECT_EQ(entries[1].hits, 1);
  EXPECT_GE(entries[0].worst_ns, 1000);
  // The stored trace is the full span tree of the offending request.
  EXPECT_NE(entries[0].trace.Find("request"), nullptr);
  EXPECT_NE(entries[0].trace.Find("queue_wait"), nullptr);
}

TEST_F(QueryServerTest, TracedSingleShardRequestScansInline) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  ServerOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  options.tracer = &tracer;
  QueryServer server(model_, &dataset_->train, options);
  ASSERT_EQ(server.coordinator()->num_shards(), 1);

  query::GroundedQuery q = SampleQueries(StructureId::k2u, 1, 331)[0];
  Result<TopKAnswer> r = server.Answer(q.graph, 10);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->entities, core::Evaluator(model_).TopK(q.graph, 10));
  ASSERT_NE(r->trace_id, 0u);

  // One ranking path: scatter -> one shard_scan -> merge, as at S > 1.
  const obs::Trace trace = tracer.Collect(r->trace_id);
  const obs::SpanRecord* root = trace.Find("request");
  ASSERT_NE(root, nullptr);
  const obs::SpanRecord* scatter = trace.Find("scatter");
  const obs::SpanRecord* merge = trace.Find("merge");
  ASSERT_NE(scatter, nullptr);
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(scatter->parent, root->id);
  EXPECT_EQ(merge->parent, root->id);
  EXPECT_EQ(scatter->annotation("shards"), 1.0);
  EXPECT_LE(scatter->end_ns(), merge->start_ns);
  const std::vector<const obs::SpanRecord*> scans =
      trace.FindAll("shard_scan");
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_EQ(scans[0]->parent, scatter->id);
  EXPECT_EQ(scans[0]->annotation("shard", -1.0), 0.0);
  EXPECT_GT(scans[0]->annotation("entities_scanned"), 0.0);
  EXPECT_EQ(trace.Find("score"), nullptr);
  EXPECT_EQ(trace.Find("rank"), nullptr);
  // The root's direct children are disjoint phases tiling its latency.
  int64_t phase_sum_ns = 0;
  for (const obs::SpanRecord& span : trace.spans()) {
    if (span.parent != root->id) continue;
    EXPECT_GE(span.start_ns, root->start_ns) << span.name;
    EXPECT_LE(span.end_ns(), root->end_ns()) << span.name;
    phase_sum_ns += span.duration_ns;
  }
  EXPECT_GT(phase_sum_ns, 0);
  EXPECT_LE(phase_sum_ns, root->duration_ns);

  // The inline shard is instrumented like any worker shard.
  MetricsRegistry* metrics = server.metrics();
  EXPECT_EQ(metrics->CounterValue("shard.tasks", {{"shard", "0"}}), 1);
  EXPECT_EQ(metrics->CounterValue("shard.requests"), 1);
  EXPECT_NE(metrics->DumpText().find(
                "histogram shard.scan_us{shard=\"0\"} count=1"),
            std::string::npos)
      << metrics->DumpText();
}

// Every completion path (a Submit-time hit, a ranked miss, a request
// expired in the queue, a partial answer, a smaller-k hit off a larger
// cached entry) writes one record to each sink, and the sinks agree.
TEST_F(QueryServerTest, EveryCompletionPathWritesOneRecordToEverySink) {
  constexpr std::chrono::milliseconds kDeadline{250};
  shard::SlowRangeModel model(model_->config(), 10 * kDeadline);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::SloTracker slo;
  std::stringstream journal_out;
  std::unique_ptr<obs::ServeJournal> journal =
      obs::ServeJournal::ToStream(&journal_out);
  ServerOptions options;
  options.num_workers = 1;
  options.num_shards = 2;
  options.tracer = &tracer;
  options.slo = &slo;
  options.serve_journal = journal.get();
  QueryServer server(&model, &dataset_->train, options);
  ASSERT_NE(server.query_stats(), nullptr);
  MetricsRegistry* metrics = server.metrics();
  Histogram* latency = metrics->GetHistogram(
      "serving.latency_us", Histogram::ExponentialBounds(1.0, 2.0, 26));
  Histogram* queue_wait = metrics->GetHistogram(
      "serving.queue_wait_us", Histogram::ExponentialBounds(1.0, 2.0, 26));

  const std::vector<query::GroundedQuery> queries =
      SampleQueries(StructureId::k2i, 3, 347);
  // Journal latencies per fingerprint, folded as the query-stats store
  // folds them.
  std::map<std::string, obs::Welford> journal_latency;
  size_t lines_read = 0;
  // Checks the next journal record; `later` more requests have finished
  // since this one, so their records follow it.
  auto check_path = [&](const char* path, const std::string& status,
                        bool cache_hit, double coverage, size_t later = 0) {
    SCOPED_TRACE(path);
    std::vector<std::string> lines;
    std::istringstream in(journal_out.str());
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), lines_read + 1 + later);
    const std::string& line = lines[lines_read];
    Result<obs::JsonObject> record = obs::ParseJsonLine(line);
    ++lines_read;
    ASSERT_TRUE(record.ok()) << line;
    EXPECT_EQ(obs::FindKey(*record, "status")->string_value, status);
    EXPECT_EQ(obs::FindKey(*record, "cache_hit")->bool_value, cache_hit);
    EXPECT_EQ(obs::FindKey(*record, "coverage")->number, coverage);

    EXPECT_EQ(slo.Evaluate().requests_fast,
              static_cast<int64_t>(lines.size()));
    EXPECT_EQ(latency->count(), static_cast<int64_t>(lines.size()));
    const std::string fingerprint =
        obs::FindKey(*record, "fingerprint")->string_value;
    obs::Welford& expected = journal_latency[fingerprint];
    expected.Add(obs::FindKey(*record, "latency_us")->number);
    obs::QueryStatsStore::Stats stats;
    ASSERT_TRUE(server.query_stats()->Lookup(fingerprint, &stats));
    EXPECT_EQ(stats.hits, expected.count);
    EXPECT_EQ(stats.latency_us.mean, expected.mean);

    const uint64_t trace_id = std::stoull(
        obs::FindKey(*record, "trace_id")->string_value, nullptr, 16);
    const obs::Trace trace = tracer.Collect(trace_id);
    const std::vector<const obs::SpanRecord*> roots = trace.FindAll("request");
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(roots[0]->annotation("ok", -1.0), status == "OK" ? 1.0 : 0.0);
    EXPECT_EQ(roots[0]->annotation("cache_hit", -1.0), cache_hit ? 1.0 : 0.0);

    EXPECT_EQ(metrics->CounterValue("serving.cache_hits") +
                  metrics->CounterValue("serving.cache_misses"),
              metrics->CounterValue("serving.submitted"));
    EXPECT_EQ(metrics->GaugeValue("serving.in_flight"), 0.0);
    // Every miss waited in the queue once, expired or not; hits never
    // queue.
    EXPECT_EQ(queue_wait->count(),
              metrics->CounterValue("serving.cache_misses"));
  };

  // The ranked miss holds the one worker inside its shard-0 scan while a
  // request with a 1us deadline queues behind it, so that deadline has
  // passed by pickup.
  model.SlowRange(server.coordinator()->shard_range(0).begin);
  auto ranked_future = server.Submit(queries[0].graph, 10);
  ASSERT_TRUE(ranked_future.ok()) << ranked_future.status().ToString();
  model.AwaitStall();
  auto expired_future =
      server.Submit(queries[1].graph, 10, std::chrono::microseconds(1));
  ASSERT_TRUE(expired_future.ok()) << expired_future.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  model.Heal();
  Result<TopKAnswer> ranked = ranked_future->get();
  Result<TopKAnswer> expired = expired_future->get();
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_FALSE(ranked->from_cache);
  check_path("ranked miss", "OK", /*cache_hit=*/false, 1.0, /*later=*/1);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  check_path("expired in queue", "DeadlineExceeded", /*cache_hit=*/false,
             0.0);

  Result<TopKAnswer> hit = server.Answer(queries[0].graph, 10);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(hit->entities, ranked->entities);
  check_path("submit-time hit", "OK", /*cache_hit=*/true, 1.0);

  const shard::EntityRange lost = server.coordinator()->shard_range(1);
  model.SlowRange(lost.begin);
  Result<TopKAnswer> partial = server.Answer(queries[2].graph, 10, kDeadline);
  model.Heal();
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->completeness.code(), StatusCode::kPartialResult);
  const double partial_coverage =
      1.0 - static_cast<double>(lost.size()) /
                static_cast<double>(dataset_->train.num_entities());
  EXPECT_DOUBLE_EQ(partial->coverage, partial_coverage);
  check_path("partial answer", "OK", /*cache_hit=*/false, partial->coverage);

  Result<TopKAnswer> smaller = server.Answer(queries[0].graph, 3);
  ASSERT_TRUE(smaller.ok());
  EXPECT_TRUE(smaller->from_cache);
  ASSERT_EQ(smaller->entities.size(), 3u);
  check_path("smaller-k hit", "OK", /*cache_hit=*/true, 1.0);
}

}  // namespace
}  // namespace halk::serving

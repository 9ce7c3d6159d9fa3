// Randomized planner-equivalence suite: served answers must be
// *bit*-identical to per-branch Evaluator::TopK — same entities, same
// float distances — across every query structure, for duplicate-subtree
// chunks, and on subtree-cache-warm as well as cold runs, for every model
// in baselines::AvailableModels(). Every comparison below is exact
// (EXPECT_EQ on float vectors).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/cone.h"
#include "baselines/factory.h"
#include "core/evaluator.h"
#include "core/halk_model.h"
#include "core/topk.h"
#include "core/trainer.h"
#include "kg/groups.h"
#include "kg/synthetic.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "query/dnf.h"
#include "query/sampler.h"
#include "query/structures.h"
#include "serving/server.h"
#include "shard/slow_range_model.h"

namespace halk::serving {
namespace {

using query::StructureId;

class PlannerEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 150;
    opt.num_relations = 6;
    opt.num_triples = 900;
    opt.seed = 47;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
    Rng rng(9);
    grouping_ = new kg::NodeGrouping(
        kg::NodeGrouping::Random(dataset_->train.num_entities(), 8, &rng));
    grouping_->BuildAdjacency(dataset_->train);
    core::ModelConfig config;
    config.num_entities = dataset_->train.num_entities();
    config.num_relations = dataset_->train.num_relations();
    config.dim = 8;
    config.hidden = 16;
    config.seed = 3;
    model_ = new core::HalkModel(config, grouping_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete grouping_;
    delete dataset_;
    model_ = nullptr;
    grouping_ = nullptr;
    dataset_ = nullptr;
  }

  /// Reference ranking straight off the evaluator's exhaustive scores.
  static std::vector<core::ScoredEntity> Reference(
      const query::QueryGraph& query, int64_t k) {
    core::Evaluator evaluator(model_);
    return core::TopKFromDistances(evaluator.ScoreAllEntities(query), k);
  }

  static void ExpectBitIdentical(const TopKAnswer& served,
                                 const query::QueryGraph& query, int64_t k) {
    const std::vector<core::ScoredEntity> expected = Reference(query, k);
    ASSERT_EQ(served.entities.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(served.entities[i], expected[i].entity) << "rank " << i;
      EXPECT_EQ(served.distances[i], expected[i].distance) << "rank " << i;
    }
  }

  static kg::Dataset* dataset_;
  static kg::NodeGrouping* grouping_;
  static core::HalkModel* model_;
};

kg::Dataset* PlannerEquivalenceTest::dataset_ = nullptr;
kg::NodeGrouping* PlannerEquivalenceTest::grouping_ = nullptr;
core::HalkModel* PlannerEquivalenceTest::model_ = nullptr;

TEST_F(PlannerEquivalenceTest, BitIdenticalToEvaluatorAcrossAllStructures) {
  ServerOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;  // force the planner path on every answer
  QueryServer server(model_, &dataset_->train, options);
  core::Evaluator evaluator(model_);
  query::QuerySampler sampler(&dataset_->train, 61);
  for (StructureId s : query::AllStructures()) {
    auto queries = sampler.SampleMany(s, 3);
    ASSERT_TRUE(queries.ok()) << query::StructureName(s);
    for (const query::GroundedQuery& q : *queries) {
      Result<TopKAnswer> served = server.Answer(q.graph, 10);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_EQ(served->entities, evaluator.TopK(q.graph, 10))
          << query::StructureName(s);
      ExpectBitIdentical(*served, q.graph, 10);
    }
  }
  EXPECT_GT(server.metrics()->CounterValue("plan.requests"), 0);
}

TEST_F(PlannerEquivalenceTest, PlannerAndLegacyPathsAgreeBitExactly) {
  // The unplanned path: every query's DNF branch j is embedded together
  // with the same-structure branches of the other queries in one
  // multi-row EmbedQueries fold, scored row by row, and min-combined per
  // query. The planner's deduplicated per-(depth, op) execution must
  // reproduce those answers exactly.
  ServerOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  QueryServer server(model_, &dataset_->train, options);
  query::QuerySampler sampler(&dataset_->train, 67);
  for (StructureId s : query::AllStructures()) {
    auto queries = sampler.SampleMany(s, 3);
    ASSERT_TRUE(queries.ok()) << query::StructureName(s);
    std::vector<std::vector<query::QueryGraph>> branches;
    for (const query::GroundedQuery& q : *queries) {
      branches.push_back(query::ToDnf(q.graph));
      ASSERT_EQ(branches.back().size(), branches.front().size());
    }
    std::vector<std::vector<float>> best(queries->size());
    std::vector<float> dist;
    for (size_t j = 0; j < branches.front().size(); ++j) {
      std::vector<const query::QueryGraph*> batch;
      for (const std::vector<query::QueryGraph>& b : branches) {
        batch.push_back(&b[j]);
      }
      const core::EmbeddingBatch embedding = model_->EmbedQueries(batch);
      for (size_t row = 0; row < batch.size(); ++row) {
        model_->DistancesToAll(embedding, static_cast<int64_t>(row), &dist);
        if (best[row].empty()) {
          best[row] = dist;
        } else {
          for (size_t e = 0; e < dist.size(); ++e) {
            best[row][e] = std::min(best[row][e], dist[e]);
          }
        }
      }
    }
    for (size_t i = 0; i < queries->size(); ++i) {
      Result<TopKAnswer> served = server.Answer((*queries)[i].graph, 12);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      const std::vector<core::ScoredEntity> unplanned =
          core::TopKFromDistances(best[i], 12);
      ASSERT_EQ(served->entities.size(), unplanned.size());
      for (size_t r = 0; r < unplanned.size(); ++r) {
        EXPECT_EQ(served->entities[r], unplanned[r].entity)
            << query::StructureName(s) << " rank " << r;
        EXPECT_EQ(served->distances[r], unplanned[r].distance)
            << query::StructureName(s) << " rank " << r;
      }
    }
  }
  EXPECT_GT(server.metrics()->CounterValue("plan.requests"), 0);
}

TEST_F(PlannerEquivalenceTest, DuplicateSubtreeBatchesStayBitIdentical) {
  // A chunk hand-built from a shared subtree library: every query
  // extends the same 1p/2p prefixes, so the planner merges aggressively
  // across requests — and each answer must still match its own solo
  // evaluation. The one worker is held inside a gated scan while the
  // batch queues, so it picks the whole batch up as one chunk. The gated
  // model is a twin of the fixture's (same config and grouping), which
  // stays the reference.
  shard::SlowRangeModel gated(model_->config(), std::chrono::seconds(10),
                              grouping_);
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch_size = 16;
  options.cache_capacity = 0;
  QueryServer server(&gated, &dataset_->train, options);
  MetricsRegistry* metrics = server.metrics();
  Histogram* chunks = metrics->GetHistogram(
      "plan.build_us", Histogram::ExponentialBounds(1.0, 2.0, 20));

  std::vector<query::QueryGraph> queries;
  for (int64_t tail_relation = 0; tail_relation < 4; ++tail_relation) {
    // p(p(a7, r2), tail) — all four share the inner hop.
    query::QueryGraph g;
    g.SetTarget(g.AddProjection(
        g.AddProjection(g.AddAnchor(7), 2), tail_relation));
    queries.push_back(g);
    // i(p(a7, r2), p(a9, tail)) — intersections sharing the same hop.
    query::QueryGraph h;
    int shared = h.AddProjection(h.AddAnchor(7), 2);
    int other = h.AddProjection(h.AddAnchor(9), tail_relation);
    h.SetTarget(h.AddIntersection({shared, other}));
    queries.push_back(h);
  }
  // Exact duplicates in the same batch.
  queries.push_back(queries[0]);
  queries.push_back(queries[1]);

  // The gate: a lone request whose shard-0 scan stalls until Heal().
  query::QueryGraph gate;
  gate.SetTarget(gate.AddProjection(gate.AddAnchor(3), 1));
  gated.SlowRange(server.coordinator()->shard_range(0).begin);
  auto gate_future = server.Submit(gate, 10);
  ASSERT_TRUE(gate_future.ok()) << gate_future.status().ToString();
  gated.AwaitStall();
  // The gate's plan is counted before its scan starts.
  const int64_t total_before = metrics->CounterValue("plan.nodes");
  const int64_t unique_before = metrics->CounterValue("plan.unique_nodes");

  std::vector<std::future<Result<TopKAnswer>>> futures;
  for (const query::QueryGraph& g : queries) {
    auto submitted = server.Submit(g, 10);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(*submitted));
  }
  gated.Heal();
  Result<TopKAnswer> gate_served = gate_future->get();
  ASSERT_TRUE(gate_served.ok()) << gate_served.status().ToString();
  ExpectBitIdentical(*gate_served, gate, 10);
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<TopKAnswer> served = futures[i].get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectBitIdentical(*served, queries[i], 10);
  }
  // Two chunks: the gate, then the whole batch.
  EXPECT_EQ(chunks->count(), 2);
  EXPECT_EQ(metrics->CounterValue("plan.requests"),
            static_cast<int64_t>(queries.size()) + 1);
  // The shared prefix must actually have been merged.
  const int64_t total = metrics->CounterValue("plan.nodes") - total_before;
  const int64_t unique =
      metrics->CounterValue("plan.unique_nodes") - unique_before;
  EXPECT_LT(unique, total);
}

TEST_F(PlannerEquivalenceTest, CacheWarmRunsMatchColdRuns) {
  ServerOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;  // isolate the *subtree* cache
  QueryServer server(model_, &dataset_->train, options);
  ASSERT_NE(server.subtree_cache(), nullptr);
  query::QuerySampler sampler(&dataset_->train, 71);

  std::vector<query::GroundedQuery> queries;
  for (StructureId s : {StructureId::k2p, StructureId::k2i,
                        StructureId::kPip, StructureId::k2ipp}) {
    auto q = sampler.Sample(s);
    ASSERT_TRUE(q.ok());
    queries.push_back(*q);
  }

  std::vector<TopKAnswer> cold;
  for (const query::GroundedQuery& q : queries) {
    Result<TopKAnswer> served = server.Answer(q.graph, 10);
    ASSERT_TRUE(served.ok());
    cold.push_back(*served);
  }
  // The doorkeeper admits a subtree on its second sighting, so a second
  // cold pass fills the cache.
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<TopKAnswer> again = server.Answer(queries[i].graph, 10);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->entities, cold[i].entities);
    EXPECT_EQ(again->distances, cold[i].distances);
  }
  EXPECT_GT(server.subtree_cache()->size(), 0u);

  for (size_t i = 0; i < queries.size(); ++i) {
    Result<TopKAnswer> warm = server.Answer(queries[i].graph, 10);
    ASSERT_TRUE(warm.ok());
    EXPECT_FALSE(warm->from_cache);  // answer cache is off
    EXPECT_EQ(warm->entities, cold[i].entities);
    EXPECT_EQ(warm->distances, cold[i].distances);
    ExpectBitIdentical(*warm, queries[i].graph, 10);
  }
  EXPECT_GT(server.metrics()->CounterValue("plan.subtree_cache_hits"), 0);

  // Invalidation keeps answers bit-identical, just slower.
  for (int64_t r = 0; r < dataset_->train.num_relations(); ++r) {
    server.subtree_cache()->InvalidateRelation(r);
  }
  EXPECT_EQ(server.subtree_cache()->size(), 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<TopKAnswer> again = server.Answer(queries[i].graph, 10);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->entities, cold[i].entities);
    EXPECT_EQ(again->distances, cold[i].distances);
  }
}

TEST_F(PlannerEquivalenceTest, ShardedPlannerPathMatchesEvaluator) {
  ServerOptions options;
  options.num_workers = 2;
  options.num_shards = 3;
  options.cache_capacity = 0;
  QueryServer server(model_, &dataset_->train, options);
  query::QuerySampler sampler(&dataset_->train, 83);
  for (StructureId s : {StructureId::k2p, StructureId::k2u,
                        StructureId::k2in, StructureId::k3ipp}) {
    auto q = sampler.Sample(s);
    ASSERT_TRUE(q.ok());
    Result<TopKAnswer> served = server.Answer(q->graph, 10);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->coverage, 1.0);
    ExpectBitIdentical(*served, q->graph, 10);
  }
}

TEST_F(PlannerEquivalenceTest, FeedbackKeepsAnswersBitIdentical) {
  // Cardinality feedback may only reorder evaluation *within* a depth
  // level; rankings must stay bit-identical to the evaluator. The same
  // workload runs twice — the first pass populates the stats store with
  // sampled actuals, the second plans with EWMA-overridden sched_rows —
  // and both passes are checked exactly.
  ServerOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;  // force the planner path on every answer
  options.use_feedback = true;
  options.feedback_min_samples = 1;  // every repeat consults the store
  QueryServer server(model_, &dataset_->train, options);
  ASSERT_NE(server.query_stats(), nullptr);
  for (int pass = 0; pass < 2; ++pass) {
    // Re-seeded per pass so both passes serve the *same* queries.
    query::QuerySampler replay(&dataset_->train, 97);
    for (StructureId s : query::AllStructures()) {
      auto queries = replay.SampleMany(s, 2);
      ASSERT_TRUE(queries.ok()) << query::StructureName(s);
      for (const query::GroundedQuery& q : *queries) {
        Result<TopKAnswer> served = server.Answer(q.graph, 10);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        ExpectBitIdentical(*served, q.graph, 10);
      }
    }
  }
  // The second pass actually consulted feedback: the store accumulated
  // per-subtree cardinalities on the first.
  EXPECT_GT(server.query_stats()->feedback_size(), 0u);
}

TEST_F(PlannerEquivalenceTest, ExplainDescribesTheServedPlan) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(model_, &dataset_->train, options);
  query::QuerySampler sampler(&dataset_->train, 89);
  auto q = sampler.Sample(StructureId::k2i);
  ASSERT_TRUE(q.ok());
  Result<std::string> text = server.Explain(q->graph);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("plan:"), std::string::npos);
  EXPECT_NE(text->find("intersection"), std::string::npos);
  EXPECT_NE(text->find("rows~"), std::string::npos);

  // After the query has run twice its subtrees are cached (the doorkeeper
  // admits on the second sighting) and explain says so. The second run is
  // ExplainAnalyze, which executes the plan past the answer cache.
  ASSERT_TRUE(server.Answer(q->graph, 5).ok());
  ASSERT_TRUE(server.ExplainAnalyze(q->graph).ok());
  Result<std::string> warm = server.Explain(q->graph);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find(" cached"), std::string::npos);

  // Every model plans: a baseline server explains the same query.
  baselines::ConeModel cone(model_->config(), grouping_);
  QueryServer cone_server(&cone, &dataset_->train, options);
  Result<std::string> cone_text = cone_server.Explain(q->graph);
  ASSERT_TRUE(cone_text.ok()) << cone_text.status().ToString();
  EXPECT_NE(cone_text->find("intersection"), std::string::npos);
}

/// The same bit-identity contract for every model the factory builds: each
/// serves through the planner (every model implements OperatorModel), over
/// every structure it supports.
class ModelEquivalenceTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 120;
    opt.num_relations = 6;
    opt.num_triples = 720;
    opt.seed = 53;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
    Rng rng(4);
    grouping_ = new kg::NodeGrouping(
        kg::NodeGrouping::Random(dataset_->train.num_entities(), 8, &rng));
    grouping_->BuildAdjacency(dataset_->train);
  }
  static void TearDownTestSuite() {
    delete grouping_;
    delete dataset_;
    grouping_ = nullptr;
    dataset_ = nullptr;
  }

  void SetUp() override {
    core::ModelConfig config;
    config.num_entities = dataset_->train.num_entities();
    config.num_relations = dataset_->train.num_relations();
    config.dim = 8;
    config.hidden = 16;
    config.seed = 5;
    auto model = baselines::CreateModel(GetParam(), config, grouping_);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = std::move(*model);
  }

  /// `per_structure` sampled queries of every structure the model supports.
  std::vector<query::GroundedQuery> SupportedQueries(uint64_t seed,
                                                     int per_structure) const {
    std::vector<query::GroundedQuery> out;
    query::QuerySampler sampler(&dataset_->train, seed);
    for (StructureId s : query::AllStructures()) {
      if (!core::ModelSupportsStructure(*model_, s)) continue;
      auto queries = sampler.SampleMany(s, per_structure);
      EXPECT_TRUE(queries.ok()) << query::StructureName(s);
      if (!queries.ok()) continue;
      for (query::GroundedQuery& q : *queries) out.push_back(std::move(q));
    }
    return out;
  }

  /// Serves every query and checks it against the evaluator, float for
  /// float.
  void ExpectServedMatchesEvaluator(
      QueryServer* server, const std::vector<query::GroundedQuery>& queries) {
    core::Evaluator evaluator(model_.get());
    for (const query::GroundedQuery& q : queries) {
      Result<TopKAnswer> served = server->Answer(q.graph, 10);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      const std::vector<core::ScoredEntity> expected =
          core::TopKFromDistances(evaluator.ScoreAllEntities(q.graph), 10);
      ASSERT_EQ(served->entities.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(served->entities[i], expected[i].entity)
            << query::StructureName(q.structure) << " rank " << i;
        EXPECT_EQ(served->distances[i], expected[i].distance)
            << query::StructureName(q.structure) << " rank " << i;
      }
      EXPECT_EQ(served->entities, evaluator.TopK(q.graph, 10));
    }
  }

  static kg::Dataset* dataset_;
  static kg::NodeGrouping* grouping_;
  std::unique_ptr<core::QueryModel> model_;
};

kg::Dataset* ModelEquivalenceTest::dataset_ = nullptr;
kg::NodeGrouping* ModelEquivalenceTest::grouping_ = nullptr;

TEST_P(ModelEquivalenceTest, UnshardedServingMatchesEvaluator) {
  // One shard: every request is scanned inline on its serving worker.
  ServerOptions options;
  options.num_workers = 2;
  options.num_shards = 1;
  options.cache_capacity = 0;  // every answer goes through the planner
  QueryServer server(model_.get(), &dataset_->train, options);
  ExpectServedMatchesEvaluator(&server, SupportedQueries(61, 2));
  EXPECT_GT(server.metrics()->CounterValue("plan.requests"), 0);
}

TEST_P(ModelEquivalenceTest, ShardedServingMatchesEvaluator) {
  ServerOptions options;
  options.num_workers = 2;
  options.num_shards = 3;
  options.cache_capacity = 0;
  QueryServer server(model_.get(), &dataset_->train, options);
  ExpectServedMatchesEvaluator(&server, SupportedQueries(67, 1));
}

TEST_P(ModelEquivalenceTest, WarmSubtreeCacheServingMatchesEvaluator) {
  ServerOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;  // isolate the *subtree* cache
  QueryServer server(model_.get(), &dataset_->train, options);
  ASSERT_NE(server.subtree_cache(), nullptr);
  const std::vector<query::GroundedQuery> queries = SupportedQueries(71, 1);
  ExpectServedMatchesEvaluator(&server, queries);  // cold
  // Second sighting: the doorkeeper admits the subtrees.
  ExpectServedMatchesEvaluator(&server, queries);
  const int64_t cold_hits =
      server.metrics()->CounterValue("plan.subtree_cache_hits");
  ExpectServedMatchesEvaluator(&server, queries);  // warm
  EXPECT_GT(server.metrics()->CounterValue("plan.subtree_cache_hits"),
            cold_hits);
}

TEST_P(ModelEquivalenceTest, PlanExecutorRowsMatchEmbedQueries) {
  // Every supported branch in one plan, one request each: the executor's
  // batched per-(depth, op) operator calls must reproduce each branch's
  // own EmbedQueries row exactly.
  const std::vector<query::GroundedQuery> queries = SupportedQueries(73, 2);
  std::vector<query::QueryGraph> branches;
  for (const query::GroundedQuery& q : queries) {
    for (query::QueryGraph& b : query::ToDnf(q.graph)) {
      branches.push_back(std::move(b));
    }
  }
  std::vector<plan::PlanItem> items;
  for (size_t i = 0; i < branches.size(); ++i) {
    items.push_back({i, &branches[i]});
  }
  const plan::Planner planner(&dataset_->train.stats(),
                              model_->config().num_entities);
  const plan::Plan plan = planner.BuildPlan(items);
  const plan::PlanExecutor executor(model_.get(), model_->AsOperatorModel(),
                                    nullptr);
  const core::EmbeddingBatch got = executor.Execute(plan);
  ASSERT_EQ(plan.roots.size(), branches.size());
  const int64_t dim = model_->config().dim;
  for (size_t r = 0; r < plan.roots.size(); ++r) {
    const query::QueryGraph& branch = branches[plan.roots[r].request_index];
    const core::EmbeddingBatch want = model_->EmbedQueries({&branch});
    for (int64_t c = 0; c < dim; ++c) {
      const int64_t g = static_cast<int64_t>(r) * dim + c;
      EXPECT_EQ(got.a.data()[g], want.a.data()[c]) << "root " << r;
      EXPECT_EQ(got.b.data()[g], want.b.data()[c]) << "root " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelEquivalenceTest,
    ::testing::ValuesIn(baselines::AvailableModels()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace halk::serving

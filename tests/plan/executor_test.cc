#include "plan/executor.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/halk_model.h"
#include "kg/groups.h"
#include "kg/synthetic.h"
#include "plan/planner.h"
#include "query/dnf.h"
#include "query/sampler.h"
#include "query/structures.h"
#include "serving/subtree_cache.h"

namespace halk::plan {
namespace {

using query::StructureId;

/// The executor's contract is *bit*-identity with EmbedQueries, so every
/// float comparison below is exact (EXPECT_EQ, not NEAR).
class PlanExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 150;
    opt.num_relations = 6;
    opt.num_triples = 900;
    opt.seed = 13;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
    Rng rng(5);
    grouping_ = new kg::NodeGrouping(
        kg::NodeGrouping::Random(dataset_->train.num_entities(), 8, &rng));
    grouping_->BuildAdjacency(dataset_->train);
    core::ModelConfig config;
    config.num_entities = dataset_->train.num_entities();
    config.num_relations = dataset_->train.num_relations();
    config.dim = 8;
    config.hidden = 16;
    config.seed = 7;
    model_ = new core::HalkModel(config, grouping_);
    planner_ = new Planner(&dataset_->train.stats(),
                           dataset_->train.num_entities());
  }
  static void TearDownTestSuite() {
    delete planner_;
    delete model_;
    delete grouping_;
    delete dataset_;
    planner_ = nullptr;
    model_ = nullptr;
    grouping_ = nullptr;
    dataset_ = nullptr;
  }

  static void ExpectRowEqual(const core::EmbeddingBatch& got, int64_t grow,
                             const core::EmbeddingBatch& want,
                             int64_t wrow) {
    const int64_t dim = model_->config().dim;
    const float* ga = got.a.data();
    const float* gb = got.b.data();
    const float* wa = want.a.data();
    const float* wb = want.b.data();
    for (int64_t c = 0; c < dim; ++c) {
      EXPECT_EQ(ga[grow * dim + c], wa[wrow * dim + c]) << "col " << c;
      EXPECT_EQ(gb[grow * dim + c], wb[wrow * dim + c]) << "col " << c;
    }
  }

  static kg::Dataset* dataset_;
  static kg::NodeGrouping* grouping_;
  static core::HalkModel* model_;
  static Planner* planner_;
};

kg::Dataset* PlanExecutorTest::dataset_ = nullptr;
kg::NodeGrouping* PlanExecutorTest::grouping_ = nullptr;
core::HalkModel* PlanExecutorTest::model_ = nullptr;
Planner* PlanExecutorTest::planner_ = nullptr;

TEST_F(PlanExecutorTest, MatchesEmbedQueriesBitExactlyAcrossStructures) {
  PlanExecutor executor(model_, model_->AsOperatorModel(), nullptr);
  query::QuerySampler sampler(&dataset_->train, 31);
  for (StructureId s : query::AllStructures()) {
    auto queries = sampler.SampleMany(s, 2);
    ASSERT_TRUE(queries.ok()) << query::StructureName(s);
    for (const query::GroundedQuery& q : *queries) {
      for (const query::QueryGraph& branch : query::ToDnf(q.graph)) {
        Plan plan = planner_->BuildPlan({{0, &branch}});
        core::EmbeddingBatch got = executor.Execute(plan);
        core::EmbeddingBatch want = model_->EmbedQueries({&branch});
        ASSERT_EQ(plan.roots.size(), 1u);
        ExpectRowEqual(got, 0, want, 0);
      }
    }
  }
}

TEST_F(PlanExecutorTest, DuplicateBranchesEvaluateOnce) {
  query::QuerySampler sampler(&dataset_->train, 17);
  auto q = sampler.Sample(StructureId::k2i);
  ASSERT_TRUE(q.ok());
  const query::QueryGraph& g = q->graph;
  Plan plan = planner_->BuildPlan({{0, &g}, {1, &g}, {2, &g}});
  ASSERT_EQ(plan.roots.size(), 3u);
  PlanExecutor executor(model_, model_->AsOperatorModel(), nullptr);
  ExecStats stats;
  core::EmbeddingBatch got = executor.Execute(plan, &stats);
  // One evaluation per *unique* node, not per branch instance.
  EXPECT_EQ(stats.evaluated, static_cast<int64_t>(plan.nodes.size()));
  EXPECT_EQ(plan.total_nodes, 3 * static_cast<int64_t>(plan.nodes.size()));
  // All three output rows come from the same slot.
  ExpectRowEqual(got, 1, got, 0);
  ExpectRowEqual(got, 2, got, 0);
  core::EmbeddingBatch want = model_->EmbedQueries({&g});
  ExpectRowEqual(got, 0, want, 0);
}

TEST_F(PlanExecutorTest, WarmSubtreeCacheShortCircuitsWholePlan) {
  query::QuerySampler sampler(&dataset_->train, 23);
  auto q = sampler.Sample(StructureId::k2p);
  ASSERT_TRUE(q.ok());
  serving::SubtreeCache cache(1 << 20);
  PlanExecutor executor(model_, model_->AsOperatorModel(), &cache);
  Plan plan = planner_->BuildPlan({{0, &q->graph}});

  ExecSchedule cold = executor.Prepare(plan);
  EXPECT_EQ(cold.stats.cache_hits, 0);
  EXPECT_GT(cold.stats.evaluated, 0);
  core::EmbeddingBatch first = executor.Run(plan, &cold);
  // The doorkeeper admits a subtree on its second sighting: the second
  // cold run evaluates everything again and fills the cache.
  ExecSchedule again = executor.Prepare(plan);
  EXPECT_EQ(again.stats.cache_hits, 0);
  EXPECT_EQ(again.stats.evaluated, cold.stats.evaluated);
  ExpectRowEqual(executor.Run(plan, &again), 0, first, 0);

  // Every non-anchor subtree is now cached; a hit at the root prunes the
  // entire sub-DAG, so nothing is evaluated on the warm run.
  ExecSchedule warm = executor.Prepare(plan);
  EXPECT_EQ(warm.stats.cache_hits, 1);
  EXPECT_EQ(warm.stats.evaluated, 0);
  EXPECT_GT(warm.stats.skipped, 0);
  core::EmbeddingBatch second = executor.Run(plan, &warm);
  ExpectRowEqual(second, 0, first, 0);
}

TEST_F(PlanExecutorTest, RelationInvalidationForcesPartialReevaluation) {
  // 2p chain anchor -> p1(r0) -> p2(r1): invalidating r1 evicts only the
  // root entry, so the warm run hits the intermediate hop and evaluates
  // exactly the root again. Built by hand so the two hop relations are
  // guaranteed distinct.
  query::QueryGraph g;
  g.SetTarget(g.AddProjection(g.AddProjection(g.AddAnchor(3), 0), 1));
  serving::SubtreeCache cache(1 << 20);
  PlanExecutor executor(model_, model_->AsOperatorModel(), &cache);
  Plan plan = planner_->BuildPlan({{0, &g}});
  ExecStats stats;
  // Two runs: the doorkeeper admits a subtree on its second sighting.
  core::EmbeddingBatch first = executor.Execute(plan, &stats);
  ExpectRowEqual(executor.Execute(plan, &stats), 0, first, 0);

  const PlanNode& root = plan.node(plan.roots[0].node);
  ASSERT_EQ(root.op, query::OpType::kProjection);
  const int64_t tail_relation = root.payload;
  EXPECT_GE(cache.InvalidateRelation(tail_relation), 1u);

  ExecSchedule warm = executor.Prepare(plan);
  EXPECT_EQ(warm.stats.cache_hits, 1);   // the surviving first hop
  EXPECT_EQ(warm.stats.evaluated, 1);    // just the evicted root
  core::EmbeddingBatch second = executor.Run(plan, &warm);
  ExpectRowEqual(second, 0, first, 0);
}

TEST_F(PlanExecutorTest, RecyclesSlotsOnDeepChains) {
  query::QuerySampler sampler(&dataset_->train, 37);
  auto q = sampler.Sample(StructureId::k3p);
  ASSERT_TRUE(q.ok());
  Plan plan = planner_->BuildPlan({{0, &q->graph}});
  PlanExecutor executor(model_, model_->AsOperatorModel(), nullptr);
  ExecStats stats;
  (void)executor.Execute(plan, &stats);
  EXPECT_EQ(stats.evaluated, static_cast<int64_t>(plan.nodes.size()));
  EXPECT_EQ(plan.max_depth, 3);  // anchor + three hops
  EXPECT_EQ(stats.op_batches, static_cast<int64_t>(plan.max_depth) + 1);
  EXPECT_GE(stats.slots_reused, 1);
  EXPECT_GT(stats.arena_bytes, 0u);
}

TEST_F(PlanExecutorTest, WorksWithoutNodeGrouping) {
  core::ModelConfig config = model_->config();
  config.seed = 19;
  core::HalkModel plain(config, nullptr);
  PlanExecutor executor(&plain, plain.AsOperatorModel(), nullptr);
  query::QuerySampler sampler(&dataset_->train, 41);
  for (StructureId s : {StructureId::k2i, StructureId::k3i}) {
    auto q = sampler.Sample(s);
    ASSERT_TRUE(q.ok());
    Plan plan = planner_->BuildPlan({{0, &q->graph}});
    core::EmbeddingBatch got = executor.Execute(plan);
    core::EmbeddingBatch want = plain.EmbedQueries({&q->graph});
    const int64_t dim = config.dim;
    const float* ga = got.a.data();
    const float* wa = want.a.data();
    for (int64_t c = 0; c < dim; ++c) EXPECT_EQ(ga[c], wa[c]);
  }
}

TEST_F(PlanExecutorTest, MixedStructureBatchSharesLeaves) {
  // Two hand-built queries over the same anchor/relation pair: a 1p and a
  // 2p extending it. The 1p target node *is* the 2p's first hop, so the
  // plan has 3 unique nodes for 5 instances and both rows match
  // per-query embeds.
  query::QueryGraph one;
  one.SetTarget(one.AddProjection(one.AddAnchor(3), 1));
  query::QueryGraph two;
  two.SetTarget(
      two.AddProjection(two.AddProjection(two.AddAnchor(3), 1), 2));
  Plan plan = planner_->BuildPlan({{0, &one}, {1, &two}});
  EXPECT_EQ(plan.nodes.size(), 3u);
  EXPECT_EQ(plan.total_nodes, 5);
  PlanExecutor executor(model_, model_->AsOperatorModel(), nullptr);
  core::EmbeddingBatch got = executor.Execute(plan);
  ExpectRowEqual(got, 0, model_->EmbedQueries({&one}), 0);
  ExpectRowEqual(got, 1, model_->EmbedQueries({&two}), 0);
}

}  // namespace
}  // namespace halk::plan

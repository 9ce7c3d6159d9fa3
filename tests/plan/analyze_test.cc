#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/halk_model.h"
#include "kg/groups.h"
#include "kg/synthetic.h"
#include "obs/query_stats.h"
#include "plan/executor.h"
#include "plan/explain.h"
#include "plan/planner.h"
#include "query/dnf.h"
#include "query/sampler.h"
#include "query/structures.h"
#include "serving/subtree_cache.h"

namespace halk::plan {
namespace {

using query::StructureId;

class AnalyzeTest : public ::testing::Test {
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

  static ExecOptions Collect() {
    ExecOptions options;
    options.collect_actuals = true;
    // Probe the whole toy entity table: the "sample" is exhaustive, so
    // actual_rows is the exact member count.
    options.sample_entities = dataset_->train.num_entities();
    return options;
  }

  static kg::Dataset* dataset_;
  static kg::NodeGrouping* grouping_;
  static core::HalkModel* model_;
  static Planner* planner_;
};

kg::Dataset* AnalyzeTest::dataset_ = nullptr;
kg::NodeGrouping* AnalyzeTest::grouping_ = nullptr;
core::HalkModel* AnalyzeTest::model_ = nullptr;
Planner* AnalyzeTest::planner_ = nullptr;

TEST(QErrorTest, SymmetricClampedRatio) {
  EXPECT_DOUBLE_EQ(QError(10.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(100.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(QError(10.0, 100.0), 10.0);
  // Both sides clamp to 1, so sub-row estimates never divide by ~0.
  EXPECT_DOUBLE_EQ(QError(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.2, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(QError(5.0, 0.0), 5.0);
}

TEST_F(AnalyzeTest, ActualsAreOffByDefault) {
  query::QuerySampler sampler(&dataset_->train, 31);
  auto q = sampler.Sample(StructureId::k2p);
  ASSERT_TRUE(q.ok());
  Plan plan = planner_->BuildPlan({{0, &q->graph}});
  PlanExecutor executor(model_, model_->AsOperatorModel(), nullptr);
  ExecStats stats;
  (void)executor.Execute(plan, &stats);
  EXPECT_TRUE(stats.actuals.empty());
}

TEST_F(AnalyzeTest, CollectsPerNodeActualsWhenEnabled) {
  query::QuerySampler sampler(&dataset_->train, 31);
  auto q = sampler.Sample(StructureId::k2i);
  ASSERT_TRUE(q.ok());
  Plan plan = planner_->BuildPlan({{0, &q->graph}});
  PlanExecutor executor(model_, model_->AsOperatorModel(), nullptr);
  ExecStats stats;
  core::EmbeddingBatch with = executor.Execute(plan, &stats, Collect());
  ASSERT_EQ(stats.actuals.size(), plan.nodes.size());
  const int64_t n = dataset_->train.num_entities();
  for (const NodeActuals& a : stats.actuals) {
    EXPECT_TRUE(a.evaluated);
    EXPECT_FALSE(a.cache_hit);
    EXPECT_GE(a.wall_ns, 0);
    // HalkModel exposes the arc membership threshold, so every node gets
    // a sampled row count within the table bounds.
    EXPECT_GE(a.actual_rows, 0.0);
    EXPECT_LE(a.actual_rows, static_cast<double>(n));
  }

  // Collection must not perturb the operator math: the embeddings are
  // bit-identical to an analytics-off run.
  core::EmbeddingBatch without = executor.Execute(plan);
  const int64_t dim = model_->config().dim;
  for (int64_t c = 0; c < dim; ++c) {
    EXPECT_EQ(with.a.data()[c], without.a.data()[c]) << "col " << c;
    EXPECT_EQ(with.b.data()[c], without.b.data()[c]) << "col " << c;
  }
}

TEST_F(AnalyzeTest, CachedNodesStillGetActualRows) {
  query::QuerySampler sampler(&dataset_->train, 23);
  auto q = sampler.Sample(StructureId::k2p);
  ASSERT_TRUE(q.ok());
  serving::SubtreeCache cache(1 << 20);
  PlanExecutor executor(model_, model_->AsOperatorModel(), &cache);
  Plan plan = planner_->BuildPlan({{0, &q->graph}});

  // The doorkeeper admits a subtree on its second sighting, so two cold
  // runs warm the cache.
  for (int sighting = 0; sighting < 2; ++sighting) {
    ExecSchedule cold = executor.Prepare(plan, /*trace=*/{}, Collect());
    (void)executor.Run(plan, &cold);
  }

  // Warm: the root hits the cache and prunes its sub-DAG; the hit node is
  // flagged and still probed (via the gathered cached-embedding batch),
  // while pruned nodes stay unmeasured.
  ExecSchedule warm = executor.Prepare(plan, /*trace=*/{}, Collect());
  ASSERT_EQ(warm.stats.cache_hits, 1);
  core::EmbeddingBatch out = executor.Run(plan, &warm);
  (void)out;
  ASSERT_EQ(warm.stats.actuals.size(), plan.nodes.size());
  const int32_t root = plan.roots[0].node;
  const NodeActuals& hit = warm.stats.actuals[static_cast<size_t>(root)];
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(hit.evaluated);
  EXPECT_GE(hit.actual_rows, 0.0);
  int64_t unmeasured = 0;
  for (const NodeActuals& a : warm.stats.actuals) {
    if (!a.evaluated && !a.cache_hit) {
      EXPECT_LT(a.actual_rows, 0.0);
      ++unmeasured;
    }
  }
  EXPECT_EQ(unmeasured, warm.stats.skipped);
}

TEST_F(AnalyzeTest, ExplainAnalyzeRendersEstimatesActualsAndQErrors) {
  query::QuerySampler sampler(&dataset_->train, 41);
  auto q = sampler.Sample(StructureId::kIp);
  ASSERT_TRUE(q.ok());
  Plan plan = planner_->BuildPlan({{0, &q->graph}});
  PlanExecutor executor(model_, model_->AsOperatorModel(), nullptr);
  ExecStats stats;
  (void)executor.Execute(plan, &stats, Collect());

  ExplainOptions opt;
  opt.num_entities = dataset_->train.num_entities();
  const std::string text = ExplainAnalyze(plan, stats, opt);
  EXPECT_NE(text.find("rows~"), std::string::npos);
  EXPECT_NE(text.find("act~"), std::string::npos);
  EXPECT_NE(text.find(" q="), std::string::npos);
  EXPECT_NE(text.find("analyze: "), std::string::npos);
  EXPECT_NE(text.find("worst q-error"), std::string::npos);
  EXPECT_NE(text.find("roots:"), std::string::npos);
  // Every measured node renders a numeric actual, so the unmeasured
  // placeholder must be absent on an exhaustive-probe run.
  EXPECT_EQ(text.find("act~-"), std::string::npos);

  // Without actuals the renderer degrades to placeholders instead of
  // inventing numbers.
  ExecStats empty;
  const std::string bare = ExplainAnalyze(plan, empty, opt);
  EXPECT_NE(bare.find("act~-"), std::string::npos);
  EXPECT_EQ(bare.find("worst q-error"), std::string::npos);
}

TEST_F(AnalyzeTest, FeedbackOverridesScheduleOrderOnly) {
  // Two independent 1p subtrees under one intersection: the cost model
  // orders the depth-1 level by est_rows; feedback claiming the opposite
  // cardinalities must flip the schedule order without touching est_rows
  // or the embedding result.
  query::QueryGraph g;
  const int left = g.AddProjection(g.AddAnchor(3), 0);
  const int right = g.AddProjection(g.AddAnchor(7), 1);
  g.SetTarget(g.AddIntersection({left, right}));

  Plan baseline = planner_->BuildPlan({{0, &g}});
  std::vector<int32_t> projections;
  for (size_t i = 0; i < baseline.nodes.size(); ++i) {
    if (baseline.nodes[i].op == query::OpType::kProjection) {
      projections.push_back(static_cast<int32_t>(i));
    }
  }
  ASSERT_EQ(projections.size(), 2u);
  // Schedule position of each projection in the baseline plan.
  auto schedule_pos = [](const Plan& plan, int32_t id) {
    for (size_t s = 0; s < plan.schedule.size(); ++s) {
      if (plan.schedule[s] == id) return s;
    }
    return plan.schedule.size();
  };
  const size_t first_pos = schedule_pos(baseline, projections[0]);
  const size_t second_pos = schedule_pos(baseline, projections[1]);
  const int32_t earlier =
      first_pos < second_pos ? projections[0] : projections[1];
  const int32_t later =
      first_pos < second_pos ? projections[1] : projections[0];

  // Feed observed cardinalities that invert the static order: the node
  // scheduled earlier (smaller est_rows) is "observed" huge, the later
  // one tiny.
  obs::QueryStatsStore feedback(8, /*feedback_capacity=*/8,
                                /*feedback_min_samples=*/1);
  feedback.RecordSubtreeRows(baseline.nodes[earlier].key, 140.0);
  feedback.RecordSubtreeRows(baseline.nodes[later].key, 1.0);

  PlannerOptions options;
  options.feedback = &feedback;
  Planner fed(&dataset_->train.stats(), dataset_->train.num_entities(),
              options);
  Plan overridden = fed.BuildPlan({{0, &g}});
  ASSERT_EQ(overridden.nodes.size(), baseline.nodes.size());

  // est_rows is untouched (q-errors keep grading the static model);
  // sched_rows carries the EWMA and flags provenance.
  for (size_t i = 0; i < baseline.nodes.size(); ++i) {
    EXPECT_EQ(overridden.nodes[i].est_rows, baseline.nodes[i].est_rows);
  }
  EXPECT_TRUE(overridden.nodes[earlier].from_feedback);
  EXPECT_TRUE(overridden.nodes[later].from_feedback);
  EXPECT_DOUBLE_EQ(overridden.nodes[earlier].sched_rows, 140.0);
  EXPECT_DOUBLE_EQ(overridden.nodes[later].sched_rows, 1.0);
  // The depth level re-sorted: the "tiny" node now runs first.
  EXPECT_LT(schedule_pos(overridden, later),
            schedule_pos(overridden, earlier));
  // ExplainPlan surfaces the override.
  EXPECT_NE(ExplainPlan(overridden, {}).find(" fb~"), std::string::npos);

  // Rows are bit-identical either way: ordering within a depth level
  // never changes operator math.
  PlanExecutor executor(model_, model_->AsOperatorModel(), nullptr);
  core::EmbeddingBatch a = executor.Execute(baseline);
  core::EmbeddingBatch b = executor.Execute(overridden);
  const int64_t dim = model_->config().dim;
  for (int64_t c = 0; c < dim; ++c) {
    EXPECT_EQ(a.a.data()[c], b.a.data()[c]) << "col " << c;
    EXPECT_EQ(a.b.data()[c], b.b.data()[c]) << "col " << c;
  }
}

TEST_F(AnalyzeTest, BaseModelWithoutThresholdLeavesRowsUnmeasured) {
  // A model that does not override MembershipThreshold reports -1, so
  // actual_rows stays unmeasured while timing still works.
  core::ModelConfig config = model_->config();
  config.rho = 0.0f;  // disables the arc-geometry threshold
  core::HalkModel flat(config, nullptr);
  query::QueryGraph g;
  g.SetTarget(g.AddProjection(g.AddAnchor(1), 0));
  Plan plan = planner_->BuildPlan({{0, &g}});
  PlanExecutor executor(&flat, flat.AsOperatorModel(), nullptr);
  ExecStats stats;
  (void)executor.Execute(plan, &stats, Collect());
  ASSERT_EQ(stats.actuals.size(), plan.nodes.size());
  for (const NodeActuals& a : stats.actuals) {
    EXPECT_TRUE(a.evaluated);
    EXPECT_LT(a.actual_rows, 0.0);
  }
}

}  // namespace
}  // namespace halk::plan

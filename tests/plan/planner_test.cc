#include "plan/planner.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kg/stats.h"
#include "plan/cost_model.h"
#include "plan/explain.h"
#include "serving/subtree_cache.h"

namespace halk::plan {
namespace {

using query::OpType;
using query::QueryGraph;

QueryGraph Chain2p(int64_t anchor, int64_t r1, int64_t r2) {
  QueryGraph g;
  g.SetTarget(g.AddProjection(g.AddProjection(g.AddAnchor(anchor), r1), r2));
  return g;
}

QueryGraph Intersect2(int64_t a1, int64_t r1, int64_t a2, int64_t r2) {
  QueryGraph g;
  int p1 = g.AddProjection(g.AddAnchor(a1), r1);
  int p2 = g.AddProjection(g.AddAnchor(a2), r2);
  g.SetTarget(g.AddIntersection({p1, p2}));
  return g;
}

TEST(PlannerTest, SingleBranchPlanCoversReachableNodes) {
  QueryGraph g = Chain2p(1, 0, 1);
  Planner planner(nullptr, 100);
  Plan plan = planner.BuildPlan({{0, &g}});
  EXPECT_EQ(plan.nodes.size(), 3u);
  EXPECT_EQ(plan.total_nodes, 3);
  ASSERT_EQ(plan.roots.size(), 1u);
  EXPECT_EQ(plan.roots[0].request_index, 0u);
  EXPECT_EQ(plan.max_depth, 2);
  EXPECT_DOUBLE_EQ(plan.dedup_ratio(), 0.0);
  EXPECT_EQ(plan.node(plan.roots[0].node).op, OpType::kProjection);
}

TEST(PlannerTest, IdenticalBranchesAcrossRequestsMergeCompletely) {
  QueryGraph g1 = Chain2p(1, 0, 1);
  QueryGraph g2 = Chain2p(1, 0, 1);
  Planner planner(nullptr, 100);
  Plan plan = planner.BuildPlan({{0, &g1}, {1, &g2}});
  EXPECT_EQ(plan.nodes.size(), 3u);  // second request is pure dedup
  EXPECT_EQ(plan.total_nodes, 6);
  EXPECT_DOUBLE_EQ(plan.dedup_ratio(), 0.5);
  ASSERT_EQ(plan.roots.size(), 2u);
  EXPECT_EQ(plan.roots[0].node, plan.roots[1].node);
  EXPECT_EQ(plan.roots[1].request_index, 1u);
  // Both roots anchor at the node: refcount counts each.
  EXPECT_EQ(plan.node(plan.roots[0].node).refcount, 2);
}

TEST(PlannerTest, SharedPrefixMergesAcrossRequests) {
  QueryGraph g1 = Chain2p(1, 0, 1);
  QueryGraph g2 = Chain2p(1, 0, 2);  // same anchor + first hop
  Planner planner(nullptr, 100);
  Plan plan = planner.BuildPlan({{0, &g1}, {1, &g2}});
  EXPECT_EQ(plan.nodes.size(), 4u);  // anchor, shared hop, two tails
  EXPECT_EQ(plan.total_nodes, 6);
  ASSERT_EQ(plan.roots.size(), 2u);
  EXPECT_NE(plan.roots[0].node, plan.roots[1].node);
  // The shared first hop feeds both tails.
  const PlanNode& tail = plan.node(plan.roots[0].node);
  ASSERT_EQ(tail.num_inputs, 1u);
  EXPECT_EQ(plan.node(tail.inputs[0]).refcount, 2);
}

TEST(PlannerTest, SwappedBinaryIntersectionMerges) {
  QueryGraph g1 = Intersect2(1, 0, 2, 1);
  QueryGraph g2 = Intersect2(2, 1, 1, 0);  // same pair, swapped order
  Planner planner(nullptr, 100);
  Plan plan = planner.BuildPlan({{0, &g1}, {1, &g2}});
  ASSERT_EQ(plan.roots.size(), 2u);
  EXPECT_EQ(plan.roots[0].node, plan.roots[1].node);
}

TEST(PlannerTest, ThreeInputIntersectionOrderIsSignificant) {
  // With three or more inputs the float fold is order-dependent, so the
  // fingerprint deliberately keeps stored order and the two targets must
  // NOT merge (their shared leaves still do).
  auto make = [](std::vector<int> order) {
    QueryGraph g;
    int p[3];
    p[0] = g.AddProjection(g.AddAnchor(1), 0);
    p[1] = g.AddProjection(g.AddAnchor(2), 1);
    p[2] = g.AddProjection(g.AddAnchor(3), 2);
    g.SetTarget(
        g.AddIntersection({p[order[0]], p[order[1]], p[order[2]]}));
    return g;
  };
  QueryGraph g1 = make({0, 1, 2});
  QueryGraph g2 = make({2, 1, 0});
  Planner planner(nullptr, 100);
  Plan plan = planner.BuildPlan({{0, &g1}, {1, &g2}});
  ASSERT_EQ(plan.roots.size(), 2u);
  EXPECT_NE(plan.roots[0].node, plan.roots[1].node);
  // 7 nodes per branch, 6 shared leaves + 2 distinct intersections.
  EXPECT_EQ(plan.nodes.size(), 8u);
}

TEST(PlannerTest, DifferenceSubtrahendOrderIsSignificant) {
  auto make = [](int64_t s1, int64_t s2) {
    QueryGraph g;
    int m = g.AddProjection(g.AddAnchor(1), 0);
    int a = g.AddProjection(g.AddAnchor(2), s1);
    int b = g.AddProjection(g.AddAnchor(3), s2);
    g.SetTarget(g.AddDifference({m, a, b}));
    return g;
  };
  // d(m, a, b) vs d(m, b, a): subtrahends differ in order only — the
  // graphs denote the same set, but the softmax fold is order-dependent.
  QueryGraph g1 = make(1, 2);
  QueryGraph g2;
  {
    int m = g2.AddProjection(g2.AddAnchor(1), 0);
    int b = g2.AddProjection(g2.AddAnchor(3), 2);
    int a = g2.AddProjection(g2.AddAnchor(2), 1);
    g2.SetTarget(g2.AddDifference({m, b, a}));
  }
  Planner planner(nullptr, 100);
  Plan plan = planner.BuildPlan({{0, &g1}, {1, &g2}});
  ASSERT_EQ(plan.roots.size(), 2u);
  EXPECT_NE(plan.roots[0].node, plan.roots[1].node);
}

TEST(PlannerTest, ScheduleIsTopologicalWithAscendingDepth) {
  QueryGraph g1 = Intersect2(1, 0, 2, 1);
  QueryGraph g2 = Chain2p(1, 0, 1);
  QueryGraph g3;
  {
    int p = g3.AddProjection(g3.AddAnchor(4), 2);
    g3.SetTarget(g3.AddNegation(p));
  }
  Planner planner(nullptr, 100);
  Plan plan = planner.BuildPlan({{0, &g1}, {0, &g2}, {1, &g3}});
  ASSERT_EQ(plan.schedule.size(), plan.nodes.size());
  std::vector<int> position(plan.nodes.size(), -1);
  for (size_t i = 0; i < plan.schedule.size(); ++i) {
    position[static_cast<size_t>(plan.schedule[i])] = static_cast<int>(i);
  }
  int32_t prev_depth = -1;
  double prev_rows = 0.0;
  for (size_t i = 0; i < plan.schedule.size(); ++i) {
    const PlanNode& n = plan.node(plan.schedule[i]);
    for (uint32_t j = 0; j < n.num_inputs; ++j) {
      EXPECT_LT(position[static_cast<size_t>(n.inputs[j])],
                static_cast<int>(i));
    }
    EXPECT_GE(n.depth, prev_depth);
    if (n.depth == prev_depth) {
      EXPECT_GE(n.est_rows, prev_rows);  // most selective first per level
    }
    prev_depth = n.depth;
    prev_rows = n.est_rows;
  }
}

TEST(PlannerTest, DeadNodesAreExcluded) {
  QueryGraph g;
  int p = g.AddProjection(g.AddAnchor(1), 0);
  g.AddProjection(g.AddAnchor(2), 1);  // orphan
  g.SetTarget(p);
  Planner planner(nullptr, 100);
  Plan plan = planner.BuildPlan({{0, &g}});
  EXPECT_EQ(plan.nodes.size(), 2u);
  EXPECT_EQ(plan.total_nodes, 2);
}

TEST(PlannerTest, RelationTagsCoverTheSubtree) {
  QueryGraph g = Chain2p(1, 3, 5);
  Planner planner(nullptr, 100);
  Plan plan = planner.BuildPlan({{0, &g}});
  const PlanNode& root = plan.node(plan.roots[0].node);
  ASSERT_EQ(root.num_relations, 2u);
  EXPECT_EQ(root.relations[0], 3);
  EXPECT_EQ(root.relations[1], 5);
  // Anchors carry no tags.
  for (const PlanNode& n : plan.nodes) {
    if (n.op == OpType::kAnchor) {
      EXPECT_EQ(n.num_relations, 0u);
    }
  }
}

TEST(PlannerTest, StatsDriveSelectivityOrderingWithinALevel) {
  // Relation 0 fans out to 4 tails per head; relation 1 to exactly 1.
  const std::vector<kg::Triple> triples = {
      {0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {0, 0, 4}, {5, 1, 6}};
  const kg::GraphStats stats = kg::GraphStats::Collect(10, 2, triples);
  Planner planner(&stats, 10);
  QueryGraph wide;  // 1p over the fat relation
  wide.SetTarget(wide.AddProjection(wide.AddAnchor(0), 0));
  QueryGraph narrow;
  narrow.SetTarget(narrow.AddProjection(narrow.AddAnchor(5), 1));
  Plan plan = planner.BuildPlan({{0, &wide}, {1, &narrow}});
  // Depth-1 level: the narrow projection (est 1 row) runs before the wide
  // one (est 4 rows).
  std::vector<int32_t> depth1;
  for (int32_t id : plan.schedule) {
    if (plan.node(id).depth == 1) depth1.push_back(id);
  }
  ASSERT_EQ(depth1.size(), 2u);
  EXPECT_EQ(plan.node(depth1[0]).payload, 1);
  EXPECT_EQ(plan.node(depth1[1]).payload, 0);
  EXPECT_LT(plan.node(depth1[0]).est_rows, plan.node(depth1[1]).est_rows);
}

TEST(CostModelTest, PerOperatorEstimates) {
  // Relation 0: 3 edges from 1 head (fan-out 3); relation 1: empty.
  const std::vector<kg::Triple> triples = {{0, 0, 1}, {0, 0, 2}, {0, 0, 3}};
  const kg::GraphStats stats = kg::GraphStats::Collect(100, 2, triples);
  const CostModel cost(&stats, 100);

  EXPECT_DOUBLE_EQ(cost.EstimateRows(OpType::kAnchor, 7, nullptr, 0), 1.0);

  const double one = 1.0;
  EXPECT_DOUBLE_EQ(cost.EstimateRows(OpType::kProjection, 0, &one, 1), 3.0);
  // Unseen relation: neutral fan-out of 1.
  EXPECT_DOUBLE_EQ(cost.EstimateRows(OpType::kProjection, 1, &one, 1), 1.0);

  const double pair[] = {10.0, 20.0};
  // Independence: 10 * 20 / 100 = 2.
  EXPECT_DOUBLE_EQ(cost.EstimateRows(OpType::kIntersection, -1, pair, 2),
                   2.0);
  EXPECT_DOUBLE_EQ(cost.EstimateRows(OpType::kUnion, -1, pair, 2), 30.0);
  // Negation complements against N.
  EXPECT_DOUBLE_EQ(cost.EstimateRows(OpType::kNegation, -1, pair, 1), 90.0);

  const double diff[] = {10.0, 50.0};
  // 10 * (1 - 50/100) = 5.
  EXPECT_DOUBLE_EQ(cost.EstimateRows(OpType::kDifference, -1, diff, 2), 5.0);

  // Estimates clamp to [1, N].
  const double big = 80.0;
  EXPECT_DOUBLE_EQ(cost.EstimateRows(OpType::kProjection, 0, &big, 1),
                   100.0);
  const double tiny[] = {1.0, 1.0};
  EXPECT_GE(cost.EstimateRows(OpType::kIntersection, -1, tiny, 2), 1.0);

  EXPECT_DOUBLE_EQ(cost.Selectivity(50.0), 0.5);
  EXPECT_DOUBLE_EQ(cost.Selectivity(1000.0), 1.0);
}

TEST(CostModelTest, NullStatsAreNeutral) {
  const CostModel cost(nullptr, 100);
  const double one = 1.0;
  EXPECT_DOUBLE_EQ(cost.EstimateRows(OpType::kProjection, 0, &one, 1), 1.0);
}

TEST(ExplainTest, RendersScheduleWithDedupAndCacheAnnotations) {
  QueryGraph g1 = Chain2p(1, 0, 1);
  QueryGraph g2 = Chain2p(1, 0, 1);
  Planner planner(nullptr, 100);
  Plan plan = planner.BuildPlan({{0, &g1}, {1, &g2}});

  serving::SubtreeCache cache(1 << 16);
  serving::SubtreeCache::Entry warm;
  warm.row.assign(8, 0.0f);
  cache.Put(plan.node(plan.roots[0].node).key, warm);

  ExplainOptions options;
  options.num_entities = 100;
  options.cache = &cache;
  options.relation_name = [](int64_t id) {
    return "rel" + std::to_string(id);
  };
  options.entity_name = [](int64_t id) { return "e" + std::to_string(id); };
  const std::string text = ExplainPlan(plan, options);

  EXPECT_NE(text.find("3 nodes"), std::string::npos);
  EXPECT_NE(text.find("before dedup"), std::string::npos);
  EXPECT_NE(text.find("2 roots"), std::string::npos);
  EXPECT_NE(text.find("shared x2"), std::string::npos);
  EXPECT_NE(text.find(" cached"), std::string::npos);
  EXPECT_NE(text.find("rel0"), std::string::npos);
  EXPECT_NE(text.find("e1"), std::string::npos);
  EXPECT_NE(text.find("sel="), std::string::npos);
  EXPECT_NE(text.find("roots:"), std::string::npos);
  // The probe must not perturb hit statistics.
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
}

}  // namespace
}  // namespace halk::plan

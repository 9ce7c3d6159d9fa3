// Ported from tests/query/optimizer_test.cc when the heuristic pass moved
// into plan/rewrite.h. RewriteQuery is a free function the planner never
// calls; planner_test.cc covers planning a rewritten query.
#include "plan/rewrite.h"

#include <gtest/gtest.h>

#include "kg/synthetic.h"
#include "query/executor.h"
#include "query/sampler.h"
#include "query/structures.h"

namespace halk::plan {
namespace {

using query::OpType;
using query::QueryGraph;
using query::QueryNode;
using query::StructureId;

class RewriteTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 200;
    opt.num_relations = 8;
    opt.num_triples = 1400;
    opt.seed = 71;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static kg::Dataset* dataset_;
};

kg::Dataset* RewriteTest::dataset_ = nullptr;

TEST_F(RewriteTest, DoubleNegationEliminated) {
  QueryGraph g;
  int p = g.AddProjection(g.AddAnchor(1), 0);
  g.SetTarget(g.AddNegation(g.AddNegation(p)));
  QueryGraph n = RewriteQuery(g);
  EXPECT_FALSE(n.HasOp(OpType::kNegation));
  EXPECT_EQ(n.ToString(), "p(a1,r0)");
}

TEST_F(RewriteTest, NestedIntersectionsFlattened) {
  QueryGraph g;
  int a = g.AddProjection(g.AddAnchor(1), 0);
  int b = g.AddProjection(g.AddAnchor(2), 1);
  int c = g.AddProjection(g.AddAnchor(3), 2);
  g.SetTarget(g.AddIntersection({g.AddIntersection({a, b}), c}));
  QueryGraph n = RewriteQuery(g);
  const QueryNode& target = n.nodes()[static_cast<size_t>(n.target())];
  EXPECT_EQ(target.op, OpType::kIntersection);
  EXPECT_EQ(target.inputs.size(), 3u);
}

TEST_F(RewriteTest, NestedUnionsFlattened) {
  QueryGraph g;
  int a = g.AddProjection(g.AddAnchor(1), 0);
  int b = g.AddProjection(g.AddAnchor(2), 1);
  int c = g.AddProjection(g.AddAnchor(3), 2);
  g.SetTarget(g.AddUnion({g.AddUnion({a, b}), c}));
  QueryGraph n = RewriteQuery(g);
  const QueryNode& target = n.nodes()[static_cast<size_t>(n.target())];
  EXPECT_EQ(target.op, OpType::kUnion);
  EXPECT_EQ(target.inputs.size(), 3u);
}

TEST_F(RewriteTest, DifferenceMinuendFlattened) {
  // D(D(a, b), c) -> D(a, b, c).
  QueryGraph g;
  int a = g.AddProjection(g.AddAnchor(1), 0);
  int b = g.AddProjection(g.AddAnchor(2), 1);
  int c = g.AddProjection(g.AddAnchor(3), 2);
  g.SetTarget(g.AddDifference({g.AddDifference({a, b}), c}));
  QueryGraph n = RewriteQuery(g);
  const QueryNode& target = n.nodes()[static_cast<size_t>(n.target())];
  EXPECT_EQ(target.op, OpType::kDifference);
  EXPECT_EQ(target.inputs.size(), 3u);
}

TEST_F(RewriteTest, IntermediateNegationBecomesDifference) {
  // p(i(a, ¬b)) — the negation is intermediate, so the paper's preference
  // rewrites it into a difference.
  QueryGraph g;
  int a = g.AddProjection(g.AddAnchor(1), 0);
  int b = g.AddProjection(g.AddAnchor(2), 1);
  int i = g.AddIntersection({a, g.AddNegation(b)});
  g.SetTarget(g.AddProjection(i, 2));
  QueryGraph n = RewriteQuery(g);
  EXPECT_FALSE(n.HasOp(OpType::kNegation));
  EXPECT_TRUE(n.HasOp(OpType::kDifference));
}

TEST_F(RewriteTest, TailNegationKeptByDefault) {
  // 2in: i(a, ¬b) at the target — negation is the better tail operator,
  // so the default options keep it.
  QueryGraph g = query::MakeStructure(StructureId::k2in);
  QueryGraph n = RewriteQuery(g);
  EXPECT_TRUE(n.HasOp(OpType::kNegation));
  EXPECT_FALSE(n.HasOp(OpType::kDifference));

  RewriteOptions opt;
  opt.rewrite_tail_negation = true;
  QueryGraph n2 = RewriteQuery(g, opt);
  EXPECT_FALSE(n2.HasOp(OpType::kNegation));
  EXPECT_TRUE(n2.HasOp(OpType::kDifference));
}

TEST_F(RewriteTest, PreservesSemanticsOnRandomQueries) {
  query::QuerySampler sampler(&dataset_->test, 9);
  RewriteOptions aggressive;
  aggressive.rewrite_tail_negation = true;
  for (StructureId s : query::AllStructures()) {
    auto q = sampler.Sample(s);
    ASSERT_TRUE(q.ok()) << query::StructureName(s);
    for (const RewriteOptions& opt : {RewriteOptions(), aggressive}) {
      QueryGraph n = RewriteQuery(q->graph, opt);
      ASSERT_TRUE(n.Validate(/*grounded=*/true).ok())
          << query::StructureName(s);
      auto before = query::ExecuteQuery(q->graph, dataset_->test);
      auto after = query::ExecuteQuery(n, dataset_->test);
      ASSERT_TRUE(before.ok());
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(*before, *after) << query::StructureName(s);
    }
  }
}

TEST_F(RewriteTest, HandcraftedDeepNest) {
  // ¬¬(i(i(a, ¬¬b), ¬c)) under a projection; normalization must produce
  // a flat difference feeding the projection with identical semantics.
  query::QuerySampler sampler(&dataset_->test, 11);
  auto seed_query = sampler.Sample(StructureId::k2i);
  ASSERT_TRUE(seed_query.ok());
  const auto& nodes = seed_query->graph.nodes();
  const QueryNode& inter =
      nodes[static_cast<size_t>(seed_query->graph.target())];

  QueryGraph g;
  int a = g.AddProjection(
      g.AddAnchor(nodes[static_cast<size_t>(
                            nodes[static_cast<size_t>(inter.inputs[0])]
                                .inputs[0])]
                      .anchor_entity),
      nodes[static_cast<size_t>(inter.inputs[0])].relation);
  int b = g.AddProjection(
      g.AddAnchor(nodes[static_cast<size_t>(
                            nodes[static_cast<size_t>(inter.inputs[1])]
                                .inputs[0])]
                      .anchor_entity),
      nodes[static_cast<size_t>(inter.inputs[1])].relation);
  int c = g.AddProjection(g.AddAnchor(0), 0);
  int bb = g.AddNegation(g.AddNegation(b));
  int i1 = g.AddIntersection({a, bb});
  int i2 = g.AddIntersection({i1, g.AddNegation(c)});
  int nn = g.AddNegation(g.AddNegation(i2));
  g.SetTarget(g.AddProjection(nn, 1));

  QueryGraph n = RewriteQuery(g);
  EXPECT_FALSE(n.HasOp(OpType::kNegation));
  auto before = query::ExecuteQuery(g, dataset_->test);
  auto after = query::ExecuteQuery(n, dataset_->test);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(RewriteTest, RewrittenGraphHasNoUnreachableNodes) {
  QueryGraph g;
  int p = g.AddProjection(g.AddAnchor(1), 0);
  g.AddProjection(g.AddAnchor(2), 1);  // orphan
  g.SetTarget(g.AddNegation(g.AddNegation(p)));
  QueryGraph n = RewriteQuery(g);
  EXPECT_EQ(static_cast<size_t>(n.num_nodes()),
            n.TopologicalOrder().size());
}

}  // namespace
}  // namespace halk::plan

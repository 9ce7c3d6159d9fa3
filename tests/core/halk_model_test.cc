#include "core/halk_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/loss.h"
#include "core/query_groups.h"
#include "kg/synthetic.h"
#include "query/sampler.h"
#include "query/structures.h"
#include "tensor/tape.h"

namespace halk::core {
namespace {

using query::StructureId;
using tensor::Shape;
using tensor::Tensor;

class HalkModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 200;
    opt.num_relations = 8;
    opt.num_triples = 1200;
    opt.seed = 21;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
    Rng rng(5);
    grouping_ = new kg::NodeGrouping(
        kg::NodeGrouping::Random(dataset_->train.num_entities(), 8, &rng));
    grouping_->BuildAdjacency(dataset_->train);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete grouping_;
    dataset_ = nullptr;
    grouping_ = nullptr;
  }

  static ModelConfig SmallConfig() {
    ModelConfig c;
    c.num_entities = dataset_->train.num_entities();
    c.num_relations = dataset_->train.num_relations();
    c.dim = 8;
    c.hidden = 16;
    c.seed = 3;
    return c;
  }

  static kg::Dataset* dataset_;
  static kg::NodeGrouping* grouping_;
};

kg::Dataset* HalkModelTest::dataset_ = nullptr;
kg::NodeGrouping* HalkModelTest::grouping_ = nullptr;

TEST_F(HalkModelTest, AnchorsAreZeroLengthArcs) {
  HalkModel model(SmallConfig(), grouping_);
  EmbeddingBatch arc = model.EmbedAnchors({0, 1, 2});
  EXPECT_EQ(arc.a.shape(), Shape({3, 8}));
  for (int64_t i = 0; i < arc.b.numel(); ++i) {
    EXPECT_EQ(arc.b.at(i), 0.0f);
  }
}

TEST_F(HalkModelTest, ProjectionShapesAndRanges) {
  HalkModel model(SmallConfig(), grouping_);
  EmbeddingBatch in = model.EmbedAnchors({0, 1});
  EmbeddingBatch out = model.Projection(in, {2, 3});
  EXPECT_EQ(out.a.shape(), Shape({2, 8}));
  constexpr float kTwoPi = 6.2831853f;
  for (int64_t i = 0; i < out.a.numel(); ++i) {
    EXPECT_GE(out.a.at(i), 0.0f);
    EXPECT_LE(out.a.at(i), kTwoPi + 1e-4f);
    EXPECT_GE(out.b.at(i), 0.0f);
    EXPECT_LE(out.b.at(i), kTwoPi + 1e-4f);
  }
}

TEST_F(HalkModelTest, DifferenceRespectsCardinalityConstraint) {
  // A_l = A_{1,l} * sigmoid(...) must never exceed the minuend's length.
  HalkModel model(SmallConfig(), grouping_);
  EmbeddingBatch a = model.Projection(model.EmbedAnchors({0, 1}), {0, 1});
  EmbeddingBatch b = model.Projection(model.EmbedAnchors({2, 3}), {1, 2});
  EmbeddingBatch d = model.Difference({a, b});
  for (int64_t i = 0; i < d.b.numel(); ++i) {
    EXPECT_LE(d.b.at(i), a.b.at(i) + 1e-5f);
    EXPECT_GE(d.b.at(i), 0.0f);
  }
}

TEST_F(HalkModelTest, IntersectionBoundedByMinInputLength) {
  HalkModel model(SmallConfig(), grouping_);
  EmbeddingBatch a = model.Projection(model.EmbedAnchors({0, 1}), {0, 1});
  EmbeddingBatch b = model.Projection(model.EmbedAnchors({2, 3}), {1, 2});
  EmbeddingBatch c = model.Projection(model.EmbedAnchors({4, 5}), {2, 3});
  EmbeddingBatch inter = model.Intersection({a, b, c}, {});
  for (int64_t i = 0; i < inter.b.numel(); ++i) {
    const float min_len = std::min(
        {a.b.at(i), b.b.at(i), c.b.at(i)});
    EXPECT_LE(inter.b.at(i), min_len + 1e-5f);
  }
}

TEST_F(HalkModelTest, IntersectionIsPermutationInvariant) {
  HalkModel model(SmallConfig(), grouping_);
  EmbeddingBatch a = model.Projection(model.EmbedAnchors({0}), {0});
  EmbeddingBatch b = model.Projection(model.EmbedAnchors({2}), {1});
  EmbeddingBatch c = model.Projection(model.EmbedAnchors({4}), {2});
  EmbeddingBatch i1 = model.Intersection({a, b, c}, {});
  EmbeddingBatch i2 = model.Intersection({c, a, b}, {});
  for (int64_t i = 0; i < i1.a.numel(); ++i) {
    EXPECT_NEAR(i1.a.at(i), i2.a.at(i), 1e-4f);
    EXPECT_NEAR(i1.b.at(i), i2.b.at(i), 1e-4f);
  }
}

TEST_F(HalkModelTest, DifferenceInvariantToSubtrahendOrderOnly) {
  HalkModel model(SmallConfig(), grouping_);
  EmbeddingBatch a = model.Projection(model.EmbedAnchors({0}), {0});
  EmbeddingBatch b = model.Projection(model.EmbedAnchors({2}), {1});
  EmbeddingBatch c = model.Projection(model.EmbedAnchors({4}), {2});
  // Swapping subtrahends must not change the result (Sec. III-C).
  EmbeddingBatch d1 = model.Difference({a, b, c});
  EmbeddingBatch d2 = model.Difference({a, c, b});
  for (int64_t i = 0; i < d1.a.numel(); ++i) {
    EXPECT_NEAR(d1.a.at(i), d2.a.at(i), 1e-4f);
    EXPECT_NEAR(d1.b.at(i), d2.b.at(i), 1e-4f);
  }
  // Swapping the minuend must change it (asymmetry).
  EmbeddingBatch d3 = model.Difference({b, a, c});
  float max_diff = 0.0f;
  for (int64_t i = 0; i < d1.b.numel(); ++i) {
    max_diff = std::max(max_diff, std::fabs(d1.b.at(i) - d3.b.at(i)));
  }
  EXPECT_GT(max_diff, 1e-5f);
}

TEST_F(HalkModelTest, NegationProducesValidArc) {
  HalkModel model(SmallConfig(), grouping_);
  EmbeddingBatch in = model.Projection(model.EmbedAnchors({0, 1}), {0, 1});
  EmbeddingBatch out = model.Negation(in);
  EXPECT_EQ(out.a.shape(), in.a.shape());
  constexpr float kTwoPi = 6.2831853f;
  for (int64_t i = 0; i < out.a.numel(); ++i) {
    EXPECT_GE(out.a.at(i), 0.0f);
    EXPECT_LE(out.a.at(i), kTwoPi + 1e-4f);
  }
}

TEST_F(HalkModelTest, EmbedsEveryUnionFreeStructure) {
  HalkModel model(SmallConfig(), grouping_);
  query::QuerySampler sampler(&dataset_->train, 17);
  for (StructureId id : query::AllStructures()) {
    query::QueryGraph proto = query::MakeStructure(id);
    if (proto.HasOp(query::OpType::kUnion)) continue;
    auto q = sampler.Sample(id);
    ASSERT_TRUE(q.ok()) << query::StructureName(id);
    std::vector<const query::QueryGraph*> batch = {&q->graph, &q->graph};
    EmbeddingBatch emb = model.EmbedQueries(batch);
    EXPECT_EQ(emb.a.shape(), Shape({2, 8})) << query::StructureName(id);
    for (int64_t i = 0; i < emb.a.numel(); ++i) {
      EXPECT_TRUE(std::isfinite(emb.a.at(i)));
      EXPECT_TRUE(std::isfinite(emb.b.at(i)));
    }
  }
}

TEST_F(HalkModelTest, GradientsReachAllParameterGroupsFor2in) {
  HalkModel model(SmallConfig(), grouping_);
  query::QuerySampler sampler(&dataset_->train, 19);
  auto q = sampler.Sample(StructureId::k2in);
  ASSERT_TRUE(q.ok());
  std::vector<const query::QueryGraph*> batch = {&q->graph};
  EmbeddingBatch emb = model.EmbedQueries(batch);
  LossBatch lb;
  lb.positives = {q->answers[0]};
  lb.negatives = {{1, 2, 3}};
  lb.positive_penalty = {0.0f};
  lb.negative_penalty = {{0.0f, 0.0f, 0.0f}};
  Tensor loss = NegativeSamplingLoss(&model, emb, lb);
  tensor::Backward(loss);
  // Entity table, relation tables, projection/intersection/negation nets
  // must all receive gradient signal for this structure.
  int with_grad = 0;
  for (Tensor p : model.Parameters()) {
    bool any = false;
    for (float g : p.grad_vector()) any = any || g != 0.0f;
    with_grad += any;
  }
  EXPECT_GT(with_grad, 10);
}

TEST_F(HalkModelTest, DistanceConsistentWithDistancesToAll) {
  HalkModel model(SmallConfig(), grouping_);
  query::QuerySampler sampler(&dataset_->train, 23);
  auto q = sampler.Sample(StructureId::k2p);
  ASSERT_TRUE(q.ok());
  std::vector<const query::QueryGraph*> batch = {&q->graph};
  EmbeddingBatch emb = model.EmbedQueries(batch);
  std::vector<float> all;
  model.DistancesToAll(emb, 0, &all);
  ASSERT_EQ(all.size(), static_cast<size_t>(model.config().num_entities));
  for (int64_t e : {int64_t{0}, int64_t{50}, int64_t{150}}) {
    Tensor d = model.Distance({e}, emb);
    EXPECT_NEAR(d.at(0), all[static_cast<size_t>(e)], 1e-3f);
  }
}

TEST_F(HalkModelTest, DeterministicForSeed) {
  HalkModel m1(SmallConfig(), grouping_);
  HalkModel m2(SmallConfig(), grouping_);
  EmbeddingBatch a1 = m1.Projection(m1.EmbedAnchors({7}), {1});
  EmbeddingBatch a2 = m2.Projection(m2.EmbedAnchors({7}), {1});
  for (int64_t i = 0; i < a1.a.numel(); ++i) {
    EXPECT_EQ(a1.a.at(i), a2.a.at(i));
  }
}

TEST_F(HalkModelTest, EmbedAllNodesCoversReachableNodes) {
  HalkModel model(SmallConfig(), grouping_);
  query::QuerySampler sampler(&dataset_->train, 29);
  auto q = sampler.Sample(StructureId::kPi);
  ASSERT_TRUE(q.ok());
  auto arcs = model.EmbedAllNodes(q->graph);
  for (int id : q->graph.TopologicalOrder()) {
    EXPECT_TRUE(arcs[static_cast<size_t>(id)].a.defined());
  }
}

TEST_F(HalkModelTest, SupportsAllOps) {
  HalkModel model(SmallConfig(), grouping_);
  for (auto op : {query::OpType::kProjection, query::OpType::kIntersection,
                  query::OpType::kUnion, query::OpType::kDifference,
                  query::OpType::kNegation}) {
    EXPECT_TRUE(model.Supports(op));
  }
}

TEST_F(HalkModelTest, QueryGroupsPropagation) {
  query::QuerySampler sampler(&dataset_->train, 31);
  auto q = sampler.Sample(StructureId::k2i);
  ASSERT_TRUE(q.ok());
  auto vectors = NodeGroupVectors(q->graph, *grouping_);
  const auto& target = vectors[static_cast<size_t>(q->graph.target())];
  ASSERT_EQ(target.size(), 8u);
  // Target groups = product of branch groups: never exceeds either branch.
  const auto& in0 = vectors[static_cast<size_t>(
      q->graph.nodes()[static_cast<size_t>(q->graph.target())].inputs[0])];
  for (size_t g = 0; g < target.size(); ++g) {
    EXPECT_LE(target[g], in0[g]);
  }
  // All true answers must lie in allowed groups when executed on the same
  // graph the adjacency was built from.
  for (int64_t a : q->answers) {
    EXPECT_GT(target[static_cast<size_t>(grouping_->group_of(a))], 0.0f)
        << "answer " << a;
  }
}

}  // namespace
}  // namespace halk::core

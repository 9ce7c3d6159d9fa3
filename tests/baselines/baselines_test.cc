#include <cmath>

#include <gtest/gtest.h>

#include "baselines/ablations.h"
#include "baselines/cone.h"
#include "baselines/factory.h"
#include "baselines/mlpmix.h"
#include "baselines/newlook.h"
#include "core/evaluator.h"
#include "core/trainer.h"
#include "kg/synthetic.h"
#include "query/sampler.h"
#include "tensor/tape.h"

namespace halk::baselines {
namespace {

using core::EmbeddingBatch;
using core::ModelConfig;
using query::StructureId;
using tensor::Shape;

class BaselinesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 150;
    opt.num_relations = 6;
    opt.num_triples = 900;
    opt.seed = 77;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
    Rng rng(5);
    grouping_ = new kg::NodeGrouping(
        kg::NodeGrouping::Random(dataset_->train.num_entities(), 6, &rng));
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
    c.gamma = 6.0f;
    c.seed = 9;
    return c;
  }

  static kg::Dataset* dataset_;
  static kg::NodeGrouping* grouping_;
};

kg::Dataset* BaselinesTest::dataset_ = nullptr;
kg::NodeGrouping* BaselinesTest::grouping_ = nullptr;

TEST_F(BaselinesTest, FactoryBuildsEveryModel) {
  for (const std::string& name : AvailableModels()) {
    auto model = CreateModel(name, SmallConfig(), grouping_);
    ASSERT_TRUE(model.ok()) << name;
    EXPECT_FALSE((*model)->name().empty());
  }
  EXPECT_FALSE(CreateModel("bogus", SmallConfig(), grouping_).ok());
}

TEST_F(BaselinesTest, OperatorSupportMatchesPaperTables) {
  ConeModel cone(SmallConfig(), grouping_);
  EXPECT_FALSE(cone.Supports(query::OpType::kDifference));
  EXPECT_TRUE(cone.Supports(query::OpType::kNegation));

  NewLookModel newlook(SmallConfig(), grouping_);
  EXPECT_TRUE(newlook.Supports(query::OpType::kDifference));
  EXPECT_FALSE(newlook.Supports(query::OpType::kNegation));

  MlpMixModel mlpmix(SmallConfig(), grouping_);
  EXPECT_FALSE(mlpmix.Supports(query::OpType::kDifference));
  EXPECT_TRUE(mlpmix.Supports(query::OpType::kNegation));
}

TEST_F(BaselinesTest, StructureFilteringPerModel) {
  ConeModel cone(SmallConfig(), grouping_);
  EXPECT_TRUE(core::ModelSupportsStructure(cone, StructureId::k2in));
  EXPECT_FALSE(core::ModelSupportsStructure(cone, StructureId::k2d));

  NewLookModel newlook(SmallConfig(), grouping_);
  EXPECT_TRUE(core::ModelSupportsStructure(newlook, StructureId::k2d));
  EXPECT_FALSE(core::ModelSupportsStructure(newlook, StructureId::kPni));
}

TEST_F(BaselinesTest, EveryModelEmbedsSupportedStructures) {
  query::QuerySampler sampler(&dataset_->train, 3);
  for (const std::string& name : AvailableModels()) {
    auto model = CreateModel(name, SmallConfig(), grouping_);
    ASSERT_TRUE(model.ok());
    for (StructureId id : query::AllStructures()) {
      query::QueryGraph proto = query::MakeStructure(id);
      if (proto.HasOp(query::OpType::kUnion)) continue;
      if (!core::ModelSupportsStructure(**model, id)) continue;
      auto q = sampler.Sample(id);
      ASSERT_TRUE(q.ok());
      std::vector<const query::QueryGraph*> batch = {&q->graph};
      EmbeddingBatch emb = (*model)->EmbedQueries(batch);
      ASSERT_EQ(emb.a.shape(), Shape({1, 8})) << name << "/"
                                              << query::StructureName(id);
      for (int64_t i = 0; i < emb.a.numel(); ++i) {
        EXPECT_TRUE(std::isfinite(emb.a.at(i)));
      }
    }
  }
}

TEST_F(BaselinesTest, DistanceConsistencyAcrossModels) {
  query::QuerySampler sampler(&dataset_->train, 5);
  auto q = sampler.Sample(StructureId::k1p);
  ASSERT_TRUE(q.ok());
  for (const std::string& name : AvailableModels()) {
    auto model = CreateModel(name, SmallConfig(), grouping_);
    ASSERT_TRUE(model.ok());
    std::vector<const query::QueryGraph*> batch = {&q->graph};
    EmbeddingBatch emb = (*model)->EmbedQueries(batch);
    std::vector<float> all;
    (*model)->DistancesToAll(emb, 0, &all);
    tensor::Tensor d = (*model)->Distance({42}, emb);
    EXPECT_NEAR(d.at(0), all[42], 1e-3f) << name;
  }
}

TEST_F(BaselinesTest, NewLookOffsetsNonNegative) {
  NewLookModel model(SmallConfig(), grouping_);
  EmbeddingBatch anchors = model.EmbedAnchors({0, 1});
  EmbeddingBatch proj = model.Projection(anchors, {0, 1});
  for (int64_t i = 0; i < proj.b.numel(); ++i) {
    EXPECT_GE(proj.b.at(i), 0.0f);
  }
  EmbeddingBatch diff =
      model.Difference({proj, model.Projection(anchors, {2, 3})});
  for (int64_t i = 0; i < diff.b.numel(); ++i) {
    EXPECT_GE(diff.b.at(i), 0.0f);
    EXPECT_LE(diff.b.at(i), proj.b.at(i) + 1e-5f);  // box shrinks
  }
}

TEST_F(BaselinesTest, ConeNegationIsExactlyLinear) {
  ConeModel model(SmallConfig(), grouping_);
  core::EmbeddingBatch in{tensor::Tensor::FromVector({1, 8},
                        {0.5f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 0.1f}),
                          tensor::Tensor::Full({1, 8}, 1.0f)};
  core::EmbeddingBatch out = model.Negation(in);
  constexpr float kPi = 3.14159265f;
  constexpr float kTwoPi = 2.0f * kPi;
  for (int64_t i = 0; i < 8; ++i) {
    float expected = in.a.at(i) + kPi;
    if (expected >= kTwoPi) expected -= kTwoPi;
    EXPECT_NEAR(out.a.at(i), expected, 1e-4f);
    EXPECT_NEAR(out.b.at(i), kTwoPi - 1.0f, 1e-4f);
  }
}

TEST_F(BaselinesTest, HalkV2NegationMatchesLinearForm) {
  HalkV2Model model(SmallConfig(), grouping_);
  core::EmbeddingBatch in{tensor::Tensor::Full({1, 8}, 1.0f),
                          tensor::Tensor::Full({1, 8}, 0.5f)};
  core::EmbeddingBatch out = model.Negation(in);
  constexpr float kPi = 3.14159265f;
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(out.a.at(i), 1.0f + kPi, 1e-4f);
    EXPECT_NEAR(out.b.at(i), 2.0f * kPi - 0.5f, 1e-4f);
  }
}

TEST_F(BaselinesTest, HalkV1DropsCardinalityConstraint) {
  // V1's difference length may exceed the minuend's; full HaLk's cannot.
  HalkV1Model model(SmallConfig(), grouping_);
  core::EmbeddingBatch a{tensor::Tensor::Full({1, 8}, 1.0f),
                         tensor::Tensor::Full({1, 8}, 0.01f)};  // tiny minuend
  core::EmbeddingBatch b{tensor::Tensor::Full({1, 8}, 2.0f),
                         tensor::Tensor::Full({1, 8}, 1.0f)};
  core::EmbeddingBatch d = model.Difference({a, b});
  float max_len = 0.0f;
  for (int64_t i = 0; i < 8; ++i) max_len = std::max(max_len, d.b.at(i));
  EXPECT_GT(max_len, 0.011f);  // unconstrained by the 0.01 minuend
}

TEST_F(BaselinesTest, EachBaselineTrainsWithoutNan) {
  for (const std::string& name : {"cone", "newlook", "mlpmix"}) {
    auto model = CreateModel(name, SmallConfig(), grouping_);
    ASSERT_TRUE(model.ok());
    core::TrainerOptions opt;
    opt.steps = 40;
    opt.batch_size = 8;
    opt.num_negatives = 4;
    opt.learning_rate = 3e-3f;
    opt.queries_per_structure = 30;
    opt.seed = 13;
    core::Trainer trainer(model->get(), &dataset_->train, grouping_, opt);
    auto stats = trainer.Train();
    ASSERT_TRUE(stats.ok()) << name;
    EXPECT_TRUE(std::isfinite(stats->final_loss)) << name;
  }
}

TEST_F(BaselinesTest, AblationsTrainAndEvaluate) {
  query::QuerySampler sampler(&dataset_->train, 17);
  auto queries = sampler.SampleMany(StructureId::k2d, 8);
  ASSERT_TRUE(queries.ok());
  for (const std::string& name : {"halk-v1", "halk-v2", "halk-v3"}) {
    auto model = CreateModel(name, SmallConfig(), grouping_);
    ASSERT_TRUE(model.ok());
    core::TrainerOptions opt;
    opt.steps = 30;
    opt.batch_size = 8;
    opt.num_negatives = 4;
    opt.queries_per_structure = 30;
    opt.seed = 19;
    core::Trainer trainer(model->get(), &dataset_->train, grouping_, opt);
    ASSERT_TRUE(trainer.Train().ok()) << name;
    core::Evaluator eval(model->get());
    core::Metrics m = eval.Evaluate(*queries);
    EXPECT_GE(m.mrr, 0.0) << name;
    EXPECT_LE(m.mrr, 1.0) << name;
  }
}

}  // namespace
}  // namespace halk::baselines

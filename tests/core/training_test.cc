// End-to-end learning tests: short HaLk training runs on a tiny synthetic
// KG must reduce the loss and beat an untrained model on ranking metrics.

#include <cmath>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/halk_model.h"
#include "core/loss.h"
#include "core/pruner.h"
#include "core/trainer.h"
#include "kg/synthetic.h"
#include "query/executor.h"
#include "serving/server.h"
#include "tensor/tape.h"

namespace halk::core {
namespace {

using query::StructureId;

class TrainingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 150;
    opt.num_relations = 6;
    opt.num_triples = 900;
    opt.seed = 33;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
    Rng rng(3);
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
    c.seed = 11;
    return c;
  }

  static kg::Dataset* dataset_;
  static kg::NodeGrouping* grouping_;
};

kg::Dataset* TrainingTest::dataset_ = nullptr;
kg::NodeGrouping* TrainingTest::grouping_ = nullptr;

TEST_F(TrainingTest, LossIsFiniteAndPositive) {
  HalkModel model(SmallConfig(), grouping_);
  query::QuerySampler sampler(&dataset_->train, 41);
  auto q = sampler.Sample(StructureId::k1p);
  ASSERT_TRUE(q.ok());
  std::vector<const query::QueryGraph*> batch = {&q->graph};
  EmbeddingBatch emb = model.EmbedQueries(batch);
  LossBatch lb;
  lb.positives = {q->answers[0]};
  lb.negatives = {{5, 6, 7, 8}};
  lb.positive_penalty = {0.0f};
  lb.negative_penalty = {{0.0f, 0.0f, 0.0f, 0.0f}};
  tensor::Tensor loss = NegativeSamplingLoss(&model, emb, lb);
  EXPECT_TRUE(std::isfinite(loss.at(0)));
  EXPECT_GT(loss.at(0), 0.0f);
}

TEST_F(TrainingTest, GroupPenaltyIncreasesLoss) {
  HalkModel model(SmallConfig(), grouping_);
  query::QuerySampler sampler(&dataset_->train, 43);
  auto q = sampler.Sample(StructureId::k1p);
  ASSERT_TRUE(q.ok());
  std::vector<const query::QueryGraph*> batch = {&q->graph};
  EmbeddingBatch emb = model.EmbedQueries(batch);
  LossBatch lb;
  lb.positives = {q->answers[0]};
  lb.negatives = {{5, 6}};
  lb.positive_penalty = {0.0f};
  lb.negative_penalty = {{0.0f, 0.0f}};
  const float base = NegativeSamplingLoss(&model, emb, lb).at(0);
  // A positive with a group-violation penalty scores a higher loss.
  EmbeddingBatch emb2 = model.EmbedQueries(batch);
  lb.positive_penalty = {2.0f};
  const float penalized = NegativeSamplingLoss(&model, emb2, lb).at(0);
  EXPECT_GT(penalized, base);
}

TEST_F(TrainingTest, TrainingReducesLoss) {
  HalkModel model(SmallConfig(), grouping_);
  TrainerOptions opt;
  opt.steps = 160;
  opt.batch_size = 16;
  opt.num_negatives = 8;
  opt.learning_rate = 5e-3f;
  opt.structures = {StructureId::k1p, StructureId::k2i};
  opt.queries_per_structure = 60;
  opt.seed = 5;
  Trainer trainer(&model, &dataset_->train, grouping_, opt);
  auto stats = trainer.Train();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->steps, 160);
  EXPECT_LT(stats->final_loss, stats->mean_loss);
  EXPECT_TRUE(std::isfinite(stats->final_loss));
}

// Serving between two training runs leaves no trace in the parameters:
// the served forward records no graph and touches no gradient, so
// train -> serve -> train ends bit-identical to train -> train.
TEST_F(TrainingTest, ServingBetweenTrainingRunsChangesNoParameterBit) {
  TrainerOptions opt;
  opt.steps = 20;
  opt.batch_size = 8;
  opt.num_negatives = 4;
  opt.learning_rate = 5e-3f;
  opt.structures = {StructureId::k1p, StructureId::k2i, StructureId::k2in};
  opt.queries_per_structure = 20;
  opt.seed = 5;
  auto train = [&](HalkModel* model) {
    Trainer trainer(model, &dataset_->train, grouping_, opt);
    ASSERT_TRUE(trainer.Train().ok());
  };

  HalkModel served(SmallConfig(), grouping_);
  train(&served);
  {
    serving::ServerOptions options;
    options.num_workers = 1;
    options.cache_capacity = 0;
    serving::QueryServer server(&served, &dataset_->train, options);
    Evaluator evaluator(&served);
    query::QuerySampler sampler(&dataset_->train, 71);
    for (StructureId s : {StructureId::k2p, StructureId::k3i,
                          StructureId::kPin, StructureId::k2u}) {
      auto queries = sampler.SampleMany(s, 2);
      ASSERT_TRUE(queries.ok());
      for (const query::GroundedQuery& q : *queries) {
        auto answer = server.Answer(q.graph, 5);
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        EXPECT_EQ(answer->entities, evaluator.TopK(q.graph, 5));
      }
    }
  }
  train(&served);

  HalkModel reference(SmallConfig(), grouping_);
  train(&reference);
  train(&reference);

  const std::vector<tensor::Tensor> got = served.Parameters();
  const std::vector<tensor::Tensor> want = reference.Parameters();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].numel(), want[i].numel());
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          static_cast<size_t>(want[i].numel()) *
                              sizeof(float)),
              0)
        << "parameter " << i;
  }
}

TEST_F(TrainingTest, TrainedModelBeatsUntrainedOnMrr) {
  const ModelConfig config = SmallConfig();
  query::QuerySampler sampler(&dataset_->train, 47);
  auto eval_queries = sampler.SampleMany(StructureId::k1p, 30);
  ASSERT_TRUE(eval_queries.ok());

  HalkModel untrained(config, grouping_);
  Evaluator eval_untrained(&untrained);
  Metrics before = eval_untrained.Evaluate(*eval_queries);

  HalkModel trained(config, grouping_);
  TrainerOptions opt;
  opt.steps = 250;
  opt.batch_size = 16;
  opt.num_negatives = 8;
  opt.learning_rate = 5e-3f;
  opt.structures = {StructureId::k1p};
  opt.queries_per_structure = 80;
  opt.seed = 5;
  Trainer trainer(&trained, &dataset_->train, grouping_, opt);
  ASSERT_TRUE(trainer.Train().ok());
  Evaluator eval_trained(&trained);
  Metrics after = eval_trained.Evaluate(*eval_queries);

  EXPECT_GT(after.mrr, before.mrr * 1.5);
  EXPECT_GT(after.mrr, 0.05);
  EXPECT_EQ(after.num_queries, 30);
}

TEST_F(TrainingTest, ModelSupportsStructureFiltersCorrectly) {
  HalkModel model(SmallConfig(), grouping_);
  for (StructureId s : query::AllStructures()) {
    EXPECT_TRUE(ModelSupportsStructure(model, s));
  }
}

TEST_F(TrainingTest, EvaluatorMetricsAreBounded) {
  HalkModel model(SmallConfig(), grouping_);
  query::QuerySampler sampler(&dataset_->train, 53);
  auto queries = sampler.SampleMany(StructureId::k2p, 10);
  ASSERT_TRUE(queries.ok());
  Evaluator eval(&model);
  Metrics m = eval.Evaluate(*queries);
  EXPECT_GE(m.mrr, 0.0);
  EXPECT_LE(m.mrr, 1.0);
  EXPECT_GE(m.hits3, 0.0);
  EXPECT_LE(m.hits3, 1.0);
  EXPECT_LE(m.hits1, m.hits3);
  EXPECT_LE(m.hits3, m.hits10);
  EXPECT_EQ(m.num_queries, 10);
}

TEST_F(TrainingTest, EvaluatorHandlesUnionQueriesViaDnf) {
  HalkModel model(SmallConfig(), grouping_);
  query::QuerySampler sampler(&dataset_->train, 59);
  auto queries = sampler.SampleMany(StructureId::k2u, 5);
  ASSERT_TRUE(queries.ok());
  Evaluator eval(&model);
  Metrics m = eval.Evaluate(*queries);
  EXPECT_EQ(m.num_queries, 5);
  EXPECT_GE(m.mrr, 0.0);
}

TEST_F(TrainingTest, TopKReturnsDistinctEntities) {
  HalkModel model(SmallConfig(), grouping_);
  query::QuerySampler sampler(&dataset_->train, 61);
  auto q = sampler.Sample(StructureId::k1p);
  ASSERT_TRUE(q.ok());
  Evaluator eval(&model);
  auto top = eval.TopK(q->graph, 20);
  ASSERT_EQ(top.size(), 20u);
  std::set<int64_t> uniq(top.begin(), top.end());
  EXPECT_EQ(uniq.size(), 20u);
}

TEST_F(TrainingTest, PrunerBuildsInducedSubgraph) {
  HalkModel model(SmallConfig(), grouping_);
  query::QuerySampler sampler(&dataset_->train, 67);
  auto q = sampler.Sample(StructureId::k2i);
  ASSERT_TRUE(q.ok());
  Pruner pruner(&model);
  PruneResult result = pruner.Prune(q->graph, dataset_->train, 20);

  // Anchors are always kept.
  for (int id : q->graph.AnchorIds()) {
    const int64_t anchor =
        q->graph.nodes()[static_cast<size_t>(id)].anchor_entity;
    EXPECT_TRUE(std::binary_search(result.candidates.begin(),
                                   result.candidates.end(), anchor));
  }
  // The induced graph only contains edges between candidates and is
  // no larger than the original.
  EXPECT_LE(result.induced.num_triples(), dataset_->train.num_triples());
  for (const kg::Triple& t : result.induced.triples()) {
    EXPECT_TRUE(std::binary_search(result.candidates.begin(),
                                   result.candidates.end(), t.head));
    EXPECT_TRUE(std::binary_search(result.candidates.begin(),
                                   result.candidates.end(), t.tail));
  }
  // Candidate count is bounded by top_k per variable node + anchors.
  const size_t num_vars =
      q->graph.TopologicalOrder().size() - q->graph.AnchorIds().size();
  EXPECT_LE(result.candidates.size(),
            num_vars * 20 + q->graph.AnchorIds().size());
}

}  // namespace
}  // namespace halk::core

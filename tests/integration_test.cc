// Full-pipeline integration test: synthetic KG → training → checkpoint →
// reload → evaluation → LSH retrieval → pruning → matching → SPARQL.
// Everything a downstream user would chain together, on one tiny dataset.

#include <algorithm>
#include <cstdio>

#include <gtest/gtest.h>

#include "halk/halk.h"

namespace halk {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 250;
    opt.num_relations = 10;
    opt.num_triples = 2500;
    opt.seed = 2024;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));

    Rng rng(4);
    grouping_ = new kg::NodeGrouping(
        kg::NodeGrouping::Random(dataset_->train.num_entities(), 8, &rng));
    grouping_->BuildAdjacency(dataset_->train);

    core::ModelConfig config;
    config.num_entities = dataset_->train.num_entities();
    config.num_relations = dataset_->train.num_relations();
    config.dim = 16;
    config.hidden = 32;
    config.seed = 5;
    model_ = new core::HalkModel(config, grouping_);

    core::TrainerOptions opt2;
    opt2.steps = 900;
    opt2.batch_size = 32;
    opt2.num_negatives = 16;
    opt2.learning_rate = 1e-2f;
    opt2.queries_per_structure = 120;
    opt2.structures = {query::StructureId::k1p, query::StructureId::k2p,
                       query::StructureId::k2i, query::StructureId::k2d};
    core::Trainer trainer(model_, &dataset_->train, grouping_, opt2);
    auto stats = trainer.Train();
    ASSERT_TRUE(stats.ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete grouping_;
    delete dataset_;
    model_ = nullptr;
    grouping_ = nullptr;
    dataset_ = nullptr;
  }

  static kg::Dataset* dataset_;
  static kg::NodeGrouping* grouping_;
  static core::HalkModel* model_;
};

kg::Dataset* PipelineTest::dataset_ = nullptr;
kg::NodeGrouping* PipelineTest::grouping_ = nullptr;
core::HalkModel* PipelineTest::model_ = nullptr;

TEST_F(PipelineTest, TrainedModelRanksAnswersAboveUntrained) {
  query::QuerySampler sampler(&dataset_->test, 9);
  auto queries = sampler.SampleMany(query::StructureId::k1p, 25);
  ASSERT_TRUE(queries.ok());
  core::Evaluator evaluator(model_);
  core::Metrics trained = evaluator.Evaluate(*queries);

  core::ModelConfig config = model_->config();
  config.seed = 321;
  core::HalkModel untrained(config, grouping_);
  core::Evaluator evaluator_u(&untrained);
  core::Metrics random = evaluator_u.Evaluate(*queries);

  EXPECT_GT(trained.mrr, random.mrr * 1.5);
  EXPECT_GT(trained.mrr, 0.05);
}

TEST_F(PipelineTest, CheckpointRoundTripThroughDisk) {
  const std::string path = testing::TempDir() + "/pipeline_ckpt.bin";
  ASSERT_TRUE(core::SaveCheckpoint(*model_, path).ok());
  core::ModelConfig config = model_->config();
  config.seed = 999;
  core::HalkModel reloaded(config, grouping_);
  ASSERT_TRUE(core::LoadCheckpoint(&reloaded, path).ok());

  query::QuerySampler sampler(&dataset_->test, 11);
  auto q = sampler.Sample(query::StructureId::k2i);
  ASSERT_TRUE(q.ok());
  core::Evaluator ev_a(model_);
  core::Evaluator ev_b(&reloaded);
  EXPECT_EQ(ev_a.TopK(q->graph, 10), ev_b.TopK(q->graph, 10));
  std::remove(path.c_str());
}

TEST_F(PipelineTest, LshTopKAgreesWithExactForTrainedModel) {
  const auto& angles = model_->entity_angles();
  core::AngularLshIndex::Options lsh_opt;
  lsh_opt.num_tables = 16;
  lsh_opt.bits_per_table = 4;
  core::AngularLshIndex index(angles.data(), model_->config().num_entities,
                              model_->config().dim, lsh_opt);
  query::QuerySampler sampler(&dataset_->test, 13);
  auto q = sampler.Sample(query::StructureId::k1p);
  ASSERT_TRUE(q.ok());
  std::vector<const query::QueryGraph*> batch = {&q->graph};
  core::EmbeddingBatch emb = model_->EmbedQueries(batch);

  // Exact top-10 from the evaluator vs LSH top-10: high overlap required
  // (the LSH path may probe a subset of buckets).
  core::Evaluator evaluator(model_);
  auto exact = evaluator.TopK(q->graph, 10);
  auto approx = index.TopK(emb.a.data(), emb.b.data(), 10,
                           model_->config().rho, model_->config().eta);
  int overlap = 0;
  for (int64_t e : approx) {
    overlap += std::find(exact.begin(), exact.end(), e) != exact.end();
  }
  EXPECT_GE(overlap, 7);
}

TEST_F(PipelineTest, PruneThenMatchIsSound) {
  query::QuerySampler sampler(&dataset_->test, 15);
  auto q = sampler.Sample(query::StructureId::k2i);
  ASSERT_TRUE(q.ok());
  matching::SubgraphMatcher full(&dataset_->test);
  matching::PrunedMatcher pruned(model_, &dataset_->test, 20);
  auto fr = full.Match(q->graph);
  auto pr = pruned.Match(q->graph);
  ASSERT_TRUE(fr.ok());
  ASSERT_TRUE(pr.ok());
  EXPECT_EQ(*fr, q->answers);  // full matcher is exact on observed edges
  for (int64_t a : *pr) {      // pruned answers are sound
    EXPECT_TRUE(std::binary_search(fr->begin(), fr->end(), a));
  }
}

TEST_F(PipelineTest, SparqlToNeuralAnswers) {
  // Express a 2i query over the synthetic vocabulary via SPARQL.
  query::QuerySampler sampler(&dataset_->test, 17);
  auto q = sampler.Sample(query::StructureId::k2i);
  ASSERT_TRUE(q.ok());
  const auto& nodes = q->graph.nodes();
  const query::QueryNode& inter =
      nodes[static_cast<size_t>(q->graph.target())];
  const query::QueryNode& p1 = nodes[static_cast<size_t>(inter.inputs[0])];
  const query::QueryNode& p2 = nodes[static_cast<size_t>(inter.inputs[1])];
  const auto& ents = dataset_->test.entities();
  const auto& rels = dataset_->test.relations();
  const std::string sparql =
      "SELECT ?x WHERE { " +
      ents.Name(nodes[static_cast<size_t>(p1.inputs[0])].anchor_entity) +
      " " + rels.Name(p1.relation) + " ?x . " +
      ents.Name(nodes[static_cast<size_t>(p2.inputs[0])].anchor_entity) +
      " " + rels.Name(p2.relation) + " ?x . }";
  auto compiled = sparql::CompileSparql(sparql, dataset_->test);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto exact = query::ExecuteQuery(*compiled, dataset_->test);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, q->answers);

  core::Evaluator evaluator(model_);
  auto top = evaluator.TopK(*compiled, 5);
  EXPECT_EQ(top.size(), 5u);
}

}  // namespace
}  // namespace halk

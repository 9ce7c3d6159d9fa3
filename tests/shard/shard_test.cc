#include "shard/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/halk_model.h"
#include "core/topk.h"
#include "kg/synthetic.h"
#include "query/sampler.h"
#include "query/structures.h"
#include "serving/metrics.h"
#include "shard/slow_range_model.h"

namespace halk::shard {
namespace {

using query::StructureId;

/// Shared fixture: a synthetic KG (entity count divisible by the tested
/// shard counts, so coverage fractions are exact) and an untrained HaLk
/// model — sharded ranking is weight-independent.
class ShardTest : public ::testing::Test {
 protected:
  static constexpr int64_t kEntities = 200;

  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = kEntities;
    opt.num_relations = 6;
    opt.num_triples = 1200;
    opt.seed = 21;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
    core::ModelConfig config;
    config.num_entities = dataset_->train.num_entities();
    config.num_relations = dataset_->train.num_relations();
    config.dim = 8;
    config.hidden = 16;
    config.seed = 5;
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

  static std::vector<int64_t> Entities(
      const std::vector<core::ScoredEntity>& entries) {
    std::vector<int64_t> out;
    for (const core::ScoredEntity& s : entries) out.push_back(s.entity);
    return out;
  }

  static kg::Dataset* dataset_;
  static core::HalkModel* model_;
};

kg::Dataset* ShardTest::dataset_ = nullptr;
core::HalkModel* ShardTest::model_ = nullptr;

TEST_F(ShardTest, RangesPartitionTheEntityTable) {
  ShardOptions options;
  options.num_shards = 7;  // does not divide 200: first shards get +1
  ShardCoordinator coordinator(model_, options);
  int64_t next = 0;
  for (int s = 0; s < coordinator.num_shards(); ++s) {
    const EntityRange range = coordinator.shard_range(s);
    EXPECT_EQ(range.begin, next);
    EXPECT_GE(range.size(), kEntities / 7);
    next = range.end;
  }
  EXPECT_EQ(next, kEntities);
}

TEST_F(ShardTest, DistancesToRangeMatchesFullScan) {
  query::GroundedQuery q = SampleQueries(StructureId::k2p, 1, 17)[0];
  std::vector<const query::QueryGraph*> single = {&q.graph};
  core::EmbeddingBatch embedding = model_->EmbedQueries(single);
  std::vector<float> all;
  model_->DistancesToAll(embedding, 0, &all);
  for (const auto& [begin, end] :
       std::vector<std::pair<int64_t, int64_t>>{
           {0, 50}, {50, 125}, {125, 200}, {0, 200}, {60, 60}}) {
    std::vector<float> slice;
    model_->DistancesToRange(embedding, 0, begin, end, &slice);
    ASSERT_EQ(static_cast<int64_t>(slice.size()), end - begin);
    for (int64_t i = begin; i < end; ++i) {
      EXPECT_EQ(slice[static_cast<size_t>(i - begin)],
                all[static_cast<size_t>(i)])
          << "entity " << i;
    }
  }
}

// Acceptance property: with no deadline, the sharded ranking is
// identical to brute-force Evaluator::TopK for every structure, at every
// shard count. The ranked model is a twin of the fixture model with codes,
// as a QueryServer prepares it, so every shard runs the two-stage scan; the
// reference scores every entity of the uncoded fixture model.
TEST_F(ShardTest, EqualsEvaluatorForEveryStructureAndShardCount) {
  core::HalkModel served(model_->config(), nullptr);
  served.PrepareForServing();
  ASSERT_FALSE(served.entity_table().codes.empty());
  ASSERT_TRUE(model_->entity_table().codes.empty());
  ASSERT_EQ(std::memcmp(served.entity_angles().data(),
                        model_->entity_angles().data(),
                        sizeof(float) * served.entity_angles().numel()),
            0);
  core::Evaluator evaluator(model_);
  for (int shards : {1, 2, 4, 8}) {
    ShardOptions options;
    options.num_shards = shards;
    ShardCoordinator coordinator(&served, options);
    for (StructureId s : query::AllStructures()) {
      for (const query::GroundedQuery& q : SampleQueries(s, 2, 301)) {
        ShardedTopK top = coordinator.TopK(q.graph, 10);
        ASSERT_TRUE(top.ok()) << top.status.ToString();
        EXPECT_EQ(top.coverage, 1.0);
        EXPECT_EQ(Entities(top.entries), evaluator.TopK(q.graph, 10))
            << query::StructureName(s) << " with " << shards << " shards";
      }
    }
  }
}

TEST_F(ShardTest, KBeyondEntityCountReturnsFullRanking) {
  ShardOptions options;
  options.num_shards = 4;
  ShardCoordinator coordinator(model_, options);
  query::GroundedQuery q = SampleQueries(StructureId::k1p, 1, 5)[0];
  ShardedTopK top = coordinator.TopK(q.graph, kEntities + 50);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(static_cast<int64_t>(top.entries.size()), kEntities);
}

TEST_F(ShardTest, FullShardLossDegradesToPartialResult) {
  // Shard 2 stalls for 10x the deadline, so it is left uncovered while the
  // other three (shard 0 inline, shards 1 and 3 on workers) answer.
  constexpr std::chrono::milliseconds kDeadline{200};
  SlowRangeModel model(model_->config(), 10 * kDeadline);
  core::Evaluator evaluator(&model);
  ShardOptions options;
  options.num_shards = 4;
  serving::MetricsRegistry metrics;
  ShardCoordinator coordinator(&model, options, &metrics);

  const int lost = 2;
  const EntityRange lost_range = coordinator.shard_range(lost);
  model.SlowRange(lost_range.begin);

  query::GroundedQuery q = SampleQueries(StructureId::k2i, 1, 55)[0];
  ShardedTopK top = coordinator.TopK(q.graph, 10, kDeadline);
  EXPECT_EQ(top.status.code(), StatusCode::kPartialResult);
  EXPECT_TRUE(top.partial());
  EXPECT_DOUBLE_EQ(top.coverage,
                   1.0 - static_cast<double>(lost_range.size()) / kEntities);

  // The entries are the exact top-k of the covered fraction: brute-force
  // ranking with the lost range filtered out.
  std::vector<float> dist = evaluator.ScoreAllEntities(q.graph);
  core::TopKAccumulator expected(10);
  for (int64_t e = 0; e < kEntities; ++e) {
    if (e >= lost_range.begin && e < lost_range.end) continue;
    expected.Push(e, dist[static_cast<size_t>(e)]);
  }
  EXPECT_EQ(top.entries, expected.Take());
  EXPECT_EQ(metrics.CounterValue("shard.partial_results"), 1);
  EXPECT_EQ(metrics.CounterValue("shard.deadline_misses"), 1);

  // Once the shard is fast again, answers are exact at full coverage.
  model.Heal();
  ShardedTopK healed = coordinator.TopK(q.graph, 10);
  ASSERT_TRUE(healed.ok()) << healed.status.ToString();
  EXPECT_EQ(healed.coverage, 1.0);
  EXPECT_EQ(Entities(healed.entries), evaluator.TopK(q.graph, 10));
}

TEST_F(ShardTest, ExpiredDeadlineIsDeadlineExceeded) {
  ShardOptions options;
  options.num_shards = 2;
  serving::MetricsRegistry metrics;
  ShardCoordinator coordinator(model_, options, &metrics);
  query::GroundedQuery q = SampleQueries(StructureId::k1p, 1, 66)[0];
  std::vector<const query::QueryGraph*> single = {&q.graph};
  BranchSet branches;
  branches.embeddings.push_back(model_->EmbedQueries(single));
  branches.rows.emplace_back(0, 0);
  // A deadline already in the past: no shard starts its scan.
  ShardedTopK top = coordinator.TopKEmbedded(
      branches, 5, std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_EQ(top.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(top.coverage, 0.0);
  EXPECT_TRUE(top.entries.empty());
  EXPECT_EQ(metrics.CounterValue("shard.deadline_misses"), 2);
  EXPECT_EQ(metrics.CounterValue("shard.partial_results"), 0);
}

TEST_F(ShardTest, DegradedLatencyKeepsAnswersExact) {
  SlowRangeModel model(model_->config(), std::chrono::milliseconds(20));
  core::Evaluator evaluator(&model);
  ShardOptions options;
  options.num_shards = 4;
  ShardCoordinator coordinator(&model, options);
  // A slow shard (no deadline) degrades latency, never correctness.
  model.SlowRange(coordinator.shard_range(2).begin);
  query::GroundedQuery q = SampleQueries(StructureId::k2p, 1, 88)[0];
  ShardedTopK top = coordinator.TopK(q.graph, 10);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.coverage, 1.0);
  EXPECT_EQ(Entities(top.entries), evaluator.TopK(q.graph, 10));
}

TEST_F(ShardTest, ConcurrentRequestsStayExact) {
  core::Evaluator evaluator(model_);
  ShardOptions options;
  options.num_shards = 4;
  ShardCoordinator coordinator(model_, options);

  std::vector<query::GroundedQuery> pool =
      SampleQueries(StructureId::k2i, 8, 111);
  std::vector<std::vector<int64_t>> expected;
  for (const query::GroundedQuery& q : pool) {
    expected.push_back(evaluator.TopK(q.graph, 7));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        const size_t idx = static_cast<size_t>(t * 10 + i) % pool.size();
        ShardedTopK top = coordinator.TopK(pool[idx].graph, 7);
        if (!top.ok() || Entities(top.entries) != expected[idx]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace halk::shard

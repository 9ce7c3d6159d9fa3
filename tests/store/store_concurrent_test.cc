#include <stdlib.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/halk_model.h"
#include "core/topk.h"
#include "kg/synthetic.h"
#include "query/sampler.h"
#include "query/structures.h"
#include "shard/coordinator.h"
#include "store/convert.h"
#include "store/store.h"
#include "store/writer.h"

namespace halk::store {
namespace {

using query::StructureId;

/// Concurrency suite (TSan CI job, label `concurrent`): many threads
/// scanning one shared mmap-backed store. The mapping is immutable, so the
/// only way this can fail is a data race in the scan/metrics plumbing —
/// exactly what TSan is pointed at.
class StoreConcurrentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 192;
    opt.num_relations = 6;
    opt.num_triples = 1100;
    opt.seed = 29;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
    core::ModelConfig config;
    config.num_entities = dataset_->train.num_entities();
    config.num_relations = dataset_->train.num_relations();
    config.dim = 8;
    config.hidden = 16;
    config.seed = 9;
    model_ = new core::HalkModel(config, nullptr);

    // One directory per process: ctest runs each case in its own process,
    // possibly at once, and one must never rewrite files the other has
    // mapped.
    std::string pattern = testing::TempDir() + "/store_concurrent_XXXXXX";
    ASSERT_NE(::mkdtemp(pattern.data()), nullptr) << pattern;
    dir_ = new std::string(pattern);
    ASSERT_TRUE(WriteModelSnapshot(*model_, *dir_, /*num_shards=*/4).ok());
    auto store = EmbeddingStore::Open(*dir_, {});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = store->release();
    auto served = OpenServingModel(*store_, nullptr);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    served_ = served->release();
  }
  static void TearDownTestSuite() {
    delete served_;
    delete store_;
    delete model_;
    delete dataset_;
    if (dir_ != nullptr) {
      std::error_code ignored;
      std::filesystem::remove_all(*dir_, ignored);
    }
    delete dir_;
    served_ = nullptr;
    store_ = nullptr;
    model_ = nullptr;
    dataset_ = nullptr;
    dir_ = nullptr;
  }

  static kg::Dataset* dataset_;
  static core::HalkModel* model_;
  static std::string* dir_;
  static EmbeddingStore* store_;
  static core::HalkModel* served_;
};

kg::Dataset* StoreConcurrentTest::dataset_ = nullptr;
core::HalkModel* StoreConcurrentTest::model_ = nullptr;
std::string* StoreConcurrentTest::dir_ = nullptr;
EmbeddingStore* StoreConcurrentTest::store_ = nullptr;
core::HalkModel* StoreConcurrentTest::served_ = nullptr;

TEST_F(StoreConcurrentTest, ParallelScansOverOneMappingStayExact) {
  // Embed once up front (EmbedQueries builds autograd state and is not
  // meant for concurrent use); the scan path under test is const.
  query::QuerySampler sampler(&dataset_->train, 41);
  std::vector<query::GroundedQuery> pool =
      sampler.SampleMany(StructureId::k2i, 6).ValueOrDie();
  std::vector<core::EmbeddingBatch> embeddings;
  std::vector<std::vector<core::ScoredEntity>> expected;
  for (const query::GroundedQuery& q : pool) {
    std::vector<const query::QueryGraph*> single = {&q.graph};
    embeddings.push_back(served_->EmbedQueries(single));
    core::TopKAccumulator acc(10);
    served_->AccumulateTopKRange({{&embeddings.back(), 0}}, 0,
                                 served_->config().num_entities, &acc,
                                 nullptr);
    expected.push_back(acc.Take());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        const size_t idx = static_cast<size_t>(t + i) % pool.size();
        core::TopKAccumulator acc(10);
        core::ScanStats stats;
        served_->AccumulateTopKRange({{&embeddings[idx], 0}}, 0,
                                     served_->config().num_entities, &acc,
                                     &stats);
        if (acc.Take() != expected[idx] ||
            stats.column_blocks_scanned <= 0) {
          mismatches.fetch_add(1);
        }
        // Residency probes race benignly with other readers' page faults;
        // they must still be safe to call mid-scan.
        store_->UpdateResidencyMetrics();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Four shards (shard 0 inline on each caller, three workers) scanning the
// store for concurrent callers return the exact in-RAM ranking — the
// store_sharded serving configuration, under TSan.
TEST_F(StoreConcurrentTest, ShardedServingOverStoreIsExact) {
  core::Evaluator evaluator(model_);
  shard::ShardOptions options;
  options.num_shards = 4;
  shard::ShardCoordinator coordinator(served_, options);

  query::QuerySampler sampler(&dataset_->train, 53);
  std::vector<query::GroundedQuery> pool =
      sampler.SampleMany(StructureId::k2p, 6).ValueOrDie();
  std::vector<std::vector<int64_t>> expected;
  for (const query::GroundedQuery& q : pool) {
    expected.push_back(evaluator.TopK(q.graph, 10));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        const size_t idx = static_cast<size_t>(t * 10 + i) % pool.size();
        shard::ShardedTopK top = coordinator.TopK(pool[idx].graph, 10);
        std::vector<int64_t> entities;
        for (const core::ScoredEntity& s : top.entries) {
          entities.push_back(s.entity);
        }
        if (!top.ok() || entities != expected[idx]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace halk::store

// Operator-level microbenchmarks (google-benchmark): forward latency of
// each HaLk logical operator and of the distance function, across batch
// sizes — the constant-time operator costs behind the complexity analysis
// of Sec. III-H and the online-time decomposition of Fig. 6c.

#include <benchmark/benchmark.h>

#include "halk/halk.h"

namespace {

struct Fixture {
  Fixture() : rng(1) {
    config.num_entities = 1000;
    config.num_relations = 20;
    config.dim = 16;
    config.hidden = 32;
    config.seed = 5;
    grouping = std::make_unique<halk::kg::NodeGrouping>(
        halk::kg::NodeGrouping::Random(config.num_entities, 16, &rng));
    model = std::make_unique<halk::core::HalkModel>(config, nullptr);
  }

  halk::core::EmbeddingBatch Anchors(int64_t batch) {
    std::vector<int64_t> ids(static_cast<size_t>(batch));
    for (auto& id : ids) {
      id = static_cast<int64_t>(rng.UniformInt(
          static_cast<uint64_t>(config.num_entities)));
    }
    return model->EmbedAnchors(ids);
  }

  std::vector<int64_t> Relations(int64_t batch) {
    std::vector<int64_t> ids(static_cast<size_t>(batch));
    for (auto& id : ids) {
      id = static_cast<int64_t>(rng.UniformInt(
          static_cast<uint64_t>(config.num_relations)));
    }
    return ids;
  }

  halk::Rng rng;
  halk::core::ModelConfig config;
  std::unique_ptr<halk::kg::NodeGrouping> grouping;
  std::unique_ptr<halk::core::HalkModel> model;
};

Fixture& F() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_Projection(benchmark::State& state) {
  const int64_t batch = state.range(0);
  auto in = F().Anchors(batch);
  auto rels = F().Relations(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(F().model->Projection(in, rels));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_Intersection(benchmark::State& state) {
  const int64_t batch = state.range(0);
  auto a = F().model->Projection(F().Anchors(batch), F().Relations(batch));
  auto b = F().model->Projection(F().Anchors(batch), F().Relations(batch));
  auto c = F().model->Projection(F().Anchors(batch), F().Relations(batch));
  for (auto _ : state) {
    benchmark::DoNotOptimize(F().model->Intersection({a, b, c}, {}));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_Difference(benchmark::State& state) {
  const int64_t batch = state.range(0);
  auto a = F().model->Projection(F().Anchors(batch), F().Relations(batch));
  auto b = F().model->Projection(F().Anchors(batch), F().Relations(batch));
  for (auto _ : state) {
    benchmark::DoNotOptimize(F().model->Difference({a, b}));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_Negation(benchmark::State& state) {
  const int64_t batch = state.range(0);
  auto a = F().model->Projection(F().Anchors(batch), F().Relations(batch));
  for (auto _ : state) {
    benchmark::DoNotOptimize(F().model->Negation(a));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_DistancesToAllEntities(benchmark::State& state) {
  auto emb = F().model->Projection(F().Anchors(1), F().Relations(1));
  std::vector<float> out;
  for (auto _ : state) {
    F().model->DistancesToAll(emb, 0, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * F().config.num_entities);
}

BENCHMARK(BM_Projection)->Arg(1)->Arg(32)->Arg(128);
BENCHMARK(BM_Intersection)->Arg(1)->Arg(32)->Arg(128);
BENCHMARK(BM_Difference)->Arg(1)->Arg(32)->Arg(128);
BENCHMARK(BM_Negation)->Arg(1)->Arg(32)->Arg(128);
BENCHMARK(BM_DistancesToAllEntities);

}  // namespace

BENCHMARK_MAIN();

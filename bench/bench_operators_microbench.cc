// Operator-level microbenchmarks (google-benchmark): forward latency of
// each HaLk logical operator and of the distance function, across batch
// sizes — the constant-time operator costs behind the complexity analysis
// of Sec. III-H and the online-time decomposition of Fig. 6c.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <vector>

#include "core/scan_filter.h"
#include "core/scan_kernel.h"
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

/// The ranking scan at serving scale: 10^5 entities, d = 32 (ROADMAP item
/// 1), reported per entity·dimension. Separate from Fixture so the operator
/// benches keep their small model.
struct ScanFixture {
  static constexpr int64_t kEntities = 100000;
  static constexpr int64_t kDim = 32;

  ScanFixture() {
    halk::core::ModelConfig config;
    config.num_entities = kEntities;
    config.num_relations = 4;
    config.dim = kDim;
    config.hidden = 8;
    config.seed = 5;
    model = std::make_unique<halk::core::HalkModel>(config, nullptr);
    embedding = model->Projection(model->EmbedAnchors({0}), {1});
    arc = halk::core::MakeArcConstants(embedding.a.data(), embedding.b.data(),
                                       kDim, config.rho, config.eta);
    // Four more arcs (distinct anchors and relations) for the multi-arc
    // passes, and the table with and without the filter's codes.
    const halk::core::EmbeddingBatch more =
        model->Projection(model->EmbedAnchors({11, 222, 3333, 44444}),
                          {0, 1, 2, 3});
    for (int64_t r = 0; r < 4; ++r) {
      arcs.push_back(halk::core::MakeArcConstants(
          more.a.data() + r * kDim, more.b.data() + r * kDim, kDim,
          config.rho, config.eta));
    }
    plain = halk::core::EntityTable::RowMajor(model->entity_angles().data(),
                                              kEntities, kDim);
    coded = plain;
    coded.EncodeCodes(0, kEntities);
  }

  std::unique_ptr<halk::core::HalkModel> model;
  halk::core::EmbeddingBatch embedding;
  halk::core::ArcConstants arc;
  std::vector<halk::core::ArcConstants> arcs;
  halk::core::EntityTable plain;
  halk::core::EntityTable coded;
};

ScanFixture& Scan() {
  static ScanFixture* fixture = new ScanFixture();
  return *fixture;
}

/// Seconds per entity·dimension, shown with an SI prefix (2.9n = 2.9 ns).
void SetNsPerEntityDim(benchmark::State& state) {
  state.counters["ns_per_entity_dim"] = benchmark::Counter(
      static_cast<double>(ScanFixture::kEntities * ScanFixture::kDim),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_DistancesToAllEntities(benchmark::State& state) {
  std::vector<float> out;
  for (auto _ : state) {
    Scan().model->DistancesToAll(Scan().embedding, 0, &out);
    benchmark::DoNotOptimize(out.data());
  }
  SetNsPerEntityDim(state);
}

/// One build of the scan kernel over the row-major table (the in-RAM
/// path's per-dimension stack-column copy included), bound = +inf.
void RunScanKernel(benchmark::State& state, halk::core::ScanKernelFn kernel) {
  if (kernel == nullptr) {
    state.SkipWithError("this CPU has no AVX2 build");
    return;
  }
  const float* table = Scan().model->entity_angles().data();
  const int64_t n = ScanFixture::kEntities;
  const int64_t d = ScanFixture::kDim;
  std::vector<float> out(static_cast<size_t>(n));
  float partial[halk::core::kScanLanes];
  for (auto _ : state) {
    for (int64_t e = 0; e < n; e += halk::core::kScanLanes) {
      const halk::core::EntityBlock block{
          table + e * d, std::min(halk::core::kScanLanes, n - e), d, 1};
      kernel(&Scan().arc, 1, block, std::numeric_limits<float>::infinity(),
             partial, out.data() + e);
    }
    benchmark::DoNotOptimize(out.data());
  }
  SetNsPerEntityDim(state);
}

void BM_ScanKernel_portable(benchmark::State& state) {
  RunScanKernel(state, halk::core::PortableScanKernel());
}

void BM_ScanKernel_avx2(benchmark::State& state) {
  RunScanKernel(state, halk::core::Avx2ScanKernel());
}

/// The one-stage bound-aware top-k (k = 10) over the uncoded table, with
/// state.range(0) arcs in one pass: the kernel alone.
void BM_BoundedScan(benchmark::State& state) {
  const std::vector<halk::core::ArcConstants> arcs(
      Scan().arcs.begin(), Scan().arcs.begin() + state.range(0));
  for (auto _ : state) {
    halk::core::TopKAccumulator acc(10);
    Scan().plain.AccumulateTopK(arcs, 0, ScanFixture::kEntities,
                                /*prune=*/true, &acc, nullptr);
    benchmark::DoNotOptimize(acc.Take());
  }
  SetNsPerEntityDim(state);
}

/// The two-stage top-k (k = 10) over the coded table with state.range(0)
/// arcs in one pass (the reported time), split into its layers by a
/// separate, untimed-for-the-report run of stage one:
/// `filter_ns_per_entity_dim` is stage one alone (tables plus filter sums
/// over every entity·dim),
/// `survivor_ns_per_entity_dim` the rest of the pass (seeding, gathering
/// and the kernel) per survivor entity·dim, and `survivor_fraction` the
/// share of entities the filter let through to the kernel.
void BM_FilteredScan(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const std::vector<halk::core::ArcConstants> arcs(
      Scan().arcs.begin(), Scan().arcs.begin() + state.range(0));
  const halk::core::EntityTable& table = Scan().coded;
  const int64_t n = ScanFixture::kEntities;
  const int64_t d = ScanFixture::kDim;
  const halk::core::FilterKernelFn filter = halk::core::FilterKernel();
  std::vector<uint16_t> sums(static_cast<size_t>(n + halk::core::kScanLanes));
  double filter_s = 0.0;
  double total_s = 0.0;
  int64_t survivors = 0;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    halk::core::FilterTables tables;
    halk::core::BuildFilterTables(arcs, &tables);
    for (int64_t c = 0; c * halk::core::kScanLanes < n; ++c) {
      (void)filter(tables.lut.data(), tables.num_arcs, d, table.codes.Block(c),
             sums.data() + c * halk::core::kScanLanes);
    }
    benchmark::DoNotOptimize(sums.data());
    benchmark::ClobberMemory();
    const Clock::time_point t1 = Clock::now();
    halk::core::TopKAccumulator acc(10);
    halk::core::ScanStats stats;
    table.AccumulateTopK(arcs, 0, n, /*prune=*/true, &acc, &stats);
    benchmark::DoNotOptimize(acc.Take());
    const Clock::time_point t2 = Clock::now();
    filter_s += std::chrono::duration<double>(t1 - t0).count();
    total_s += std::chrono::duration<double>(t2 - t1).count();
    state.SetIterationTime(std::chrono::duration<double>(t2 - t1).count());
    survivors += stats.entities_scanned - stats.entities_filtered;
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["filter_ns_per_entity_dim"] =
      filter_s * 1e9 / (iterations * static_cast<double>(n * d));
  state.counters["survivor_ns_per_entity_dim"] =
      survivors == 0 ? 0.0
                     : (total_s - filter_s) * 1e9 /
                           static_cast<double>(survivors * d);
  state.counters["survivor_fraction"] =
      static_cast<double>(survivors) / (iterations * static_cast<double>(n));
}

BENCHMARK(BM_Projection)->Arg(1)->Arg(32)->Arg(128);
BENCHMARK(BM_Intersection)->Arg(1)->Arg(32)->Arg(128);
BENCHMARK(BM_Difference)->Arg(1)->Arg(32)->Arg(128);
BENCHMARK(BM_Negation)->Arg(1)->Arg(32)->Arg(128);
BENCHMARK(BM_DistancesToAllEntities)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanKernel_portable)
    ->Name("BM_ScanKernel/portable")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanKernel_avx2)
    ->Name("BM_ScanKernel/avx2")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BoundedScan)
    ->ArgName("arcs")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FilteredScan)
    ->ArgName("arcs")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

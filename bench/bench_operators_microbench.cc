// Operator-level microbenchmarks (google-benchmark): forward latency of
// each HaLk logical operator and of the distance function, across batch
// sizes — the constant-time operator costs behind the complexity analysis
// of Sec. III-H and the online-time decomposition of Fig. 6c.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/scan_filter.h"
#include "core/scan_kernel.h"
#include "halk/halk.h"
#include "tensor/tape.h"

namespace {

/// A HaLk model with d = `dim` and h = 2·dim: d = 16 is a small model;
/// d = 32, h = 64 is `cold_scan`'s served model (bench_e2e).
struct Fixture {
  explicit Fixture(int64_t dim) : rng(1) {
    config.num_entities = 1000;
    config.num_relations = 20;
    config.dim = dim;
    config.hidden = 2 * dim;
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

Fixture& F(int64_t dim) {
  static Fixture* small = new Fixture(16);
  static Fixture* served = new Fixture(32);
  return dim == 16 ? *small : *served;
}

/// Times `call` (one operator call on a batch of state.range(0) rows of
/// model F(state.range(1))) under the NoGradGuard that PlanExecutor::Run
/// holds, then makes one more call under a TapeAccounting to report
/// `ops_per_call`, the tensor ops one call runs.
template <typename Call>
void RunOperator(benchmark::State& state, Call call) {
  halk::tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(call());
  }
  halk::tensor::TapeAccounting accounting;
  benchmark::DoNotOptimize(call());
  state.counters["ops_per_call"] =
      static_cast<double>(accounting.stats().forward_nodes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Projection(benchmark::State& state) {
  Fixture& f = F(state.range(1));
  const int64_t batch = state.range(0);
  auto in = f.Anchors(batch);
  auto rels = f.Relations(batch);
  RunOperator(state, [&] { return f.model->Projection(in, rels); });
}

void BM_Intersection(benchmark::State& state) {
  Fixture& f = F(state.range(1));
  const int64_t batch = state.range(0);
  auto a = f.model->Projection(f.Anchors(batch), f.Relations(batch));
  auto b = f.model->Projection(f.Anchors(batch), f.Relations(batch));
  auto c = f.model->Projection(f.Anchors(batch), f.Relations(batch));
  RunOperator(state, [&] { return f.model->Intersection({a, b, c}, {}); });
}

void BM_Difference(benchmark::State& state) {
  Fixture& f = F(state.range(1));
  const int64_t batch = state.range(0);
  auto a = f.model->Projection(f.Anchors(batch), f.Relations(batch));
  auto b = f.model->Projection(f.Anchors(batch), f.Relations(batch));
  RunOperator(state, [&] { return f.model->Difference({a, b}); });
}

void BM_Negation(benchmark::State& state) {
  Fixture& f = F(state.range(1));
  const int64_t batch = state.range(0);
  auto a = f.model->Projection(f.Anchors(batch), f.Relations(batch));
  RunOperator(state, [&] { return f.model->Negation(a); });
}

/// Batch sizes 1, 32 and 128 at d = 16 and at the served d = 32.
void OperatorArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"B", "d"});
  for (int64_t dim : {16, 32}) {
    for (int64_t batch : {1, 32, 128}) b->Args({batch, dim});
  }
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
    // The model's own table gets codes too, as a QueryServer prepares it,
    // so its sharded scans are two-stage.
    model->PrepareForServing();
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
          table + e * d, std::min(halk::core::kScanLanes, n - e)};
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

/// A second coded table of the scan's shape whose entities sit in 32
/// Gaussian clusters (σ = 0.1 rad per dimension, centers uniform on the
/// circle), seeded and generated in-process, with four queries like a
/// trained model's: one arc of half-width 0.1 rad (ρ = 1, η = 0.9) centered
/// on a random entity's point each. A query's nearest entities then share
/// its cluster, so about one cluster's worth survives the filter instead of
/// the model table's fraction of a percent, and the gather dominates stage
/// two (ROADMAP item 4).
struct ClusteredTable {
  static constexpr int64_t kClusters = 32;
  static constexpr double kSigma = 0.1;

  ClusteredTable() {
    const int64_t n = ScanFixture::kEntities;
    const int64_t d = ScanFixture::kDim;
    halk::Rng rng(29);
    std::vector<double> centers(static_cast<size_t>(kClusters * d));
    for (double& c : centers) c = rng.Uniform(0.0, 2.0 * 3.14159265358979);
    angles.resize(static_cast<size_t>(n * d));
    for (int64_t e = 0; e < n; ++e) {
      const int64_t c = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(kClusters)));
      for (int64_t j = 0; j < d; ++j) {
        angles[static_cast<size_t>(e * d + j)] = static_cast<float>(
            centers[static_cast<size_t>(c * d + j)] + kSigma * rng.Normal());
      }
    }
    table = halk::core::EntityTable::RowMajor(angles.data(), n, d);
    table.EncodeCodes(0, n);
    // Arc length A_l spans A_l / ρ radians: 0.2 for half-width 0.1 at ρ = 1.
    const std::vector<float> length(static_cast<size_t>(d), 0.2f);
    for (int q = 0; q < 4; ++q) {
      const int64_t e = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(n)));
      arcs.push_back(halk::core::MakeArcConstants(
          angles.data() + e * d, length.data(), d, 1.0f, 0.9f));
    }
  }

  std::vector<float> angles;
  halk::core::EntityTable table;
  std::vector<halk::core::ArcConstants> arcs;
};

const ClusteredTable& Clustered() {
  static ClusteredTable* clustered = new ClusteredTable();
  return *clustered;
}

/// The two-stage top-k (k = 10) over coded `table` with the first
/// state.range(0) of `queries` in one pass (the reported time), split into its layers by a
/// separate, untimed-for-the-report run of stage one:
/// `filter_ns_per_entity_dim` is stage one alone (tables plus filter sums
/// over every entity·dim),
/// `survivor_ns_per_entity_dim` the rest of the pass (seeding, gathering
/// and the kernel) per survivor entity·dim, and `survivor_fraction` the
/// share of entities the filter let through to the kernel.
void RunFilteredScan(benchmark::State& state,
                     const halk::core::EntityTable& table,
                     const std::vector<halk::core::ArcConstants>& queries) {
  using Clock = std::chrono::steady_clock;
  const std::vector<halk::core::ArcConstants> arcs(
      queries.begin(), queries.begin() + state.range(0));
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

/// The model's own table (angles spread evenly over the circle) and arcs.
void BM_FilteredScan(benchmark::State& state) {
  RunFilteredScan(state, Scan().coded, Scan().arcs);
}

void BM_FilteredScanClustered(benchmark::State& state) {
  RunFilteredScan(state, Clustered().table, Clustered().arcs);
}

/// One top-k request (k = 10, one arc) through a ShardCoordinator with
/// state.range(0) shards over the coded table, as a QueryServer serves it:
/// µs per request, and `survivors_per_request`, the entities that reached
/// the kernel summed over the shards (`shard.entities_scored`). The shards
/// share one top-k bound, so survivors stay near one shard's however the
/// table is cut.
void BM_ShardedTopK(benchmark::State& state) {
  halk::serving::MetricsRegistry metrics;
  halk::shard::ShardOptions options;
  options.num_shards = static_cast<int>(state.range(0));
  halk::shard::ShardCoordinator coordinator(Scan().model.get(), options,
                                            &metrics);
  halk::shard::BranchSet branches;
  branches.embeddings.push_back(Scan().embedding);
  branches.rows.emplace_back(0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coordinator.TopKEmbedded(branches, 10));
  }
  int64_t survivors = 0;
  for (int s = 0; s < options.num_shards; ++s) {
    survivors += metrics.CounterValue("shard.entities_scored",
                                      {{"shard", std::to_string(s)}});
  }
  state.counters["survivors_per_request"] =
      static_cast<double>(survivors) / static_cast<double>(state.iterations());
}

BENCHMARK(BM_Projection)->Apply(OperatorArgs);
BENCHMARK(BM_Intersection)->Apply(OperatorArgs);
BENCHMARK(BM_Difference)->Apply(OperatorArgs);
BENCHMARK(BM_Negation)->Apply(OperatorArgs);
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
BENCHMARK(BM_FilteredScanClustered)
    ->Name("BM_FilteredScan/clustered")
    ->ArgName("arcs")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShardedTopK)
    ->ArgName("S")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

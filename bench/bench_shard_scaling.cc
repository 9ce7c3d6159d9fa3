// Sharded top-k scaling study: per-query latency (p50/p99) and throughput
// of the scatter-gather ShardCoordinator at 1/2/4/8 shards, on a KG large
// enough that entity scoring — the part sharding parallelizes — dominates
// query embedding. Healthy-path answers are bit-identical at every shard
// count (asserted per query), so this measures pure speedup, not
// approximation.
//
// Two regimes, selected by HALK_BENCH_ENTITIES:
//
//  * In-RAM (default 20000 entities, HALK_BENCH_FAST=1 drops to 4000):
//    the original study against the single-thread brute-force
//    Evaluator::TopK baseline, plus a store-backed exactness check — the
//    same model snapshotted to an mmap-backed store must rank
//    bit-identically through the sharded path.
//
//  * Out-of-core (HALK_BENCH_ENTITIES above 100000, e.g. 1000000): the
//    entity table is streamed straight from the synthetic-KG stream into a
//    store snapshot without ever materializing in RAM, served through a
//    store-backed model, and queried with queries sampled from a
//    materialized *slice* of the same world (the stream's slice property
//    makes them valid against the full table).
//    The baseline is the 1-shard configuration; `peak_rss_mib` staying
//    well below `table_mib` is the out-of-core acceptance claim.
//
//   $ ./bench/bench_shard_scaling                         # in-RAM scale
//   $ HALK_BENCH_ENTITIES=1000000 ./bench/bench_shard_scaling
//
// Evaluator::TopK ranks through the same bound-aware scan kernel as the
// shard workers (AccumulateTopKRange over the whole table), so the speedup
// over it comes from thread parallelism across shards alone. On a
// single-core machine — see the "cores" key in the JSON — per-shard
// bookkeeping makes higher shard counts slightly slower, not faster.
//
// The model is untrained: ranking cost depends on entity count and
// dimension, not on the learned weights.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "halk/halk.h"
#include "kg/synthetic_stream.h"
#include "obs/process_metrics.h"
#include "store/convert.h"
#include "store/store.h"
#include "store/writer.h"

namespace {

using Clock = std::chrono::steady_clock;
using halk::query::StructureId;

struct LatencyStats {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
};

LatencyStats Summarize(std::vector<double> latencies_ms, double seconds) {
  LatencyStats out;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  out.p50_ms = latencies_ms[latencies_ms.size() / 2];
  out.p99_ms = latencies_ms[latencies_ms.size() * 99 / 100];
  out.qps = static_cast<double>(latencies_ms.size()) / seconds;
  return out;
}

double PeakRssMib() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Current VmRSS via the shared process self-metrics reader, in MiB.
/// Unlike ru_maxrss this is not a high-water mark, so it shows the steady
/// working set after DropResidency unmaps cold store pages.
double CurrentRssMib() {
  return static_cast<double>(halk::obs::ReadProcessSelfStats().rss_bytes) /
         (1024.0 * 1024.0);
}

double Mib(size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::string SnapshotDir() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") +
         "/halk_bench_shard_scaling_snapshot";
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Expands a streamed entity's low-dimensional latent into a `dim`-wide
/// angle row: the latent repeats across dimensions with deterministic
/// per-(entity, dim) jitter, so the table keeps the type-cluster structure
/// (which the bound-aware scan prunes against) at full model width without
/// ever existing in RAM.
void LatentToAngles(const std::vector<double>& latent, int64_t entity,
                    int64_t dim, float* out) {
  const double two_pi = 2.0 * M_PI;
  for (int64_t j = 0; j < dim; ++j) {
    const double base = latent[static_cast<size_t>(j) % latent.size()];
    const double jitter =
        (static_cast<double>(Mix(static_cast<uint64_t>(entity) * 131 +
                                 static_cast<uint64_t>(j))) /
             18446744073709551616.0 -
         0.5) *
        0.2;
    double angle = std::fmod(base + jitter, two_pi);
    if (angle < 0.0) angle += two_pi;
    out[j] = static_cast<float>(angle);
  }
}

std::vector<halk::query::GroundedQuery> SampleWorkload(
    const halk::kg::Dataset& dataset, int num_queries, uint64_t seed) {
  halk::query::QuerySampler sampler(&dataset.train, seed);
  const std::vector<StructureId> structures = {
      StructureId::k1p, StructureId::k2p, StructureId::k2i, StructureId::kIp};
  std::vector<halk::query::GroundedQuery> queries;
  for (int i = 0; i < num_queries; ++i) {
    queries.push_back(
        sampler.Sample(structures[static_cast<size_t>(i) % structures.size()])
            .ValueOrDie());
  }
  return queries;
}

/// Runs the {1, 2, 4, 8}-shard sweep over `model`, checking every answer
/// against `expected` and recording per-count stats into `json`. Returns
/// the 1-shard qps (the out-of-core mode's baseline).
double RunShardSweep(halk::core::QueryModel* model,
                     const std::vector<halk::query::GroundedQuery>& queries,
                     const std::vector<std::vector<int64_t>>& expected,
                     int64_t k, double baseline_qps,
                     halk::bench::BenchJson* json,
                     const halk::store::EmbeddingStore* drop_store = nullptr) {
  using namespace halk;
  double one_shard_qps = 0.0;
  for (int shards : {1, 2, 4, 8}) {
    // Out-of-core mode: start each configuration against a cold mapping so
    // the RSS high-water tracks one configuration's touched pages, never
    // the cumulative union across the sweep.
    if (drop_store != nullptr) drop_store->DropResidency();
    shard::ShardOptions options;
    options.num_shards = shards;
    // Fresh registry per shard count so the instrumented gather histogram
    // covers exactly this configuration's queries.
    serving::MetricsRegistry metrics;
    shard::ShardCoordinator coordinator(model, options, &metrics);
    std::vector<double> lat_ms;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < queries.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      shard::ShardedTopK top = coordinator.TopK(queries[i].graph, k);
      lat_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
      HALK_CHECK(top.ok()) << top.status.ToString();
      std::vector<int64_t> got;
      for (const core::ScoredEntity& s : top.entries) got.push_back(s.entity);
      HALK_CHECK(got == expected[i]) << "sharded ranking diverged at query "
                                     << i << " with " << shards << " shards";
    }
    const LatencyStats stats = Summarize(
        std::move(lat_ms),
        std::chrono::duration<double>(Clock::now() - start).count());
    if (shards == 1) one_shard_qps = stats.qps;
    const double reference = baseline_qps > 0.0 ? baseline_qps : one_shard_qps;
    std::printf("%-22s p50 %7.3f ms   p99 %7.3f ms   %8.1f qps (%.2fx)\n",
                (std::to_string(shards) + " shard(s)").c_str(), stats.p50_ms,
                stats.p99_ms, stats.qps, stats.qps / reference);
    const std::string prefix = "shards_" + std::to_string(shards);
    json->Set(prefix + "_qps", stats.qps, 1)
        .Set(prefix + "_p50_ms", stats.p50_ms)
        .Set(prefix + "_p99_ms", stats.p99_ms)
        .Set(prefix + "_speedup", stats.qps / reference);
    // Gather quantiles from the coordinator's own shard.gather_us histogram
    // — the instrumented view a dashboard reads, alongside the wall-clock
    // per-query numbers above (which additionally include embedding).
    bench::SetLatencyQuantiles(
        json,
        *metrics.GetHistogram("shard.gather_us",
                              serving::Histogram::ExponentialBounds(1.0, 2.0,
                                                                    26)),
        prefix + "_gather_");
  }
  return one_shard_qps;
}

/// Original in-RAM study + store-backed exactness check.
int RunInRam(int64_t num_entities, bool fast) {
  using namespace halk;
  const int num_queries = fast ? 40 : 200;
  const int64_t k = 10;

  kg::SyntheticKgOptions opt;
  opt.num_entities = num_entities;
  opt.num_relations = 12;
  opt.num_triples = num_entities * 5;
  opt.seed = 9;
  kg::Dataset dataset = kg::GenerateSyntheticKg(opt);

  core::ModelConfig config;
  config.num_entities = dataset.train.num_entities();
  config.num_relations = dataset.train.num_relations();
  config.dim = 16;
  config.hidden = 32;
  config.seed = 3;
  core::HalkModel model(config, nullptr);

  const std::vector<query::GroundedQuery> queries =
      SampleWorkload(dataset, num_queries, 77);
  std::printf("shard scaling: %d queries, %lld entities, k=%lld (in-RAM)\n",
              num_queries, static_cast<long long>(num_entities),
              static_cast<long long>(k));

  // Brute-force baseline and the reference answers for exactness checks.
  core::Evaluator evaluator(&model);
  std::vector<std::vector<int64_t>> expected;
  LatencyStats baseline;
  {
    std::vector<double> lat_ms;
    const Clock::time_point start = Clock::now();
    for (const query::GroundedQuery& q : queries) {
      const Clock::time_point t0 = Clock::now();
      expected.push_back(evaluator.TopK(q.graph, k));
      lat_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
    }
    baseline = Summarize(
        std::move(lat_ms),
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  std::printf("%-22s p50 %7.3f ms   p99 %7.3f ms   %8.1f qps\n",
              "evaluator (1 thread)", baseline.p50_ms, baseline.p99_ms,
              baseline.qps);

  bench::BenchJson json("shard_scaling");
  json.Set("mode", "in_ram")
      .Set("queries", num_queries)
      .Set("entities", num_entities)
      .Set("k", static_cast<int64_t>(k))
      .Set("cores", static_cast<int>(std::thread::hardware_concurrency()))
      .Set("qps_baseline", baseline.qps, 1)
      .Set("p50_baseline_ms", baseline.p50_ms)
      .Set("p99_baseline_ms", baseline.p99_ms);

  RunShardSweep(&model, queries, expected, k, baseline.qps, &json);

  // Store-backed exactness: snapshot the same model into the mmap-backed
  // store and re-rank every query through 4 shards; answers must be
  // bit-identical to the in-RAM evaluator's.
  const std::string dir = SnapshotDir();
  std::filesystem::remove_all(dir);
  HALK_CHECK(store::WriteModelSnapshot(model, dir, /*num_shards=*/3).ok());
  {
    auto opened = store::EmbeddingStore::Open(dir, {});
    HALK_CHECK(opened.ok()) << opened.status().ToString();
    auto served = store::OpenServingModel(**opened, nullptr);
    HALK_CHECK(served.ok()) << served.status().ToString();
    shard::ShardOptions options;
    options.num_shards = 4;
    shard::ShardCoordinator coordinator(served->get(), options);
    for (size_t i = 0; i < queries.size(); ++i) {
      shard::ShardedTopK top = coordinator.TopK(queries[i].graph, k);
      HALK_CHECK(top.ok()) << top.status.ToString();
      std::vector<int64_t> got;
      for (const core::ScoredEntity& s : top.entries) got.push_back(s.entity);
      HALK_CHECK(got == expected[i])
          << "store-backed ranking diverged at query " << i;
    }
    std::printf("store-backed 4-shard ranking: bit-identical\n");
    json.Set("table_mib", Mib((*opened)->MappedBytes()))
        .Set("store_resident_mib", Mib((*opened)->ResidentBytes()))
        .Set("peak_rss_mib", PeakRssMib(), 1);
  }
  std::filesystem::remove_all(dir);
  json.Emit();
  return 0;
}

/// Out-of-core study: streamed table, store-backed model.
int RunOutOfCore(int64_t num_entities, bool fast) {
  using namespace halk;
  const int num_queries = fast ? 24 : 60;
  const int64_t k = 10;
  const int64_t dim = 16;

  kg::StreamKgOptions world;
  world.num_entities = num_entities;
  world.num_relations = 12;
  world.seed = 9;
  std::printf(
      "shard scaling: %d queries, %lld entities, k=%lld (out-of-core)\n",
      num_queries, static_cast<long long>(num_entities),
      static_cast<long long>(k));

  // Donor model at slice scale: its operator parameters (everything except
  // the entity table, which is entity-count independent) become the
  // snapshot's params blob, so the full-scale model never exists in RAM.
  // The slice also bounds the query-workload dataset's heap footprint: it
  // is most of the process's fixed overhead, which must stay small for the
  // peak-RSS-vs-table comparison to be meaningful at the 10^6 scale.
  const int64_t slice_entities = std::min<int64_t>(num_entities, 10000);
  core::ModelConfig donor_config;
  donor_config.num_entities = slice_entities;
  donor_config.num_relations = world.num_relations;
  donor_config.dim = dim;
  donor_config.hidden = 32;
  donor_config.seed = 3;

  const std::string dir = SnapshotDir();
  std::filesystem::remove_all(dir);
  const Clock::time_point write_start = Clock::now();
  {
    kg::SyntheticKgStream stream(world);
    core::HalkModel donor(donor_config, nullptr);
    store::SnapshotWriterOptions options;
    options.dir = dir;
    options.config = donor_config;
    options.config.num_entities = num_entities;
    // Aim for ~4 MiB shard files: small files keep the in-flight residency
    // of a concurrent sweep (one file per worker at a time, dropped as the
    // scan leaves it) a small fraction of the table, even on kernels that
    // account mapped-file residency at whole-file granularity. The serving
    // shard count is independent — ranges may straddle files.
    const uint64_t table_bytes =
        static_cast<uint64_t>(num_entities) * dim * sizeof(float);
    options.num_shards = static_cast<int64_t>(
        std::clamp<uint64_t>((table_bytes + (4u << 20) - 1) / (4u << 20), 8,
                             256));
    auto writer = store::SnapshotWriter::Create(options);
    HALK_CHECK(writer.ok()) << writer.status().ToString();
    std::vector<std::vector<float>> params;
    {
      const std::vector<tensor::Tensor> tensors = donor.Parameters();
      for (size_t i = 1; i < tensors.size(); ++i) {
        params.emplace_back(tensors[i].data(),
                            tensors[i].data() + tensors[i].numel());
      }
    }
    HALK_CHECK((*writer)->SetParams(std::move(params)).ok());
    // Stream the table in: one buffered batch of rows at a time, each row
    // expanded from the entity's hash-derived latent.
    const int64_t batch = 8192;
    std::vector<float> rows(static_cast<size_t>(batch * dim));
    std::vector<double> latent;
    for (int64_t e = 0; e < num_entities;) {
      const int64_t n = std::min(batch, num_entities - e);
      for (int64_t i = 0; i < n; ++i) {
        stream.EntityLatent(e + i, &latent);
        LatentToAngles(latent, e + i, dim, rows.data() + i * dim);
      }
      HALK_CHECK((*writer)->AppendEntityRows(rows.data(), n).ok());
      e += n;
    }
    HALK_CHECK((*writer)->Finish().ok());
  }
  const double write_seconds =
      std::chrono::duration<double>(Clock::now() - write_start).count();

  // Serve out of the mappings: checksum verification would fault in the
  // whole table (that is `halk_store verify`'s offline job). The bounded
  // residency window is what makes this run out-of-core in the literal
  // sense — each scan drops its processed row groups once they exceed the
  // window, so the process footprint is heap plus a few windows, not the
  // table (docs/storage.md, memory-ceiling methodology).
  store::EmbeddingStore::OpenOptions open_options;
  open_options.verify_checksums = false;
  open_options.residency_window_bytes = 4u << 20;
  auto opened = store::EmbeddingStore::Open(dir, open_options);
  HALK_CHECK(opened.ok()) << opened.status().ToString();
  auto served = store::OpenServingModel(**opened, nullptr);
  HALK_CHECK(served.ok()) << served.status().ToString();

  // Queries come from a materialized slice of the same streamed world: the
  // stream's slice property keeps entity ids, types, and latents identical
  // over the shared prefix, so slice-sampled queries are valid against the
  // full table.
  kg::StreamKgOptions slice = world;
  slice.num_entities = slice_entities;
  kg::Dataset dataset = kg::MaterializeStreamDataset(slice, 0.05, 0.05);
  const std::vector<query::GroundedQuery> queries =
      SampleWorkload(dataset, num_queries, 77);

  // Reference answers once through a 1-shard coordinator over the same
  // bounded store scan; every sweep configuration must reproduce them
  // bit-identically. The brute-force ScoreAllEntities is deliberately not
  // used here: DistancesToAll reads every entity row with no residency window,
  // which alone would push the RSS high-water to full table size — its
  // bit-identity against the store scan is pinned at in-RAM scale (RunInRam
  // and tests/store/) where the whole table is cheap to touch.
  std::vector<std::vector<int64_t>> expected;
  {
    shard::ShardOptions ref_options;
    ref_options.num_shards = 1;
    serving::MetricsRegistry ref_metrics;
    shard::ShardCoordinator reference(served->get(), ref_options,
                                      &ref_metrics);
    for (const query::GroundedQuery& q : queries) {
      shard::ShardedTopK top = reference.TopK(q.graph, k);
      HALK_CHECK(top.ok()) << top.status.ToString();
      std::vector<int64_t> ids;
      for (const core::ScoredEntity& s : top.entries) ids.push_back(s.entity);
      expected.push_back(std::move(ids));
    }
  }

  bench::BenchJson json("shard_scaling");
  json.Set("mode", "out_of_core")
      .Set("queries", num_queries)
      .Set("entities", num_entities)
      .Set("k", static_cast<int64_t>(k))
      .Set("cores", static_cast<int>(std::thread::hardware_concurrency()))
      .Set("snapshot_write_s", write_seconds)
      .Set("table_mib", Mib((*opened)->MappedBytes()));

  // Each shard count in the sweep starts against a cold mapping (the
  // drop_store hook inside RunShardSweep), so peak RSS is bounded by heap
  // plus the pages one configuration's 24 bound-aware scans touch — not by
  // the table.
  const double one_shard_qps =
      RunShardSweep(served->get(), queries, expected, k,
                    /*baseline_qps=*/0.0, &json, opened->get());
  json.Set("qps_baseline", one_shard_qps, 1)
      .Set("store_resident_mib", Mib((*opened)->ResidentBytes()))
      .Set("rss_after_sweep_mib", CurrentRssMib(), 1)
      .Set("peak_rss_mib", PeakRssMib(), 1);
  std::printf("table %.1f MiB, peak RSS %.1f MiB, RSS after sweep %.1f MiB\n",
              Mib((*opened)->MappedBytes()), PeakRssMib(), CurrentRssMib());
  json.Emit();
  std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace

int main() {
  const bool fast = std::getenv("HALK_BENCH_FAST") != nullptr;
  // HALK_BENCH_PROFILE=1 reports where ranking time went (the `profile`
  // field of the JSON line) — never compare a profiled run's qps against
  // an unprofiled one.
  halk::bench::EnableProfilerFromEnv();
  int64_t num_entities = fast ? 4000 : 20000;
  if (const char* env = std::getenv("HALK_BENCH_ENTITIES")) {
    num_entities = std::atoll(env);
    if (num_entities <= 0) {
      std::fprintf(stderr, "bad HALK_BENCH_ENTITIES: %s\n", env);
      return 2;
    }
  }
  // Above the in-RAM comfort zone the table streams through the store.
  if (num_entities > 100000) return RunOutOfCore(num_entities, fast);
  return RunInRam(num_entities, fast);
}

// Serving-engine throughput study: single-threaded unbatched evaluation
// (today's Evaluator loop, as every example drives it) vs. the QueryServer
// with planned request chunks, and with the canonical-fingerprint answer
// cache on top. The workload is a skewed stream over a pool of distinct
// queries — the traffic shape a production endpoint sees, where popular
// queries repeat. Prints a human-readable table, the server's metrics dump, and a
// final machine-readable JSON line for longitudinal perf tracking.
//
//   $ ./bench/bench_serving_throughput            # full scale
//   $ HALK_BENCH_FAST=1 ./bench/bench_serving_throughput
//
// The model is left untrained: serving throughput depends on the embedding
// and scoring computation, not on the learned weights.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "halk/halk.h"
#include "net/http_server.h"
#include "net/telemetry.h"

namespace {

using Clock = std::chrono::steady_clock;
using halk::query::StructureId;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  // Distinct grounded queries and the (skewed) request sequence over them.
  std::vector<halk::query::GroundedQuery> pool;
  std::vector<size_t> sequence;
};

Workload MakeWorkload(const halk::kg::KnowledgeGraph& kg, int pool_size,
                      int num_requests, uint64_t seed) {
  Workload w;
  halk::query::QuerySampler sampler(&kg, seed);
  const std::vector<StructureId> structures = {
      StructureId::k2p, StructureId::k3p, StructureId::k2i,
      StructureId::kIp, StructureId::kPip};
  for (int i = 0; i < pool_size; ++i) {
    w.pool.push_back(
        sampler.Sample(structures[static_cast<size_t>(i) % structures.size()])
            .ValueOrDie());
  }
  // Quadratically skewed popularity: low indices repeat often, the tail is
  // cold — a crude stand-in for Zipf request traffic.
  halk::Rng rng(seed + 1);
  for (int i = 0; i < num_requests; ++i) {
    const double u = rng.Uniform();
    w.sequence.push_back(static_cast<size_t>(
        static_cast<double>(pool_size) * u * u * 0.999));
  }
  return w;
}

double RunBaseline(halk::core::QueryModel* model, const Workload& w,
                   int64_t k) {
  halk::core::Evaluator evaluator(model);
  const Clock::time_point start = Clock::now();
  for (size_t idx : w.sequence) {
    std::vector<int64_t> top = evaluator.TopK(w.pool[idx].graph, k);
    if (top.empty()) std::abort();
  }
  return static_cast<double>(w.sequence.size()) / SecondsSince(start);
}

double RunServed(halk::serving::QueryServer* server, const Workload& w,
                 int64_t k) {
  const Clock::time_point start = Clock::now();
  std::vector<std::future<halk::Result<halk::serving::TopKAnswer>>> futures;
  futures.reserve(w.sequence.size());
  for (size_t idx : w.sequence) {
    auto r = server->Submit(w.pool[idx].graph, k);
    HALK_CHECK(r.ok()) << r.status().ToString();
    futures.push_back(std::move(*r));
  }
  for (auto& f : futures) {
    auto answer = f.get();
    HALK_CHECK(answer.ok()) << answer.status().ToString();
  }
  return static_cast<double>(w.sequence.size()) / SecondsSince(start);
}

/// Blocking loopback HTTP GET (what a Prometheus scraper does to the
/// embedded telemetry server); "" on any socket error.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// Appends shared 3p chain `i` of the library to `g` and returns its node:
// the same (anchor, r1, r2, r3) tuple recurs across every query that picks
// chain `i`, which is exactly what the planner's cross-request dedup and
// the subtree cache exploit.
int AddLibraryChain(halk::query::QueryGraph* g, int i, int64_t num_entities,
                    int64_t num_relations) {
  const int64_t anchor = (3 + 7 * static_cast<int64_t>(i)) % num_entities;
  const int64_t r1 = static_cast<int64_t>(i) % num_relations;
  const int64_t r2 = static_cast<int64_t>(2 * i + 1) % num_relations;
  const int64_t r3 = static_cast<int64_t>(3 * i + 2) % num_relations;
  return g->AddProjection(
      g->AddProjection(g->AddProjection(g->AddAnchor(anchor), r1), r2), r3);
}

// Diverse workload: every request is a *distinct* ipp-over-3p-chains query
// p(i(chain_i, chain_j, chain_k), tail) — the answer cache never hits —
// but the chains come from a small shared library, so subtrees recur
// heavily across requests. This is the traffic shape the planner's
// cross-request dedup and subtree cache are built for.
std::vector<halk::query::QueryGraph> MakeDiverseWorkload(
    int64_t num_entities, int64_t num_relations, int num_requests) {
  std::vector<halk::query::QueryGraph> queries;
  const int library_size = 16;
  for (int i = 0; i < library_size; ++i) {
    for (int j = i + 1; j < library_size; ++j) {
      for (int m = j + 1; m < library_size; ++m) {
        for (int64_t tail = 0; tail < num_relations; ++tail) {
          if (static_cast<int>(queries.size()) >= num_requests) {
            return queries;
          }
          halk::query::QueryGraph g;
          const int a = AddLibraryChain(&g, i, num_entities, num_relations);
          const int b = AddLibraryChain(&g, j, num_entities, num_relations);
          const int c = AddLibraryChain(&g, m, num_entities, num_relations);
          g.SetTarget(g.AddProjection(g.AddIntersection({a, b, c}), tail));
          queries.push_back(std::move(g));
        }
      }
    }
  }
  return queries;
}

double RunDiverse(halk::serving::QueryServer* server,
                  const std::vector<halk::query::QueryGraph>& queries,
                  int64_t k) {
  const Clock::time_point start = Clock::now();
  std::vector<std::future<halk::Result<halk::serving::TopKAnswer>>> futures;
  futures.reserve(queries.size());
  for (const halk::query::QueryGraph& g : queries) {
    auto r = server->Submit(g, k);
    HALK_CHECK(r.ok()) << r.status().ToString();
    futures.push_back(std::move(*r));
  }
  for (auto& f : futures) {
    auto answer = f.get();
    HALK_CHECK(answer.ok()) << answer.status().ToString();
  }
  return static_cast<double>(queries.size()) / SecondsSince(start);
}

}  // namespace

int main() {
  using namespace halk;
  const bool fast = std::getenv("HALK_BENCH_FAST") != nullptr;
  // HALK_BENCH_PROFILE=1 reports where serving time went (the `profile`
  // field of the JSON line) — a profiled run is a different workload, so
  // never compare its qps against an unprofiled one.
  bench::EnableProfilerFromEnv();
  const int num_requests = fast ? 300 : 2000;
  const int pool_size = fast ? 32 : 96;
  const int64_t k = 10;

  kg::SyntheticKgOptions opt;
  opt.num_entities = 400;
  opt.num_relations = 10;
  opt.num_triples = 2400;
  opt.seed = 7;
  kg::Dataset dataset = kg::GenerateSyntheticKg(opt);

  core::ModelConfig config;
  config.num_entities = dataset.train.num_entities();
  config.num_relations = dataset.train.num_relations();
  config.dim = 16;
  config.hidden = 32;
  config.seed = 3;
  core::HalkModel model(config, nullptr);

  Workload workload =
      MakeWorkload(dataset.train, pool_size, num_requests, 101);
  std::printf(
      "serving throughput: %d requests over %d distinct queries, k=%lld\n",
      num_requests, pool_size, static_cast<long long>(k));

  const double qps_baseline = RunBaseline(&model, workload, k);
  std::printf("baseline  (1 thread, unbatched, uncached): %8.1f qps\n",
              qps_baseline);

  serving::ServerOptions batch_only;
  batch_only.num_workers = 4;
  batch_only.max_batch_size = 16;
  batch_only.queue_capacity = static_cast<size_t>(num_requests);
  batch_only.cache_capacity = 0;
  double qps_batched = 0.0;
  {
    serving::QueryServer server(&model, &dataset.train, batch_only);
    qps_batched = RunServed(&server, workload, k);
  }
  std::printf("served    (4 workers, batch 16, no cache): %8.1f qps (%.2fx)\n",
              qps_batched, qps_batched / qps_baseline);

  // The tracing-disabled contract (one relaxed atomic load per request):
  // attaching a disabled tracer must not move throughput measurably.
  obs::Tracer tracer;  // never enabled
  serving::ServerOptions traced_off = batch_only;
  traced_off.tracer = &tracer;
  double qps_tracer_off = 0.0;
  {
    serving::QueryServer server(&model, &dataset.train, traced_off);
    qps_tracer_off = RunServed(&server, workload, k);
  }
  std::printf("served    (ditto, tracer attached, off)  : %8.1f qps (%.4fx "
              "of no-tracer)\n",
              qps_tracer_off, qps_tracer_off / qps_batched);

  // Telemetry-plane overhead A/B, identical server config on both sides:
  // the same open-loop request stream runs once with the embedded HTTP
  // server bound but idle, and once while a scraper loops GET /metrics
  // against it — the gap is the cost of concurrent DumpPrometheus scrapes.
  double qps_scrape_off = 0.0;
  double qps_scrape_on = 0.0;
  int64_t scrapes = 0;
  {
    serving::QueryServer server(&model, &dataset.train, batch_only);
    net::HttpServer http;  // loopback, ephemeral port
    net::TelemetrySources sources;
    sources.metrics = server.metrics();
    net::RegisterTelemetryEndpoints(&http, sources);
    const Status started = http.Start();
    HALK_CHECK(started.ok()) << started.ToString();
    qps_scrape_off = RunServed(&server, workload, k);
    std::atomic<bool> stop_scraping{false};
    std::thread scraper([&] {
      // order: plain stop flag; the scraper only needs to notice eventually.
      while (!stop_scraping.load(std::memory_order_relaxed)) {
        if (!HttpGet(http.port(), "/metrics").empty()) ++scrapes;
      }
    });
    qps_scrape_on = RunServed(&server, workload, k);
    // order: release pairs with the scraper's relaxed poll loop exit.
    stop_scraping.store(true, std::memory_order_release);
    scraper.join();
  }
  std::printf("served    (ditto, scrape endpoint idle)  : %8.1f qps\n",
              qps_scrape_off);
  std::printf("served    (ditto, /metrics scraped, %4lld): %8.1f qps (%.4fx "
              "of idle)\n",
              static_cast<long long>(scrapes), qps_scrape_on,
              qps_scrape_on / qps_scrape_off);

  serving::ServerOptions full = batch_only;
  full.cache_capacity = 4096;
  serving::QueryServer server(&model, &dataset.train, full);
  const double qps_served = RunServed(&server, workload, k);
  std::printf("served    (4 workers, batch 16, cache on): %8.1f qps (%.2fx)\n",
              qps_served, qps_served / qps_baseline);

  // Diverse low-cache-hit stream: distinct large queries built from a
  // shared subtree library, served once each. The answer cache is useless
  // here; what carries the work is the planner (cross-request dedup + warm
  // subtree cache).
  const std::vector<query::QueryGraph> diverse = MakeDiverseWorkload(
      config.num_entities, config.num_relations, num_requests);
  // A production-sized operator stack: with dim 16 the per-entity scoring
  // pass swamps the embedding work the planner saves, so the diverse runs
  // use their own wider model.
  core::ModelConfig diverse_config = config;
  diverse_config.dim = 64;
  diverse_config.hidden = 128;
  diverse_config.seed = 11;
  core::HalkModel diverse_model(diverse_config, nullptr);
  serving::ServerOptions diverse_opt = full;
  serving::QueryServer planner_server(&diverse_model, &dataset.train,
                                      diverse_opt);
  const double qps_diverse_planner = RunDiverse(&planner_server, diverse, k);
  serving::MetricsRegistry* plan_metrics = planner_server.metrics();
  const int64_t plan_total = plan_metrics->CounterValue("plan.nodes");
  const int64_t plan_unique = plan_metrics->CounterValue("plan.unique_nodes");
  const double dedup_ratio =
      plan_total == 0 ? 0.0
                      : 1.0 - static_cast<double>(plan_unique) /
                                  static_cast<double>(plan_total);
  const int64_t sub_hits =
      plan_metrics->CounterValue("plan.subtree_cache_hits");
  const int64_t sub_misses =
      plan_metrics->CounterValue("plan.subtree_cache_misses");
  const double subtree_hit_rate =
      sub_hits + sub_misses == 0
          ? 0.0
          : static_cast<double>(sub_hits) /
                static_cast<double>(sub_hits + sub_misses);
  std::printf(
      "\ndiverse   (%zu distinct 3ipp queries, shared subtree library)\n"
      "  planner (dedup %.2f, subtree hits %.2f) : %8.1f qps\n",
      diverse.size(), dedup_ratio, subtree_hit_rate, qps_diverse_planner);

  // Analytics-plane overhead A/B, identical config on both sides: the
  // diverse stream once with the query-stats plane off, once with it on
  // (per-node sampled actuals, q-error observation, fingerprint-keyed
  // aggregation). The ratio is the cost of EXPLAIN ANALYZE-grade actuals
  // on every planned chunk; the serving gate keeps it >= 0.95.
  serving::ServerOptions analytics_off_opt = diverse_opt;
  analytics_off_opt.analytics = false;
  analytics_off_opt.query_stats_capacity = 0;
  double qps_analytics_off = 0.0;
  {
    serving::QueryServer off(&diverse_model, &dataset.train,
                             analytics_off_opt);
    qps_analytics_off = RunDiverse(&off, diverse, k);
  }
  serving::ServerOptions analytics_on_opt = diverse_opt;
  analytics_on_opt.analytics = true;
  double qps_analytics_on = 0.0;
  double worst_qerror = 0.0;
  size_t stats_structures = 0;
  {
    serving::QueryServer on(&diverse_model, &dataset.train, analytics_on_opt);
    qps_analytics_on = RunDiverse(&on, diverse, k);
    HALK_CHECK(on.query_stats() != nullptr);
    stats_structures = on.query_stats()->size();
    for (const auto& s : on.query_stats()->TopByTime(16)) {
      worst_qerror = std::max(worst_qerror, s.worst_qerror);
    }
  }
  const double analytics_ratio = qps_analytics_on / qps_analytics_off;
  std::printf(
      "analytics (per-node actuals + stats store)\n"
      "  off                                     : %8.1f qps\n"
      "  on      (%3zu structures, worst q %.1f)  : %8.1f qps (%.4fx of "
      "off)\n",
      qps_analytics_off, stats_structures, worst_qerror, qps_analytics_on,
      analytics_ratio);

  serving::MetricsRegistry* metrics = server.metrics();
  const int64_t hits = metrics->CounterValue("serving.cache_hits");
  const int64_t misses = metrics->CounterValue("serving.cache_misses");
  const double hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  serving::Histogram* latency =
      metrics->GetHistogram("serving.latency_us", {1.0});
  serving::Histogram* batch_size =
      metrics->GetHistogram("serving.batch_size", {1.0});

  std::printf("\n--- cache-on server metrics ---\n%s\n",
              server.DumpMetrics().c_str());

  // One machine-readable line for the perf trajectory (keep keys stable).
  bench::BenchJson json("serving_throughput");
  json.Set("requests", num_requests)
      .Set("distinct", pool_size)
      .Set("workers", batch_only.num_workers)
      .Set("max_batch", static_cast<int>(batch_only.max_batch_size))
      .Set("qps_baseline", qps_baseline, 1)
      .Set("qps_batched", qps_batched, 1)
      .Set("qps_tracer_off", qps_tracer_off, 1)
      .Set("qps_served", qps_served, 1)
      .Set("speedup_batched", qps_batched / qps_baseline)
      .Set("speedup_served", qps_served / qps_baseline)
      .Set("tracer_off_ratio", qps_tracer_off / qps_batched)
      .Set("qps_scrape_off", qps_scrape_off, 1)
      .Set("qps_scrape_on", qps_scrape_on, 1)
      .Set("scrape_ratio", qps_scrape_on / qps_scrape_off)
      .Set("scrapes", scrapes);
  // p50/p95/p99 straight from the server's own latency histogram — the
  // instrumented path, not a bench-side stopwatch.
  bench::SetLatencyQuantiles(&json, *latency);
  json.Set("cache_hit_rate", hit_rate)
      .Set("mean_batch_size", batch_size->mean(), 2)
      .Set("diverse_requests", static_cast<int>(diverse.size()))
      .Set("qps_diverse_planner", qps_diverse_planner, 1)
      .Set("dedup_ratio", dedup_ratio)
      .Set("subtree_cache_hit_rate", subtree_hit_rate)
      .Set("qps_analytics_off", qps_analytics_off, 1)
      .Set("qps_analytics_on", qps_analytics_on, 1)
      .Set("analytics_ratio", analytics_ratio)
      .Set("analytics_worst_qerror", worst_qerror)
      .Emit();
  return 0;
}

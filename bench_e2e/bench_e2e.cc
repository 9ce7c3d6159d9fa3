// End-to-end serving benchmark: drives serving::QueryServer through its
// public API with closed-loop client threads over one of four workloads
// (bench_e2e/README.md), reports the end-to-end metrics, and checks every
// sampled answer against core::Evaluator. With --trace it also replays a
// prefix of the same request sequence through each layer's public calls
// and reports per-layer metrics plus a Chrome trace.
//
//   bench_e2e --workload cold_scan --seed 1 --seconds 10 [--trace out.json]
//             [--workdir DIR] [--smoke]
//
// The last stdout line is one JSON object:
//   {"correct":true,"attempted":N,"failed":0,"metrics":{"qps":{...},...}}
// holding the end-to-end metrics, or with --trace the per-layer ones.
// Exit status 0 when every check passed, 1 when one failed, 2 on usage.

#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/evaluator.h"
#include "replay.h"
#include "workloads.h"

namespace halk::bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// Log-bucketed latency histogram (0.5% wide buckets from 100 ns to about
/// two minutes). Memory stays fixed however many requests a run completes,
/// so a faster system does not grow the process; quantiles interpolate
/// inside a bucket, so they move continuously with the samples.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(int64_t ns) {
    const double x = static_cast<double>(ns);
    size_t b = 0;
    if (x > kMinNs) {
      b = std::min<size_t>(
          kBuckets - 1,
          static_cast<size_t>(std::log(x / kMinNs) / kLogGrowth) + 1);
    }
    ++counts_[b];
    ++total_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
  }

  double QuantileMs(double q) const {
    if (total_ == 0) return 0.0;
    const double target = q * static_cast<double>(total_);
    double seen = 0.0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const double c = static_cast<double>(counts_[b]);
      if (c > 0.0 && seen + c >= target) {
        const double lower = b == 0 ? 0.0 : Bound(b - 1);
        const double upper = Bound(b);
        return (lower + (upper - lower) * (target - seen) / c) / 1e6;
      }
      seen += c;
    }
    return Bound(kBuckets - 1) / 1e6;
  }

 private:
  static constexpr double kMinNs = 100.0;
  static constexpr size_t kBuckets = 4400;
  static inline const double kLogGrowth = std::log(1.005);

  static double Bound(size_t b) {
    return kMinNs * std::exp(kLogGrowth * static_cast<double>(b));
  }

  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

/// Outcome of the timed window.
struct Measurement {
  double wall_s = 0.0;
  int64_t completed = 0;
  int64_t failed = 0;
  LatencyHistogram latency;
  /// AnswerDigest of measured requests [0, replay length); 0 = not served.
  std::vector<uint64_t> digests;
  /// Answers of the seeded sample of measured requests.
  std::map<int64_t, Ranking> samples;
  double mean_queue_depth = 0.0;
};

Measurement Measure(const WorkloadSpec& spec, const Setup& setup,
                    double seconds, const std::vector<int64_t>& sample_ids) {
  Measurement out;
  out.digests.assign(static_cast<size_t>(spec.replay), 0);
  std::vector<LatencyHistogram> latency(static_cast<size_t>(spec.clients));
  std::vector<int64_t> completed(static_cast<size_t>(spec.clients), 0);
  std::vector<int64_t> failed(static_cast<size_t>(spec.clients), 0);
  std::mutex samples_mu;
  const int64_t warmup = setup.requests->warmup();

  // Little's-law input for serving.queue_wait_us: the admission queue's
  // depth gauge, sampled every 10 ms while the clients run.
  std::atomic<bool> sampling{true};
  double depth_sum = 0.0;
  int64_t depth_samples = 0;
  std::thread sampler([&] {
    // order: plain stop flag; the sampler only needs to see it eventually.
    while (sampling.load(std::memory_order_relaxed)) {
      depth_sum += setup.server->metrics()->GaugeValue("serving.queue_depth");
      ++depth_samples;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  out.wall_s = RunClosedLoop(
      setup.server.get(), *setup.requests, spec.clients, warmup, 0, seconds,
      [&](int c, int64_t j, const Result<serving::TopKAnswer>& answer,
          int64_t latency_ns) {
        const size_t client = static_cast<size_t>(c);
        latency[client].Add(latency_ns);
        if (!answer.ok()) {
          ++failed[client];
          return;
        }
        ++completed[client];
        const int64_t m = j - warmup;
        if (m < spec.replay) {
          out.digests[static_cast<size_t>(m)] =
              AnswerDigest(answer->entities, answer->distances);
        }
        if (std::binary_search(sample_ids.begin(), sample_ids.end(), m)) {
          std::lock_guard<std::mutex> lock(samples_mu);
          out.samples[m] = {answer->entities, answer->distances};
        }
      });
  // order: pairs with the sampler's relaxed poll; join synchronizes.
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();
  for (size_t c = 0; c < latency.size(); ++c) {
    out.latency.Merge(latency[c]);
    out.completed += completed[c];
    out.failed += failed[c];
  }
  out.mean_queue_depth =
      depth_samples == 0 ? 0.0 : depth_sum / static_cast<double>(depth_samples);
  return out;
}

/// Checks the sampled served answers against Evaluator::TopK on the in-RAM
/// model `reference`: ids must match, and every distance must equal
/// ScoreAllEntities' value for that entity, bit for bit.
bool CheckSamples(const Setup& setup, core::HalkModel* reference,
                  const Measurement& m, std::string* error) {
  if (m.samples.empty()) {
    *error = "no sampled answer was served";
    return false;
  }
  core::Evaluator evaluator(reference);
  query::QueryGraph scratch;
  for (const auto& [index, sample] : m.samples) {
    const query::QueryGraph& query =
        setup.requests->At(setup.requests->warmup() + index, &scratch);
    const std::vector<int64_t> expected = evaluator.TopK(query, kTopK);
    const std::vector<float> scores = evaluator.ScoreAllEntities(query);
    bool same = expected == sample.entities;
    for (size_t i = 0; same && i < sample.entities.size(); ++i) {
      same = sample.distances[i] ==
             scores[static_cast<size_t>(sample.entities[i])];
    }
    if (!same) {
      *error = "served answer of measured request " + std::to_string(index) +
               " differs from Evaluator::TopK";
      return false;
    }
  }
  return true;
}

/// The (R) per-layer metrics: the server's own instruments over its
/// lifetime (warm-up plus the measured window).
void ReadServerMetrics(serving::MetricsRegistry* registry, const Measurement& m,
                       std::map<std::string, double>* values) {
  auto counter = [registry](const char* name) {
    return static_cast<double>(registry->CounterValue(name));
  };
  const double plan_nodes = counter("plan.nodes");
  const double subtree_hits = counter("plan.subtree_cache_hits");
  const double cache_hits = counter("serving.cache_hits");
  (*values)["plan.dedup_ratio"] =
      plan_nodes == 0.0 ? 0.0 : 1.0 - counter("plan.unique_nodes") / plan_nodes;
  (*values)["plan.subtree_cache_hit_rate"] = Ratio(
      subtree_hits, subtree_hits + counter("plan.subtree_cache_misses"));
  (*values)["plan.node_evals_per_request"] =
      Ratio(counter("plan.node_evals"), counter("plan.requests"));
  (*values)["serving.batch_size_mean"] =
      registry
          ->GetHistogram("serving.batch_size",
                         serving::Histogram::ExponentialBounds(1.0, 2.0, 12))
          ->mean();
  // Little's law: mean queue depth / arrival rate.
  (*values)["serving.queue_wait_us"] =
      m.mean_queue_depth / (static_cast<double>(m.completed) / m.wall_s) * 1e6;
  (*values)["serving.cache_hit_rate"] = Ratio(
      cache_hits, cache_hits + counter("serving.cache_misses"));
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so that
/// PeakRssMib covers only what runs after this call. Free heap pages go
/// back to the kernel first: glibc keeps what world generation and earlier
/// set-ups freed (about half the RSS after BuildWorld at 10^5 entities),
/// and a serving process never held it. False when the kernel refuses
/// (Linux before 4.0, or /proc not mounted).
bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

/// VmHWM: the process's peak resident set since the last ResetPeakRss;
/// NaN when /proc/self/status has no such line.
double PeakRssMib() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  char line[256];
  long long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr &&
         std::sscanf(line, "VmHWM: %lld kB", &kib) != 1) {
  }
  std::fclose(f);
  return kib < 0 ? std::nan("") : static_cast<double>(kib) / 1024.0;
}

struct Metric {
  const char* name;
  const char* unit;
};

// Reported with --trace 0, in BENCHMARK.json order.
constexpr Metric kEndToEnd[] = {
    {"qps", "1/s"},          {"p50_ms", "ms"},  {"p95_ms", "ms"},
    {"peak_rss_mib", "MiB"}, {"setup_s", "s"},
};

// Reported with --trace 1, in BENCHMARK.json order.
constexpr Metric kPerLayer[] = {
    {"core.scan_us", "us"},
    {"core.scan_ns_per_entity_dim", "ns"},
    {"query.branches_per_request", "count"},
    {"core.bounded_scan_ns_per_entity_dim", "ns"},
    {"core.rank_us", "us"},
    {"store.scan_ns_per_entity_dim", "ns"},
    {"store.pruned_fraction", "ratio"},
    {"store.blocks_skipped_ratio", "ratio"},
    {"store.resident_mib", "MiB"},
    {"shard.topk_us", "us"},
    {"shard.scatter_overhead_us", "us"},
    {"core.merge_us", "us"},
    {"plan.build_us", "us"},
    {"plan.prepare_us", "us"},
    {"plan.run_us", "us"},
    {"plan.dedup_ratio", "ratio"},
    {"plan.subtree_cache_hit_rate", "ratio"},
    {"plan.node_evals_per_request", "count"},
    {"serving.batch_size_mean", "count"},
    {"serving.queue_wait_us", "us"},
    {"query.dnf_us", "us"},
    {"serving.cache_hit_rate", "ratio"},
    {"serving.cache_get_us", "us"},
    {"query.validate_us", "us"},
    {"query.fingerprint_us", "us"},
    {"obs.stats_record_us", "us"},
    {"obs.latency_observe_ns", "ns"},
    {"obs.trace_overhead", "ratio"},
};

struct Args {
  WorkloadId workload = WorkloadId::kColdScan;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;
  std::string workdir = ".";
  bool smoke = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload "
               "cold_scan|store_sharded|shared_subtrees|hot_cache\n"
               "                 [--seed N] [--seconds S] [--trace OUT.json]\n"
               "                 [--workdir DIR] [--smoke]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      args->smoke = true;
    } else if (arg == "--workload" && has_value) {
      if (!ParseWorkload(argv[++i], &args->workload)) return false;
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
      if (!(args->seconds > 0.0)) return false;
    } else if (arg == "--trace" && has_value) {
      args->trace_path = argv[++i];
    } else if (arg == "--workdir" && has_value) {
      args->workdir = argv[++i];
    } else {
      return false;
    }
  }
  return have_workload;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Metric* metrics, size_t count,
                 const std::map<std::string, double>& values) {
  std::string json = std::string("{\"correct\":") +
                     (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < count; ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", values.at(metrics[i].name));
    json += std::string(i == 0 ? "" : ",") + "\"" + metrics[i].name +
            "\":{\"value\":" + value + ",\"unit\":\"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const Scale scale = args.smoke ? Scale::Smoke() : Scale();
  const WorkloadSpec spec = MakeSpec(args.workload, scale);
  const std::string name = WorkloadName(spec.id);
  const std::string tag = name + "-" + std::to_string(getpid());
  std::fprintf(stderr, "bench_e2e %s: seed %llu, %d client(s), %.1f s\n",
               name.c_str(), static_cast<unsigned long long>(args.seed),
               spec.clients, args.seconds);

  Clock::time_point t = Clock::now();
  const kg::KnowledgeGraph world = BuildWorld(spec);
  std::fprintf(stderr, "  world: %lld entities, %lld triples (%.2f s, "
               "untimed)\n",
               static_cast<long long>(world.num_entities()),
               static_cast<long long>(world.triples().size()),
               std::chrono::duration<double>(Clock::now() - t).count());

  // setup_s: the median of several complete set-ups; the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < scale.setup_reps; ++rep) {
    setup.reset();
    std::string error;
    t = Clock::now();
    setup = BuildSetup(spec, world, args.seed, args.workdir,
                       tag + "-rep" + std::to_string(rep), &error);
    if (setup == nullptr) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t).count());
    std::fprintf(stderr, "  set-up %d: %.3f s\n", rep, setup_s.back());
  }

  serving::MetricsRegistry* registry = setup->server->metrics();
  const int64_t hits_before = registry->CounterValue("serving.cache_hits");
  const int64_t misses_before = registry->CounterValue("serving.cache_misses");
  Rng rng(args.seed ^ 0x5eedULL);
  std::vector<int64_t> sample_ids =
      rng.SampleWithoutReplacement(args.smoke ? 16 : 256, 16);
  std::sort(sample_ids.begin(), sample_ids.end());
  // peak_rss_mib is the serving process's peak over the measured window:
  // the transient peaks of world generation and of set-up are not in it.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak-RSS mark through "
                         "/proc/self/clear_refs\n");
    return 1;
  }
  const Measurement m = Measure(spec, *setup, args.seconds, sample_ids);
  const double peak_rss_mib = PeakRssMib();
  const int64_t hits = registry->CounterValue("serving.cache_hits");
  const int64_t misses = registry->CounterValue("serving.cache_misses");

  // The answer-check reference: the served model, or on a store-backed run
  // the in-RAM source model, rebuilt now that the window is measured.
  std::unique_ptr<core::HalkModel> rebuilt;
  core::HalkModel* reference = setup->model.get();
  if (reference == nullptr) {
    rebuilt = MakeModel(spec);
    reference = rebuilt.get();
  }

  bool correct = true;
  std::string error;
  if (m.failed > 0) {
    correct = false;
    error = std::to_string(m.failed) + " requests failed";
  } else if (!CheckSamples(*setup, reference, m, &error)) {
    correct = false;
  } else if (spec.id == WorkloadId::kHotCache
                 ? (misses != misses_before ||
                    hits - hits_before != m.completed)
                 : hits != 0) {
    correct = false;
    error = spec.id == WorkloadId::kHotCache
                ? "hot_cache measured window was not all cache hits"
                : "answer cache hit on a workload that must miss";
  }

  const double qps = static_cast<double>(m.completed) / m.wall_s;
  std::map<std::string, double> values = {
      {"qps", qps},
      {"p50_ms", m.latency.QuantileMs(0.50)},
      {"p95_ms", m.latency.QuantileMs(0.95)},
      {"peak_rss_mib", peak_rss_mib},
      {"setup_s", Median(setup_s)},
  };
  int64_t attempted = m.completed + m.failed;
  int64_t failed = m.failed;

  if (!args.trace_path.empty() && correct) {
    ReadServerMetrics(registry, m, &values);
    setup->server->Shutdown();
    t = Clock::now();
    ReplayInputs in;
    in.spec = &spec;
    in.world = &world;
    in.setup = setup.get();
    in.reference = reference;
    in.e2e_digests = &m.digests;
    in.trace_path = args.trace_path;
    const ReplayResult replay = RunReplay(in);
    std::fprintf(stderr, "  replay: %lld requests (%.2f s)\n",
                 static_cast<long long>(replay.requests),
                 std::chrono::duration<double>(Clock::now() - t).count());
    attempted += replay.requests;
    if (!replay.ok) {
      correct = false;
      failed += 1;
      error = "replay: " + replay.error;
    }
    for (const auto& [metric, value] : replay.metrics) values[metric] = value;
  }

  bench::BenchJson json("e2e_" + name);
  json.Set("workload", name)
      .Set("seed", static_cast<int64_t>(args.seed))
      .Set("clients", spec.clients)
      .Set("requests", m.completed)
      .Set("failed", m.failed)
      .Set("qps", qps, 2)
      .Set("p50_ms", values["p50_ms"], 4)
      .Set("p95_ms", values["p95_ms"], 4)
      .Set("p99_ms", m.latency.QuantileMs(0.99), 4)
      .Set("peak_rss_mib", values["peak_rss_mib"], 1)
      .Set("setup_s", values["setup_s"], 3)
      .Emit();

  const bool traced = !args.trace_path.empty();
  const Metric* metrics = traced ? kPerLayer : kEndToEnd;
  const size_t count = traced ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (size_t i = 0; i < count; ++i) {
    auto it = values.find(metrics[i].name);
    if (it == values.end() || !std::isfinite(it->second)) {
      values[metrics[i].name] = 0.0;
      if (correct) error = std::string("no value for ") + metrics[i].name;
      correct = false;
    }
    std::fprintf(stderr, "  %-38s %14.6g %s\n", metrics[i].name,
                 values[metrics[i].name], metrics[i].unit);
  }
  std::fprintf(stderr, "  %lld measured requests, %lld failed\n",
               static_cast<long long>(m.completed),
               static_cast<long long>(m.failed));
  if (!correct) std::fprintf(stderr, "FAILED: %s\n", error.c_str());
  PrintResult(correct, attempted, failed, metrics, count, values);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace halk::bench_e2e

int main(int argc, char** argv) {
  halk::bench_e2e::Args args;
  if (!halk::bench_e2e::ParseArgs(argc, argv, &args)) {
    return halk::bench_e2e::Usage();
  }
  return halk::bench_e2e::Run(args);
}

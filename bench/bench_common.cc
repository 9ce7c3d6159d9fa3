#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>

// bench/CMakeLists.txt regenerates halk_git_sha.h on every build; a build
// that defines HALK_GIT_SHA itself (bench_e2e/CMakeLists.txt, at configure
// time) keeps its own.
#ifndef HALK_GIT_SHA
#include "halk_git_sha.h"
#endif

namespace halk::bench {

using query::StructureId;

namespace {

std::string Utcnow() {
  const std::time_t now = std::time(nullptr);
  std::tm parts{};
  gmtime_r(&now, &parts);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &parts);
  return buf;
}

}  // namespace

BenchJson::BenchJson(const std::string& name) : name_(name) {
  fields_.emplace_back("bench", "\"" + name + "\"");
  // Provenance: which build produced the number, and when. The sha is the
  // commit seen at build time ("unknown" outside a git clone).
  fields_.emplace_back("git_sha", "\"" HALK_GIT_SHA "\"");
  fields_.emplace_back("timestamp", "\"" + Utcnow() + "\"");
}

BenchJson& BenchJson::Set(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + value + "\"");
  return *this;
}

BenchJson& BenchJson::Set(const std::string& key, const char* value) {
  return Set(key, std::string(value));
}

BenchJson& BenchJson::Set(const std::string& key, double value,
                          int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  fields_.emplace_back(key, buf);
  return *this;
}

BenchJson& BenchJson::Set(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

BenchJson& BenchJson::Set(const std::string& key, int value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

std::string BenchJson::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + fields_[i].first + "\":" + fields_[i].second;
  }
  out += "}";
  return out;
}

bool EnableProfilerFromEnv() {
  const char* env = std::getenv("HALK_BENCH_PROFILE");
  const bool profile = env != nullptr && env[0] == '1';
  if (profile) obs::Profiler::Global().set_enabled(true);
  return profile;
}

std::string RenderTopSelf(const obs::ProfileSnapshot& snapshot, int n) {
  std::string out;
  for (const obs::ProfileFlatEntry& e : snapshot.TopSelf(n)) {
    if (!out.empty()) out += "|";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "=%.3fms/%lldx",
                  static_cast<double>(e.self_ns) / 1e6,
                  static_cast<long long>(e.count));
    out += e.path + buf;
  }
  return out;
}

void BenchJson::Emit() const {
  BenchJson with_profile = *this;
  // A profiled run records where its time went right in the summary line;
  // unprofiled runs keep the historical schema (no key at all).
  if (obs::Profiler::Global().enabled()) {
    with_profile.Set("profile",
                     RenderTopSelf(obs::Profiler::Global().Snapshot(), 5));
  }
  const std::string json = with_profile.ToJson();
  std::printf("JSON %s\n", json.c_str());
  const char* dir = std::getenv("HALK_BENCH_OUTPUT_DIR");
  const std::string path = std::string(dir != nullptr ? dir
                                                      : HALK_REPO_ROOT_DIR) +
                           "/BENCH_" + name_ + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
}

void SetLatencyQuantiles(BenchJson* json, const serving::Histogram& histogram,
                         const std::string& prefix) {
  json->Set(prefix + "p50_ms", histogram.Quantile(0.50) / 1000.0)
      .Set(prefix + "p95_ms", histogram.Quantile(0.95) / 1000.0)
      .Set(prefix + "p99_ms", histogram.Quantile(0.99) / 1000.0);
}

Scale Scale::FromEnv() {
  Scale s;
  const char* fast = std::getenv("HALK_BENCH_FAST");
  if (fast != nullptr && fast[0] == '1') {
    s.train_steps = 250;
    s.pool_per_structure = 40;
    s.eval_queries_per_structure = 10;
  }
  // Fine-grained budget control, e.g. HALK_BENCH_STEPS=1500 for a capture
  // that finishes on a time budget, or 8000 for a higher-fidelity run.
  const char* steps = std::getenv("HALK_BENCH_STEPS");
  if (steps != nullptr && std::atoi(steps) > 0) {
    s.train_steps = std::atoi(steps);
  }
  return s;
}

std::vector<BenchDataset> MakeAllDatasets(uint64_t seed) {
  std::vector<BenchDataset> out;
  for (const char* which : {"fb15k", "fb237", "nell"}) {
    out.push_back(MakeOneDataset(which, seed));
  }
  return out;
}

BenchDataset MakeOneDataset(const std::string& which, uint64_t seed) {
  BenchDataset ds;
  if (which == "fb15k") {
    ds.data = kg::MakeFb15kLike(seed);
  } else if (which == "fb237") {
    ds.data = kg::MakeFb237Like(seed);
  } else if (which == "nell") {
    ds.data = kg::MakeNellLike(seed);
  } else {
    HALK_CHECK(false) << "unknown dataset " << which;
  }
  Rng rng(seed * 31 + 7);
  ds.grouping = std::make_unique<kg::NodeGrouping>(
      kg::NodeGrouping::Random(ds.data.train.num_entities(), 16, &rng));
  ds.grouping->BuildAdjacency(ds.data.train);
  return ds;
}

Trained TrainModel(const std::string& model_name, const BenchDataset& ds,
                   const Scale& scale) {
  core::ModelConfig config;
  config.num_entities = ds.data.train.num_entities();
  config.num_relations = ds.data.train.num_relations();
  config.dim = scale.dim;
  config.hidden = scale.hidden;
  config.gamma = scale.gamma;
  config.seed = 1234;
  auto model =
      baselines::CreateModel(model_name, config, ds.grouping.get());
  HALK_CHECK(model.ok()) << model.status().ToString();

  core::TrainerOptions options;
  options.steps = scale.train_steps;
  options.batch_size = scale.batch_size;
  options.num_negatives = scale.num_negatives;
  options.learning_rate = scale.learning_rate;
  options.queries_per_structure = scale.pool_per_structure;
  options.seed = 7;
  // Weight the mix toward one-hop queries, as in the Query2Box-family
  // protocols where 1p training covers every KG edge. Negation structures
  // are trained at lower frequency: their near-complement answer sets give
  // noisy gradients that disturb the shared rotation geometry (the same
  // phenomenon behind the paper's observation that negation accuracy is
  // universally low).
  {
    using query::StructureId;
    std::vector<StructureId> mix;
    for (int repeat = 0; repeat < 2; ++repeat) {
      for (StructureId s :
           {StructureId::k2p, StructureId::k3p, StructureId::k2i,
            StructureId::k3i, StructureId::k2d, StructureId::k3d}) {
        mix.push_back(StructureId::k1p);
        mix.push_back(s);
      }
    }
    for (StructureId s : query::NegationStructures()) mix.push_back(s);
    options.structures = std::move(mix);
  }
  // Opt-in training observability, shared by every bench binary:
  //   HALK_BENCH_PROFILE=1  → enable the profiler for the run, report the
  //     phase breakdown, and write a collapsed-stack flamegraph
  //     (FLAME_train_<model>_<dataset>.txt next to the BENCH_*.json files);
  //   HALK_BENCH_JOURNAL=1  → write the structured training journal
  //     (JOURNAL_train_<model>_<dataset>.jsonl, same directory).
  // Both default off so perf-sensitive captures pay nothing.
  const char* out_dir_env = std::getenv("HALK_BENCH_OUTPUT_DIR");
  const std::string out_dir =
      out_dir_env != nullptr ? out_dir_env : HALK_REPO_ROOT_DIR;
  const std::string run_tag = model_name + "_" + ds.data.name;
  const char* profile_env = std::getenv("HALK_BENCH_PROFILE");
  const bool profile = profile_env != nullptr && profile_env[0] == '1';
  options.profile = profile;
  const char* journal_env = std::getenv("HALK_BENCH_JOURNAL");
  std::unique_ptr<obs::TrainJournal> journal;
  if (journal_env != nullptr && journal_env[0] == '1') {
    auto opened = obs::TrainJournal::Open(out_dir + "/JOURNAL_train_" +
                                          run_tag + ".jsonl");
    if (opened.ok()) {
      journal = std::move(*opened);
      options.journal = journal.get();
    } else {
      std::fprintf(stderr, "warning: %s\n",
                   opened.status().ToString().c_str());
    }
  }

  core::Trainer trainer(model->get(), &ds.data.train, ds.grouping.get(),
                        options);
  auto stats = trainer.Train();
  HALK_CHECK(stats.ok()) << stats.status().ToString();

  if (profile) {
    const std::string flame_path =
        out_dir + "/FLAME_train_" + run_tag + ".txt";
    FILE* f = std::fopen(flame_path.c_str(), "w");
    if (f != nullptr) {
      const std::string collapsed =
          obs::Profiler::Global().Snapshot().ToCollapsed();
      std::fwrite(collapsed.data(), 1, collapsed.size(), f);
      std::fclose(f);
    }
    std::printf(
        "train phases (%s): sample %.2fs embed %.2fs loss %.2fs "
        "backward %.2fs adam %.2fs of %.2fs total\n",
        run_tag.c_str(), stats->sample_seconds, stats->embed_seconds,
        stats->loss_seconds, stats->backward_seconds, stats->adam_seconds,
        stats->seconds);
  }

  Trained out;
  out.model = std::move(*model);
  out.offline_seconds = stats->seconds;
  return out;
}

std::map<StructureId, std::vector<query::GroundedQuery>> MakeEvalQueries(
    const BenchDataset& ds, const std::vector<StructureId>& structures,
    int per_structure, uint64_t seed) {
  std::map<StructureId, std::vector<query::GroundedQuery>> out;
  query::QuerySampler sampler(&ds.data.test, seed);
  for (StructureId s : structures) {
    auto queries = sampler.SampleMany(s, per_structure);
    HALK_CHECK(queries.ok()) << query::StructureName(s) << ": "
                             << queries.status().ToString();
    for (auto& q : *queries) query::SplitEasyHard(&q, ds.data.valid);
    out[s] = std::move(*queries);
  }
  return out;
}

std::map<StructureId, double> EvaluatePercent(
    core::QueryModel* model,
    const std::map<StructureId, std::vector<query::GroundedQuery>>& workload,
    bool use_mrr) {
  core::Evaluator evaluator(model);
  std::map<StructureId, double> out;
  for (const auto& [structure, queries] : workload) {
    if (!core::ModelSupportsStructure(*model, structure)) continue;
    core::Metrics m = evaluator.Evaluate(queries);
    out[structure] = 100.0 * (use_mrr ? m.mrr : m.hits3);
  }
  return out;
}

void PrintHeader(const std::string& first_column,
                 const std::vector<StructureId>& columns) {
  std::printf("%-10s", first_column.c_str());
  for (StructureId s : columns) {
    std::printf(" %6s", query::StructureName(s).c_str());
  }
  std::printf(" %6s\n", "avg");
}

void PrintRow(const std::string& name,
              const std::vector<StructureId>& columns,
              const std::map<StructureId, double>& values) {
  std::printf("%-10s", name.c_str());
  double sum = 0.0;
  int count = 0;
  for (StructureId s : columns) {
    auto it = values.find(s);
    if (it == values.end()) {
      std::printf(" %6s", "-");
    } else {
      std::printf(" %6.1f", it->second);
      sum += it->second;
      ++count;
    }
  }
  if (count > 0) {
    std::printf(" %6.1f\n", sum / count);
  } else {
    std::printf(" %6s\n", "-");
  }
  std::fflush(stdout);  // keep progress visible when output is redirected
}

void RunModelComparison(const std::string& title,
                        const std::vector<std::string>& model_names,
                        const std::vector<StructureId>& structures,
                        bool use_mrr, const Scale& scale) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "(synthetic stand-in KGs; absolute values are not comparable to the "
      "paper, shapes are — see EXPERIMENTS.md)\n\n");
  for (const BenchDataset& ds : MakeAllDatasets()) {
    std::printf("--- dataset %s ---\n", ds.data.name.c_str());
    auto workload = MakeEvalQueries(ds, structures,
                                    scale.eval_queries_per_structure, 99);
    PrintHeader("method", structures);
    for (const std::string& name : model_names) {
      Trained trained = TrainModel(name, ds, scale);
      auto values = EvaluatePercent(trained.model.get(), workload, use_mrr);
      PrintRow(trained.model->name(), structures, values);
    }
    std::printf("\n");
  }
}

}  // namespace halk::bench

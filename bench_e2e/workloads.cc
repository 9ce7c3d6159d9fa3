#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "kg/synthetic.h"
#include "kg/synthetic_stream.h"
#include "query/fingerprint.h"
#include "query/sampler.h"
#include "query/structures.h"
#include "store/convert.h"
#include "store/writer.h"

namespace halk::bench_e2e {

namespace {

using query::QueryGraph;
using query::StructureId;

/// cold_scan / store_sharded: request j grounds structure (j mod 24) with
/// seeded anchors and relations. The first anchor is an injective function
/// of the round j / 24, so every request is a distinct query for the first
/// 24 * entities requests, and the answer cache can never hit. Groundings
/// are uniform rather than witness-sampled: ranking scores every entity
/// whatever the answer set is, so a witness path would not change the
/// work, only make each request cost a sampler walk to generate.
class GeneratedStream : public RequestStream {
 public:
  GeneratedStream(uint64_t seed, int64_t entities, int64_t relations,
                  int64_t warmup)
      : RequestStream(warmup),
        seed_(seed),
        entities_(entities),
        relations_(relations),
        offset_(static_cast<int64_t>(Mix(seed) % static_cast<uint64_t>(
                                                     entities))) {
    for (StructureId s : query::AllStructures()) {
      templates_.push_back(query::MakeStructure(s));
    }
    HALK_CHECK_EQ(std::gcd(kStride, entities_), 1);
  }

  const QueryGraph& At(int64_t j, QueryGraph* scratch) const override {
    const int64_t n = static_cast<int64_t>(templates_.size());
    *scratch = templates_[static_cast<size_t>(j % n)];
    const int64_t round = j / n;
    bool first_anchor = true;
    uint64_t draw = Mix(seed_ ^ Mix(static_cast<uint64_t>(j)));
    for (int id = 0; id < scratch->num_nodes(); ++id) {
      query::QueryNode& node = scratch->mutable_node(id);
      draw = Mix(draw);
      if (node.op == query::OpType::kAnchor) {
        node.anchor_entity =
            first_anchor ? (round % entities_ * kStride + offset_) % entities_
                         : static_cast<int64_t>(
                               draw % static_cast<uint64_t>(entities_));
        first_anchor = false;
      } else if (node.op == query::OpType::kProjection) {
        node.relation =
            static_cast<int64_t>(draw % static_cast<uint64_t>(relations_));
      }
    }
    return *scratch;
  }

 private:
  static constexpr int64_t kStride = 7919;  // prime: coprime to the tables

  uint64_t seed_;
  int64_t entities_;
  int64_t relations_;
  int64_t offset_;
  std::vector<QueryGraph> templates_;
};

/// shared_subtrees: every request is a distinct p(i(a, b, c), r) over three
/// chains of a 32-chain library of 3p paths, in a seeded shuffled order of
/// all C(32, 3) * relations combinations. Whole queries never repeat
/// within a cycle (79,360 at 16 relations, far above the answer cache's
/// 4,096 entries) but their chains recur constantly, which is what the
/// planner's dedup and subtree cache exploit.
class LibraryStream : public RequestStream {
 public:
  LibraryStream(uint64_t seed, int64_t entities, int64_t relations,
                int64_t warmup)
      : RequestStream(warmup), entities_(entities), relations_(relations) {
    for (int a = 0; a < kLibrary; ++a) {
      for (int b = a + 1; b < kLibrary; ++b) {
        for (int c = b + 1; c < kLibrary; ++c) {
          triples_.push_back({a, b, c});
        }
      }
    }
    order_.resize(triples_.size() * static_cast<size_t>(relations_));
    std::iota(order_.begin(), order_.end(), 0u);
    Rng rng(seed);
    rng.Shuffle(&order_);
  }

  const QueryGraph& At(int64_t j, QueryGraph* scratch) const override {
    const uint32_t combo = order_[static_cast<size_t>(
        j % static_cast<int64_t>(order_.size()))];
    const auto& t = triples_[combo / static_cast<uint32_t>(relations_)];
    const int64_t tail = combo % static_cast<uint32_t>(relations_);
    *scratch = QueryGraph();
    const int a = AddChain(scratch, t[0]);
    const int b = AddChain(scratch, t[1]);
    const int c = AddChain(scratch, t[2]);
    scratch->SetTarget(
        scratch->AddProjection(scratch->AddIntersection({a, b, c}), tail));
    return *scratch;
  }

 private:
  static constexpr int kLibrary = 32;

  int AddChain(QueryGraph* g, int i) const {
    const int64_t anchor = (3 + 7 * static_cast<int64_t>(i)) % entities_;
    const int64_t r1 = i % relations_;
    const int64_t r2 = (2 * i + 1) % relations_;
    const int64_t r3 = (3 * i + 2) % relations_;
    return g->AddProjection(
        g->AddProjection(g->AddProjection(g->AddAnchor(anchor), r1), r2), r3);
  }

  int64_t entities_;
  int64_t relations_;
  std::vector<std::array<int, 3>> triples_;
  std::vector<uint32_t> order_;
};

/// hot_cache: a pool of distinct witness-sampled queries, where the query
/// of popularity rank r has structure r mod 24. The warm-up answers each
/// pool query once, in rank order; measured requests then draw Zipf(s =
/// 1.1) ranks from (seed, j). Every seed thus has the same structure mix at
/// every popularity level — a hit's cost grows with the query's size — and
/// the seed only picks groundings and the request order. The pool is
/// smaller than the answer cache, so every measured request is a hit.
class ZipfPoolStream : public RequestStream {
 public:
  ZipfPoolStream(uint64_t seed, const kg::KnowledgeGraph& kg, int64_t pool)
      : RequestStream(pool), seed_(seed) {
    query::QuerySampler sampler(&kg, seed);
    const std::vector<StructureId> structures = query::AllStructures();
    std::unordered_set<query::Fingerprint, query::FingerprintHash> seen;
    for (int64_t r = 0; r < pool; ++r) {
      const StructureId s =
          structures[static_cast<size_t>(r) % structures.size()];
      for (int attempt = 0;; ++attempt) {
        HALK_CHECK_LT(attempt, 100) << "cannot sample distinct hot queries";
        auto q = sampler.Sample(s);
        if (q.ok() &&
            seen.insert(query::CanonicalFingerprint(q->graph)).second) {
          pool_.push_back(std::move(q->graph));
          break;
        }
      }
    }
    double total = 0.0;
    for (size_t r = 0; r < pool_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  const QueryGraph& At(int64_t j, QueryGraph* /*scratch*/) const override {
    if (j < warmup()) return pool_[static_cast<size_t>(j)];
    const double u =
        static_cast<double>(Mix(seed_ ^ Mix(static_cast<uint64_t>(j))) >> 11) *
        0x1.0p-53;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return pool_[std::min(rank, pool_.size() - 1)];
  }

 private:
  uint64_t seed_;
  std::vector<QueryGraph> pool_;  // indexed by popularity rank
  std::vector<double> cdf_;
};

}  // namespace

const std::vector<WorkloadId>& AllWorkloads() {
  static const std::vector<WorkloadId> all = {
      WorkloadId::kColdScan, WorkloadId::kStoreSharded,
      WorkloadId::kSharedSubtrees, WorkloadId::kHotCache};
  return all;
}

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kColdScan: return "cold_scan";
    case WorkloadId::kStoreSharded: return "store_sharded";
    case WorkloadId::kSharedSubtrees: return "shared_subtrees";
    case WorkloadId::kHotCache: return "hot_cache";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, WorkloadId* out) {
  for (WorkloadId id : AllWorkloads()) {
    if (name == WorkloadName(id)) {
      *out = id;
      return true;
    }
  }
  return false;
}

Scale Scale::Smoke() {
  Scale s;
  s.scan_entities = 2000;
  s.small_entities = 200;
  s.scan_warmup = 4;
  s.shared_warmup = 40;
  s.hot_pool = 64;
  s.replay_scan = 8;
  s.replay_shared = 40;
  s.replay_hot = 400;
  s.setup_reps = 2;
  return s;
}

WorkloadSpec MakeSpec(WorkloadId id, const Scale& scale) {
  WorkloadSpec spec;
  spec.id = id;
  // ServerOptions defaults throughout: 4 workers, batch 16, answer cache
  // 4096, planner and analytics on, feedback off.
  switch (id) {
    case WorkloadId::kColdScan:
    case WorkloadId::kStoreSharded:
      spec.entities = scale.scan_entities;
      spec.relations = 32;
      spec.dim = 32;
      spec.hidden = 64;
      spec.model_seed = 3;
      spec.warmup = scale.scan_warmup;
      spec.replay = scale.replay_scan;
      if (id == WorkloadId::kStoreSharded) {
        // One interactive caller against the mmap-backed, sharded path.
        spec.clients = 1;
        spec.store_backed = true;
        spec.server.num_shards = kShards;
      }
      break;
    case WorkloadId::kSharedSubtrees:
    case WorkloadId::kHotCache:
      spec.entities = scale.small_entities;
      spec.relations = 16;
      spec.dim = 64;
      spec.hidden = 128;
      spec.model_seed = 11;
      spec.warmup = id == WorkloadId::kSharedSubtrees ? scale.shared_warmup
                                                      : scale.hot_pool;
      spec.replay = id == WorkloadId::kSharedSubtrees ? scale.replay_shared
                                                      : scale.replay_hot;
      break;
  }
  // Load comes from one process with at most one client per core.
  spec.clients = std::min<int>(
      spec.clients,
      std::max(1u, std::thread::hardware_concurrency()));
  return spec;
}

std::unique_ptr<core::HalkModel> MakeModel(const WorkloadSpec& spec) {
  core::ModelConfig config;
  config.num_entities = spec.entities;
  config.num_relations = spec.relations;
  config.dim = spec.dim;
  config.hidden = spec.hidden;
  config.seed = spec.model_seed;
  return std::make_unique<core::HalkModel>(config, nullptr);
}

kg::KnowledgeGraph BuildWorld(const WorkloadSpec& spec) {
  if (spec.id == WorkloadId::kColdScan ||
      spec.id == WorkloadId::kStoreSharded) {
    kg::StreamKgOptions options;
    options.num_entities = spec.entities;
    options.num_relations = spec.relations;
    options.seed = 9;
    return std::move(kg::MaterializeStreamDataset(options, 0.05, 0.05).train);
  } else {
    kg::SyntheticKgOptions options;
    options.num_entities = spec.entities;
    options.num_relations = spec.relations;
    options.num_triples = spec.entities * 6;
    options.seed = 7;
    return std::move(kg::GenerateSyntheticKg(options).train);
  }
}

Setup::~Setup() {
  server.reset();
  store_model.reset();
  store.reset();
  if (!snapshot_dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(snapshot_dir, ignored);
  }
}

namespace {

/// Writes `model` as a kShards-file snapshot under `dir` and opens it with
/// EmbeddingStore::Open defaults plus OpenServingModel.
bool OpenSnapshot(const core::HalkModel& model, const std::string& dir,
                  std::unique_ptr<store::EmbeddingStore>* store,
                  std::unique_ptr<core::HalkModel>* store_model,
                  std::string* error) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  const Status written = store::WriteModelSnapshot(model, dir, kShards);
  if (!written.ok()) {
    *error = "snapshot write: " + written.ToString();
    return false;
  }
  auto opened = store::EmbeddingStore::Open(dir, {});
  if (!opened.ok()) {
    *error = "snapshot open: " + opened.status().ToString();
    return false;
  }
  *store = std::move(*opened);
  auto served = store::OpenServingModel(**store, nullptr);
  if (!served.ok()) {
    *error = "serving model: " + served.status().ToString();
    return false;
  }
  *store_model = std::move(*served);
  return true;
}

}  // namespace

double RunClosedLoop(serving::QueryServer* server, const RequestStream& stream,
                     int clients, int64_t begin, int64_t end, double seconds,
                     const DoneFn& done) {
  using Clock = std::chrono::steady_clock;
  const bool bounded = end > begin;
  std::atomic<int64_t> next{begin};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;  // published to the clients through `go`
  std::vector<Clock::time_point> last(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      query::QueryGraph scratch;
      ready.fetch_add(1);
      // order: acquire pairs with the release store of `go`, making the
      // `start` written before it visible here.
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Clock::time_point stop =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
      Clock::time_point finished = start;
      for (;;) {
        if (!bounded && finished >= stop) break;
        // order: only hands out distinct indices; nothing is published.
        const int64_t j = next.fetch_add(1, std::memory_order_relaxed);
        if (bounded && j >= end) break;
        const query::QueryGraph& query = stream.At(j, &scratch);
        const Clock::time_point sent = Clock::now();
        const Result<serving::TopKAnswer> answer =
            server->Answer(query, kTopK);
        finished = Clock::now();
        done(c, j, answer,
             std::chrono::duration_cast<std::chrono::nanoseconds>(finished -
                                                                  sent)
                 .count());
      }
      last[static_cast<size_t>(c)] = finished;
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  start = Clock::now();
  // order: release publishes `start` to the spinning clients.
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const Clock::time_point finished = *std::max_element(last.begin(), last.end());
  return std::chrono::duration<double>(finished - start).count();
}

std::unique_ptr<Setup> BuildSetup(const WorkloadSpec& spec,
                                  const kg::KnowledgeGraph& world,
                                  uint64_t seed, const std::string& workdir,
                                  const std::string& tag, std::string* error) {
  auto setup = std::make_unique<Setup>();
  setup->model = MakeModel(spec);
  if (spec.store_backed) {
    setup->snapshot_dir = workdir + "/" + tag;
    if (!OpenSnapshot(*setup->model, setup->snapshot_dir, &setup->store,
                      &setup->store_model, error)) {
      return nullptr;
    }
    setup->model.reset();
  }
  switch (spec.id) {
    case WorkloadId::kColdScan:
    case WorkloadId::kStoreSharded:
      setup->requests = std::make_unique<GeneratedStream>(
          seed, spec.entities, spec.relations, spec.warmup);
      break;
    case WorkloadId::kSharedSubtrees:
      setup->requests = std::make_unique<LibraryStream>(
          seed, spec.entities, spec.relations, spec.warmup);
      break;
    case WorkloadId::kHotCache:
      setup->requests = std::make_unique<ZipfPoolStream>(
          seed, world, spec.warmup);
      break;
  }
  setup->server = std::make_unique<serving::QueryServer>(
      setup->served(), &world, spec.server);
  std::atomic<int64_t> failed{0};
  RunClosedLoop(setup->server.get(), *setup->requests, spec.clients, 0,
                setup->requests->warmup(), 0.0,
                [&](int, int64_t, const Result<serving::TopKAnswer>& answer,
                    int64_t) {
                  if (!answer.ok()) failed.fetch_add(1);
                });
  if (failed.load() > 0) {
    *error = std::to_string(failed.load()) + " warm-up requests failed";
    return nullptr;
  }
  return setup;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

uint64_t AnswerDigest(const std::vector<int64_t>& entities,
                      const std::vector<float>& distances) {
  uint64_t h = Mix(entities.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, &distances[i], sizeof(bits));
    h = Mix(h ^ static_cast<uint64_t>(entities[i]));
    h = Mix(h ^ bits);
  }
  return h;
}

}  // namespace halk::bench_e2e

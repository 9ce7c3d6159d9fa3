#ifndef HALK_BENCH_E2E_WORKLOADS_H_
#define HALK_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/halk_model.h"
#include "kg/graph.h"
#include "query/dag.h"
#include "serving/server.h"
#include "store/store.h"

namespace halk::bench_e2e {

/// The four serving workloads (see bench_e2e/README.md for why each one
/// exists and which layer it stresses).
enum class WorkloadId { kColdScan, kStoreSharded, kSharedSubtrees, kHotCache };

const std::vector<WorkloadId>& AllWorkloads();
const char* WorkloadName(WorkloadId id);
/// False when `name` names no workload.
bool ParseWorkload(const std::string& name, WorkloadId* out);

/// Sizes of one run. Defaults are the benchmark's; `--smoke` shrinks every
/// count so the whole harness runs in about a second per workload.
struct Scale {
  int64_t scan_entities = 100000;    // cold_scan / store_sharded table
  int64_t small_entities = 400;      // shared_subtrees / hot_cache table
  int64_t scan_warmup = 16;          // untimed prefix, scan workloads
  int64_t shared_warmup = 2000;      // untimed prefix, shared_subtrees
  int64_t hot_pool = 1024;           // distinct hot_cache queries
  int64_t replay_scan = 32;          // traced replay prefix, scan workloads
  int64_t replay_shared = 2000;
  int64_t replay_hot = 200000;
  int setup_reps = 3;                // setup_s is the median over these

  static Scale Smoke();
};

inline constexpr int64_t kTopK = 10;
/// Serving shards of store_sharded, and the snapshot's file count.
inline constexpr int kShards = 4;

/// A workload's fixed configuration.
struct WorkloadSpec {
  WorkloadId id = WorkloadId::kColdScan;
  /// Closed-loop client threads (clamped to the machine's core count); the
  /// traced replay groups requests in chunks of this size.
  int clients = 4;
  int64_t entities = 0;
  int64_t relations = 0;
  int64_t dim = 0;
  int64_t hidden = 0;
  uint64_t model_seed = 0;
  bool store_backed = false;
  int64_t warmup = 0;       // untimed prefix of the request sequence
  int64_t replay = 0;       // measured requests the traced replay covers
  serving::ServerOptions server;
};

WorkloadSpec MakeSpec(WorkloadId id, const Scale& scale);

/// The workload's untrained, seeded in-RAM model: every call returns the
/// same weights bit for bit, so a store-backed run can drop it once the
/// snapshot is written and rebuild it as the answer-check reference.
std::unique_ptr<core::HalkModel> MakeModel(const WorkloadSpec& spec);

/// The knowledge graph a workload serves over (the train split of its
/// synthetic dataset). Built once per process, outside the timed set-up: it
/// is input generation, not serving work. It feeds the planner's cost model
/// and the hot_cache sampler.
kg::KnowledgeGraph BuildWorld(const WorkloadSpec& spec);

/// The request sequence of one run, derived from --seed alone. Index j
/// addresses the whole sequence: j < warmup() is the untimed prefix, the
/// rest is measured in order. Sequences are unbounded (they cycle), so a
/// faster system never runs out of requests; every workload whose answer
/// cache must stay cold cycles over more distinct queries than the cache
/// holds, so wrap-around can never hit.
class RequestStream {
 public:
  virtual ~RequestStream() = default;
  int64_t warmup() const { return warmup_; }
  /// The query of request j; may build it into `scratch` and return that.
  virtual const query::QueryGraph& At(int64_t j,
                                      query::QueryGraph* scratch) const = 0;

 protected:
  explicit RequestStream(int64_t warmup) : warmup_(warmup) {}

 private:
  int64_t warmup_;
};

/// Everything one set-up repetition builds, in the order it builds it —
/// model, snapshot and store, request sequence, server, warm-up. Owns its
/// snapshot directory and removes it on destruction.
struct Setup {
  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup();

  /// In-RAM model the server ranks with; null on store-backed runs, which
  /// drop it once the snapshot is written, as a store-backed server never
  /// holds the table.
  std::unique_ptr<core::HalkModel> model;
  std::string snapshot_dir;                      // "" when none was written
  std::unique_ptr<store::EmbeddingStore> store;  // store-backed runs only
  std::unique_ptr<core::HalkModel> store_model;  // serves out of `store`
  std::unique_ptr<RequestStream> requests;
  std::unique_ptr<serving::QueryServer> server;

  /// The model the server ranks with.
  core::HalkModel* served() const {
    return store_model != nullptr ? store_model.get() : model.get();
  }
};

/// Outcome callback of one closed-loop request: the client that sent it,
/// its sequence index, the answer, and the latency around Answer.
using DoneFn = std::function<void(int client, int64_t j,
                                  const Result<serving::TopKAnswer>& answer,
                                  int64_t latency_ns)>;

/// Drives `server` with `clients` closed-loop threads: each takes the next
/// sequence index, calls Answer, reports to `done`, and only then sends
/// again. Covers indices [begin, end) when end > begin; otherwise starts at
/// `begin` and stops sending once `seconds` have passed. Returns the wall
/// seconds from the common start to the last completion.
double RunClosedLoop(serving::QueryServer* server, const RequestStream& stream,
                     int clients, int64_t begin, int64_t end, double seconds,
                     const DoneFn& done);

/// Builds and warms one set-up. `workdir` receives snapshot directories;
/// `tag` keeps concurrent set-ups apart. Returns null (with `*error` set)
/// when a warm-up request fails.
std::unique_ptr<Setup> BuildSetup(const WorkloadSpec& spec,
                                  const kg::KnowledgeGraph& world,
                                  uint64_t seed, const std::string& workdir,
                                  const std::string& tag, std::string* error);

/// A served ranking: entity ids by ascending distance, and the distances.
struct Ranking {
  std::vector<int64_t> entities;
  std::vector<float> distances;
};

/// Order-sensitive 64-bit digest of a ranking (entity ids and distance
/// bits): the replay and the end-to-end run compare answers through it.
uint64_t AnswerDigest(const std::vector<int64_t>& entities,
                      const std::vector<float>& distances);

/// SplitMix64 finalizer: the counter-based hash every seeded draw uses, so
/// request j's inputs depend on (seed, j) only, never on thread timing.
uint64_t Mix(uint64_t x);

/// Median of `v` (mean of the middle two for even sizes); 0 when empty.
double Median(std::vector<double> v);

/// num / den, or 0 when den is 0.
double Ratio(double num, double den);

}  // namespace halk::bench_e2e

#endif  // HALK_BENCH_E2E_WORKLOADS_H_

#ifndef HALK_BENCH_E2E_REPLAY_H_
#define HALK_BENCH_E2E_REPLAY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/halk_model.h"
#include "workloads.h"

namespace halk::bench_e2e {

/// What the traced replay runs against.
struct ReplayInputs {
  const WorkloadSpec* spec = nullptr;
  const kg::KnowledgeGraph* world = nullptr;
  const Setup* setup = nullptr;
  /// The in-RAM model (setup->model, or its rebuild on store-backed runs).
  const core::HalkModel* reference = nullptr;
  /// AnswerDigest of measured request m of the end-to-end run, or 0 when
  /// that run did not complete it. The replay's answers must match.
  const std::vector<uint64_t>* e2e_digests = nullptr;
  /// Chrome trace output ("" writes none).
  std::string trace_path;
};

struct ReplayResult {
  bool ok = true;
  std::string error;
  /// Requests replayed (all passes together).
  int64_t requests = 0;
  /// Per-layer metrics measured by the replay: (name, value) pairs.
  std::vector<std::pair<std::string, double>> metrics;
};

/// Replays the workload's warm-up and the first spec.replay measured
/// requests on one thread, in chunks of the client count, through the
/// public calls of each layer the server runs: validation, fingerprint,
/// answer-cache lookup, DNF, plan build / prepare / run, ranking, and the
/// observability sinks. Every answer is ranked with in-RAM DistancesToAll +
/// TopKFromDistances and with the in-RAM bound-aware AccumulateTopKRange;
/// on a store-backed run also with per-shard store scans + MergeTopK and
/// with ShardCoordinator::TopKEmbedded. All of them must agree exactly, and
/// the served one must equal the end-to-end run's answer. The store and
/// shard metrics read 0 on runs that serve from RAM, whose requests never
/// reach those layers. The replay runs three times from fresh caches: an
/// untimed pass that warms the process, then one with spans off and one
/// with spans on; per-layer times are the medians of the spans, and
/// obs.trace_overhead is the ratio of the two timed walls.
ReplayResult RunReplay(const ReplayInputs& inputs);

}  // namespace halk::bench_e2e

#endif  // HALK_BENCH_E2E_REPLAY_H_

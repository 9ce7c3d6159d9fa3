#ifndef HALK_PLAN_EXECUTOR_H_
#define HALK_PLAN_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "core/query_model.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "serving/subtree_cache.h"

namespace halk::plan {

/// Per-node actuals of one execution, collected only when
/// ExecOptions::collect_actuals is set. `actual_rows` is a sampled
/// membership estimate: the count of probed entities within the model's
/// MembershipThreshold, scaled to the full table; negative means the node
/// was never materialized (skipped) or the model has no membership notion.
struct NodeActuals {
  int64_t wall_ns = 0;        // attributed share of the op batch's wall
  double actual_rows = -1.0;  // sampled cardinality estimate
  bool evaluated = false;     // computed by an operator call this run
  bool cache_hit = false;     // materialized from the subtree cache
  bool slot_reused = false;   // landed in a recycled embedding slot
};

/// Knobs of one plan execution, fixed at Prepare time.
struct ExecOptions {
  /// Collect NodeActuals (EXPLAIN ANALYZE, the serving analytics plane).
  /// Off costs nothing: no clock reads, no probes, no allocation.
  bool collect_actuals = false;
  /// Entities probed per node for the actual-rows estimate; the count of
  /// in-threshold entities is scaled by num_entities / sampled.
  int64_t sample_entities = 256;
};

/// Counters of one plan execution; the server exports them as `plan.*`
/// metrics and annotates them onto the embed span.
struct ExecStats {
  int64_t nodes = 0;         // unique plan nodes
  int64_t evaluated = 0;     // nodes actually computed
  int64_t cache_hits = 0;    // subtrees answered from the cache
  int64_t cache_misses = 0;  // probed but absent
  int64_t skipped = 0;       // needed by no evaluated node (cached above)
  int64_t op_batches = 0;    // batched operator calls issued
  int64_t slots_reused = 0;  // embedding slots recycled via refcounts
  size_t arena_bytes = 0;    // execution arena footprint
  /// Indexed by plan-node id; empty unless ExecOptions::collect_actuals.
  std::vector<NodeActuals> actuals;
};

/// A prepared execution: per-node subtree-cache results, the set of nodes
/// that still need computing, and the batched operator calls that will
/// produce them. Preparation is separated from evaluation so the serving
/// path gets distinct batch_assembly / embed trace phases.
struct ExecSchedule {
  struct OpBatch {
    query::OpType op = query::OpType::kAnchor;
    uint32_t arity = 0;
    /// Plan-node ids, most selective first (the plan's schedule order).
    std::vector<int32_t> node_ids;
  };

  std::vector<OpBatch> batches;
  /// Per plan node: value must be materialized (root, or input of an
  /// evaluated node).
  std::vector<uint8_t> needed;
  /// Per plan node: answered by the subtree cache.
  std::vector<uint8_t> cached;
  /// Per plan node: the cache payload when `cached` (empty otherwise).
  std::vector<serving::SubtreeCache::Entry> cached_entries;
  ExecOptions options;
  ExecStats stats;
};

/// The shared-graph executor: evaluates a Plan level by level, batching
/// all same-operator nodes of a depth into one operator call, so each
/// unique subtree is materialized exactly once per micro-batch — and not
/// at all when the subtree cache already holds it (a hit skips the whole
/// sub-DAG below, not just the node). Embedding rows live in a per-run
/// bump arena; per-node reference counts recycle slots as consumers
/// drain, so peak memory tracks the widest level, not the whole DAG.
///
/// Stateless between calls: one instance serves every worker thread
/// concurrently (the cache has its own lock).
class PlanExecutor {
 public:
  /// `model` supplies the config; `ops` the operator dispatch (normally
  /// model->AsOperatorModel(), the same object). `cache` may be null. None
  /// are owned; all must outlive the executor.
  PlanExecutor(const core::QueryModel* model, core::OperatorModel* ops,
               serving::SubtreeCache* cache);

  /// Probes the subtree cache top-down (a hit prunes the subtree below
  /// it from the probe frontier) and assembles batched operator calls.
  /// `trace` (may be inactive) receives subtree_cache_hit marker events.
  /// `options` fixes the analytics mode for the subsequent Run.
  ExecSchedule Prepare(const Plan& plan, const obs::TraceContext& trace = {},
                       const ExecOptions& options = {}) const;

  /// Evaluates the prepared schedule; returns one embedding row per plan
  /// root, in roots order, bit-identical to a per-branch EmbedQueries
  /// walk. `trace` parents per-batch node_eval spans. `schedule->stats`
  /// accumulates execution counters — including per-node actuals when
  /// the schedule was prepared with collect_actuals (the membership
  /// probes run after each batch's wall clock stops, so timing never
  /// includes the analytics itself).
  core::EmbeddingBatch Run(const Plan& plan, ExecSchedule* schedule,
                           const obs::TraceContext& trace = {}) const;

  /// Prepare + Run in one step (tests, offline evaluation).
  core::EmbeddingBatch Execute(const Plan& plan, ExecStats* stats = nullptr,
                               const ExecOptions& options = {}) const;

  serving::SubtreeCache* cache() const { return cache_; }

 private:
  const core::QueryModel* model_;  // not owned
  core::OperatorModel* ops_;       // not owned
  serving::SubtreeCache* cache_;   // not owned, may be null
};

}  // namespace halk::plan

#endif  // HALK_PLAN_EXECUTOR_H_

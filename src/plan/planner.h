#ifndef HALK_PLAN_PLANNER_H_
#define HALK_PLAN_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/query_stats.h"
#include "plan/cost_model.h"
#include "plan/plan.h"
#include "query/dag.h"

namespace halk::plan {

struct PlannerOptions {
  /// Cardinality-feedback source (not owned; must outlive the planner;
  /// null disables). When a subtree's fingerprint has enough observed
  /// actual-rows samples, the EWMA replaces the cost model's estimate in
  /// PlanNode::sched_rows — so each depth level is ordered by *measured*
  /// selectivity. est_rows is never touched, operator math never reads
  /// sched_rows, and every consumer still runs at a strictly greater
  /// depth, so served rankings stay bit-identical by construction (the
  /// randomized equivalence suite proves it with feedback on).
  const obs::QueryStatsStore* feedback = nullptr;
};

/// One union-free branch to plan: `graph` must be grounded and
/// union-free (serving expands unions to DNF first, keeping per-branch
/// min-scoring outside the plan). The pointer must outlive BuildPlan.
struct PlanItem {
  size_t request_index = 0;
  const query::QueryGraph* graph = nullptr;
};

/// The cost-based micro-batch planner: hash-conses the compute DAGs of
/// many branches into one arena-allocated Plan, merging every subtree
/// whose evaluation-order-preserving fingerprint repeats — within a
/// request or across requests — and ordering each depth level by estimated
/// selectivity. Stateless and const after construction, so one instance
/// serves every worker thread concurrently.
class Planner {
 public:
  /// `stats` (may be null, not owned) feeds the cost model;
  /// `num_entities` bounds cardinality estimates.
  Planner(const kg::GraphStats* stats, int64_t num_entities,
          const PlannerOptions& options = {});

  /// Builds one shared plan over a micro-batch of branches; roots come out
  /// in `items` order.
  Plan BuildPlan(const std::vector<PlanItem>& items) const;

  const CostModel& cost_model() const { return cost_; }

 private:
  CostModel cost_;
  PlannerOptions options_;
};

}  // namespace halk::plan

#endif  // HALK_PLAN_PLANNER_H_

#include "plan/planner.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "query/fingerprint.h"

namespace halk::plan {

Planner::Planner(const kg::GraphStats* stats, int64_t num_entities,
                 const PlannerOptions& options)
    : cost_(stats, num_entities), options_(options) {}

Plan Planner::BuildPlan(const std::vector<PlanItem>& items) const {
  Plan plan;
  std::unordered_map<query::Fingerprint, int32_t, query::FingerprintHash>
      dedup;
  std::vector<double> input_rows;
  std::vector<int64_t> relation_tags;

  for (size_t item_index = 0; item_index < items.size(); ++item_index) {
    HALK_CHECK(items[item_index].graph != nullptr);
    const query::QueryGraph* g = items[item_index].graph;
    HALK_CHECK_GE(g->target(), 0) << "planning a target-less query";

    const std::vector<query::Fingerprint> fps =
        query::SubtreeFingerprints(*g);
    const size_t num_nodes = static_cast<size_t>(g->num_nodes());

    // Only the sub-DAG reachable from the target enters the plan. DNF
    // branches may carry dead union nodes, so union-freedom is enforced
    // on the reachable set, not the whole node array.
    std::vector<char> reachable(num_nodes, 0);
    std::vector<int> stack = {g->target()};
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      if (reachable[static_cast<size_t>(id)]) continue;
      reachable[static_cast<size_t>(id)] = 1;
      HALK_CHECK(g->nodes()[static_cast<size_t>(id)].op !=
                 query::OpType::kUnion)
          << "plan inputs must be union-free (expand to DNF first)";
      for (int in : g->nodes()[static_cast<size_t>(id)].inputs) {
        stack.push_back(in);
      }
    }

    std::vector<int32_t> plan_id(num_nodes, -1);
    for (int id : g->TopologicalOrder()) {
      if (!reachable[static_cast<size_t>(id)]) continue;
      ++plan.total_nodes;
      auto [it, inserted] = dedup.try_emplace(fps[static_cast<size_t>(id)],
                                              -1);
      if (!inserted) {
        plan_id[static_cast<size_t>(id)] = it->second;
        continue;
      }

      const query::QueryNode& n = g->nodes()[static_cast<size_t>(id)];
      PlanNode pn;
      pn.op = n.op;
      pn.key = fps[static_cast<size_t>(id)];
      switch (n.op) {
        case query::OpType::kAnchor:
          pn.payload = n.anchor_entity;
          break;
        case query::OpType::kProjection:
          pn.payload = n.relation;
          break;
        default:
          break;
      }

      pn.num_inputs = static_cast<uint32_t>(n.inputs.size());
      int32_t* inputs = plan.arena.AllocateArray<int32_t>(n.inputs.size());
      input_rows.clear();
      relation_tags.clear();
      if (n.op == query::OpType::kProjection) {
        relation_tags.push_back(n.relation);
      }
      for (size_t j = 0; j < n.inputs.size(); ++j) {
        const int32_t in_id =
            plan_id[static_cast<size_t>(n.inputs[j])];
        HALK_CHECK_GE(in_id, 0);
        inputs[j] = in_id;
        const PlanNode& in = plan.nodes[static_cast<size_t>(in_id)];
        input_rows.push_back(in.est_rows);
        pn.depth = std::max(pn.depth, in.depth + 1);
        relation_tags.insert(relation_tags.end(), in.relations,
                             in.relations + in.num_relations);
      }
      pn.inputs = inputs;
      pn.est_rows = cost_.EstimateRows(pn.op, pn.payload, input_rows.data(),
                                       input_rows.size());
      pn.sched_rows = pn.est_rows;
      if (options_.feedback != nullptr) {
        double observed = 0.0;
        if (options_.feedback->ObservedRows(pn.key, &observed)) {
          pn.sched_rows = observed;
          pn.from_feedback = true;
        }
      }
      std::sort(relation_tags.begin(), relation_tags.end());
      relation_tags.erase(
          std::unique(relation_tags.begin(), relation_tags.end()),
          relation_tags.end());
      pn.relations =
          plan.arena.CopyArray(relation_tags.data(), relation_tags.size());
      pn.num_relations = static_cast<uint32_t>(relation_tags.size());

      const int32_t new_id = static_cast<int32_t>(plan.nodes.size());
      plan.nodes.push_back(pn);
      plan.max_depth = std::max(plan.max_depth, pn.depth);
      it->second = new_id;
      plan_id[static_cast<size_t>(id)] = new_id;
    }

    PlanRoot root;
    root.item_index = item_index;
    root.request_index = items[item_index].request_index;
    root.node = plan_id[static_cast<size_t>(g->target())];
    plan.roots.push_back(root);
  }

  // Static refcounts over the *unique* graph: one per DAG edge plus one
  // per root anchored at the node.
  for (const PlanNode& n : plan.nodes) {
    for (uint32_t j = 0; j < n.num_inputs; ++j) {
      ++plan.nodes[static_cast<size_t>(n.inputs[j])].refcount;
    }
  }
  for (const PlanRoot& root : plan.roots) {
    ++plan.nodes[static_cast<size_t>(root.node)].refcount;
  }

  plan.schedule.resize(plan.nodes.size());
  for (size_t i = 0; i < plan.schedule.size(); ++i) {
    plan.schedule[i] = static_cast<int32_t>(i);
  }
  std::sort(plan.schedule.begin(), plan.schedule.end(),
            [&plan](int32_t a, int32_t b) {
              const PlanNode& na = plan.nodes[static_cast<size_t>(a)];
              const PlanNode& nb = plan.nodes[static_cast<size_t>(b)];
              if (na.depth != nb.depth) return na.depth < nb.depth;
              if (na.sched_rows != nb.sched_rows) {
                return na.sched_rows < nb.sched_rows;
              }
              return a < b;
            });
  return plan;
}

}  // namespace halk::plan

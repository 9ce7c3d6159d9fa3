#include "plan/executor.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "kg/groups.h"
#include "plan/arena.h"
#include "tensor/tensor.h"

namespace halk::plan {

namespace {

using core::EmbeddingBatch;
using query::OpType;
using tensor::Tensor;

// Cap on subtree_cache_hit marker events per prepared plan, so a hot
// cache cannot flood the trace ring.
constexpr int kMaxCacheHitEvents = 16;

// Sampled cardinality of the set that `embedding` row `row` denotes:
// probes deterministic entity blocks spread across the table, counts how
// many fall within the model's membership threshold, and scales to the
// full table. Negative when the model has no membership notion. The probe
// reads DistancesToRange only — it can never perturb operator outputs.
double SampledActualRows(const core::QueryModel& model,
                         const core::EmbeddingBatch& embedding, int64_t row,
                         int64_t sample) {
  const int64_t n = model.config().num_entities;
  if (n <= 0 || sample <= 0) return -1.0;
  const double tau = model.MembershipThreshold(embedding, row);
  if (tau < 0.0) return -1.0;
  const int64_t s = std::min(sample, n);
  // A few contiguous blocks rather than one: arc membership correlates
  // with entity id on grouped KGs, so one block from the table's head
  // would bias the estimate.
  const int64_t num_blocks = s >= 64 ? 4 : 1;
  const int64_t per_block = (s + num_blocks - 1) / num_blocks;
  int64_t probed = 0;
  int64_t within = 0;
  std::vector<float> dist;
  for (int64_t b = 0; b < num_blocks; ++b) {
    const int64_t begin = (n * b) / num_blocks;
    const int64_t end = std::min(begin + per_block, n);
    if (begin >= end) continue;
    model.DistancesToRange(embedding, row, begin, end, &dist);
    for (const float d : dist) {
      if (static_cast<double>(d) <= tau) ++within;
    }
    probed += end - begin;
  }
  if (probed == 0) return -1.0;
  return static_cast<double>(within) * static_cast<double>(n) /
         static_cast<double>(probed);
}

}  // namespace

PlanExecutor::PlanExecutor(const core::QueryModel* model,
                           core::OperatorModel* ops,
                           serving::SubtreeCache* cache)
    : model_(model), ops_(ops), cache_(cache) {
  HALK_CHECK(model_ != nullptr);
  HALK_CHECK(ops_ != nullptr);
}

ExecSchedule PlanExecutor::Prepare(const Plan& plan,
                                   const obs::TraceContext& trace,
                                   const ExecOptions& options) const {
  const size_t n = plan.nodes.size();
  const size_t row_floats = static_cast<size_t>(2 * model_->config().dim);
  ExecSchedule sched;
  sched.options = options;
  sched.needed.assign(n, 0);
  sched.cached.assign(n, 0);
  sched.cached_entries.resize(n);
  sched.stats.nodes = static_cast<int64_t>(n);
  if (options.collect_actuals) sched.stats.actuals.assign(n, NodeActuals{});

  for (const PlanRoot& root : plan.roots) {
    sched.needed[static_cast<size_t>(root.node)] = 1;
  }

  // Reverse schedule = consumers before inputs (all consumers sit at a
  // strictly greater depth), so needed flags propagate top-down and a
  // cache hit prunes its whole sub-DAG from the probe frontier.
  int hit_events = 0;
  for (size_t idx = plan.schedule.size(); idx-- > 0;) {
    const int32_t id = plan.schedule[idx];
    if (!sched.needed[static_cast<size_t>(id)]) {
      ++sched.stats.skipped;
      continue;
    }
    const PlanNode& node = plan.node(id);
    if (cache_ != nullptr && node.op != OpType::kAnchor) {
      serving::SubtreeCache::Entry entry;
      if (cache_->Get(node.key, &entry) && entry.row.size() == row_floats) {
        sched.cached[static_cast<size_t>(id)] = 1;
        sched.cached_entries[static_cast<size_t>(id)] = std::move(entry);
        ++sched.stats.cache_hits;
        if (hit_events < kMaxCacheHitEvents) {
          obs::RecordEvent(trace, "subtree_cache_hit",
                           {{"node", static_cast<double>(id)}});
          ++hit_events;
        }
        continue;  // inputs stay un-needed unless another consumer asks
      }
      ++sched.stats.cache_misses;
    }
    for (uint32_t j = 0; j < node.num_inputs; ++j) {
      sched.needed[static_cast<size_t>(node.inputs[j])] = 1;
    }
  }

  // Batch the nodes to evaluate per depth level, grouped by (op, arity),
  // keeping the schedule's most-selective-first order within each batch.
  int32_t batch_depth = -1;
  size_t level_start = 0;
  for (int32_t id : plan.schedule) {
    if (!sched.needed[static_cast<size_t>(id)] ||
        sched.cached[static_cast<size_t>(id)]) {
      continue;
    }
    const PlanNode& node = plan.node(id);
    if (node.depth != batch_depth) {
      batch_depth = node.depth;
      level_start = sched.batches.size();
    }
    ExecSchedule::OpBatch* target = nullptr;
    for (size_t b = level_start; b < sched.batches.size(); ++b) {
      if (sched.batches[b].op == node.op &&
          sched.batches[b].arity == node.num_inputs) {
        target = &sched.batches[b];
        break;
      }
    }
    if (target == nullptr) {
      sched.batches.push_back({node.op, node.num_inputs, {}});
      target = &sched.batches.back();
    }
    target->node_ids.push_back(id);
    ++sched.stats.evaluated;
  }
  sched.stats.op_batches = static_cast<int64_t>(sched.batches.size());
  return sched;
}

core::EmbeddingBatch PlanExecutor::Run(const Plan& plan,
                                       ExecSchedule* schedule,
                                       const obs::TraceContext& trace) const {
  ExecSchedule& sched = *schedule;
  const size_t n = plan.nodes.size();
  const int64_t dim = model_->config().dim;
  const size_t row_floats = static_cast<size_t>(2 * dim);

  const bool collect = !sched.stats.actuals.empty();
  const int64_t sample = sched.options.sample_entities;

  Arena exec_arena;
  std::vector<float*> slot(n, nullptr);
  std::vector<float*> free_list;
  bool last_alloc_reused = false;
  auto alloc_slot = [&](int32_t id) {
    if (!free_list.empty()) {
      slot[static_cast<size_t>(id)] = free_list.back();
      free_list.pop_back();
      ++sched.stats.slots_reused;
      last_alloc_reused = true;
    } else {
      slot[static_cast<size_t>(id)] =
          static_cast<float*>(exec_arena.Allocate(
              row_floats * sizeof(float), alignof(float)));
      last_alloc_reused = false;
    }
    return slot[static_cast<size_t>(id)];
  };

  // Live consumer counts over what actually runs: edges from evaluated
  // nodes plus one per root (roots are read at output assembly, so their
  // slots never recycle mid-run).
  std::vector<int32_t> live(n, 0);
  for (const ExecSchedule::OpBatch& batch : sched.batches) {
    for (int32_t id : batch.node_ids) {
      const PlanNode& node = plan.node(id);
      for (uint32_t j = 0; j < node.num_inputs; ++j) {
        ++live[static_cast<size_t>(node.inputs[j])];
      }
    }
  }
  for (const PlanRoot& root : plan.roots) {
    ++live[static_cast<size_t>(root.node)];
  }
  auto release = [&](int32_t id) {
    if (--live[static_cast<size_t>(id)] == 0) {
      free_list.push_back(slot[static_cast<size_t>(id)]);
    }
  };

  // Materialize cache hits.
  std::vector<int32_t> cached_ids;
  for (int32_t id : plan.schedule) {
    if (sched.needed[static_cast<size_t>(id)] &&
        sched.cached[static_cast<size_t>(id)]) {
      std::memcpy(alloc_slot(id),
                  sched.cached_entries[static_cast<size_t>(id)].row.data(),
                  row_floats * sizeof(float));
      if (collect) {
        NodeActuals& a = sched.stats.actuals[static_cast<size_t>(id)];
        a.cache_hit = true;
        a.slot_reused = last_alloc_reused;
        cached_ids.push_back(id);
      }
    }
  }
  // Sampled actual-rows probe for the cache-served nodes (one gathered
  // batch, so the model call count stays bounded).
  if (!cached_ids.empty()) {
    const size_t m = cached_ids.size();
    std::vector<float> centers(m * static_cast<size_t>(dim));
    std::vector<float> lengths(m * static_cast<size_t>(dim));
    for (size_t i = 0; i < m; ++i) {
      const float* src = slot[static_cast<size_t>(cached_ids[i])];
      std::memcpy(centers.data() + i * static_cast<size_t>(dim), src,
                  static_cast<size_t>(dim) * sizeof(float));
      std::memcpy(lengths.data() + i * static_cast<size_t>(dim), src + dim,
                  static_cast<size_t>(dim) * sizeof(float));
    }
    const core::EmbeddingBatch probe{
        Tensor::FromVector({static_cast<int64_t>(m), dim},
                           std::move(centers)),
        Tensor::FromVector({static_cast<int64_t>(m), dim},
                           std::move(lengths))};
    for (size_t i = 0; i < m; ++i) {
      sched.stats.actuals[static_cast<size_t>(cached_ids[i])].actual_rows =
          SampledActualRows(*model_, probe, static_cast<int64_t>(i), sample);
    }
  }

  // Group vectors for the intersection z factor. A plan node is a fully
  // grounded subtree, so its group vector is request-independent; the
  // fold below replicates core::NodeGroupVectors exactly (input order is
  // preserved by the plan), keeping z — and thus the embeddings —
  // bit-identical to EmbedQueries.
  const kg::NodeGrouping* grouping = ops_->operator_grouping();
  std::vector<std::vector<float>> groups;
  if (grouping != nullptr) {
    groups.resize(n);
    for (int32_t id : plan.schedule) {
      const PlanNode& node = plan.node(id);
      std::vector<float>& out = groups[static_cast<size_t>(id)];
      switch (node.op) {
        case OpType::kAnchor:
          out = grouping->OneHot(node.payload);
          break;
        case OpType::kProjection:
          out = grouping->Project(
              groups[static_cast<size_t>(node.inputs[0])], node.payload);
          break;
        case OpType::kIntersection: {
          out = groups[static_cast<size_t>(node.inputs[0])];
          for (uint32_t j = 1; j < node.num_inputs; ++j) {
            out = kg::NodeGrouping::Intersect(
                out, groups[static_cast<size_t>(node.inputs[j])]);
          }
          break;
        }
        case OpType::kDifference:
          out = groups[static_cast<size_t>(node.inputs[0])];
          break;
        case OpType::kNegation:
          out = grouping->AllGroups();
          break;
        case OpType::kUnion:
          HALK_CHECK(false) << "union node in a plan";
          break;
      }
    }
  }

  // Assembles input position `j` of every node in the batch into one
  // [B, d] embedding batch from the producers' slots.
  auto gather_input = [&](const ExecSchedule::OpBatch& batch,
                          uint32_t j) -> EmbeddingBatch {
    const size_t rows = batch.node_ids.size();
    std::vector<float> centers(rows * static_cast<size_t>(dim));
    std::vector<float> lengths(rows * static_cast<size_t>(dim));
    for (size_t i = 0; i < rows; ++i) {
      const PlanNode& node = plan.node(batch.node_ids[i]);
      const float* src = slot[static_cast<size_t>(node.inputs[j])];
      HALK_CHECK(src != nullptr);
      std::memcpy(centers.data() + i * static_cast<size_t>(dim), src,
                  static_cast<size_t>(dim) * sizeof(float));
      std::memcpy(lengths.data() + i * static_cast<size_t>(dim), src + dim,
                  static_cast<size_t>(dim) * sizeof(float));
    }
    const int64_t b = static_cast<int64_t>(rows);
    return {Tensor::FromVector({b, dim}, std::move(centers)),
            Tensor::FromVector({b, dim}, std::move(lengths))};
  };

  for (ExecSchedule::OpBatch& batch : sched.batches) {
    const size_t rows = batch.node_ids.size();
    const bool timed = trace.active() || collect;
    const int64_t start_ns = timed ? obs::NowNs() : 0;
    EmbeddingBatch result;
    switch (batch.op) {
      case OpType::kAnchor: {
        std::vector<int64_t> entities;
        entities.reserve(rows);
        for (int32_t id : batch.node_ids) {
          entities.push_back(plan.node(id).payload);
        }
        result = ops_->EmbedAnchors(entities);
        break;
      }
      case OpType::kProjection: {
        EmbeddingBatch input = gather_input(batch, 0);
        std::vector<int64_t> relations;
        relations.reserve(rows);
        for (int32_t id : batch.node_ids) {
          relations.push_back(plan.node(id).payload);
        }
        result = ops_->Projection(input, relations);
        break;
      }
      case OpType::kIntersection: {
        std::vector<EmbeddingBatch> inputs;
        inputs.reserve(batch.arity);
        for (uint32_t j = 0; j < batch.arity; ++j) {
          inputs.push_back(gather_input(batch, j));
        }
        std::vector<Tensor> z;
        if (grouping != nullptr) {
          for (uint32_t j = 0; j < batch.arity; ++j) {
            std::vector<float> tiled(rows * static_cast<size_t>(dim));
            for (size_t i = 0; i < rows; ++i) {
              const PlanNode& node = plan.node(batch.node_ids[i]);
              const float zi = kg::NodeGrouping::Similarity(
                  groups[static_cast<size_t>(node.inputs[j])],
                  groups[static_cast<size_t>(batch.node_ids[i])]);
              for (int64_t c = 0; c < dim; ++c) {
                tiled[i * static_cast<size_t>(dim) +
                      static_cast<size_t>(c)] = zi;
              }
            }
            z.push_back(Tensor::FromVector({static_cast<int64_t>(rows), dim},
                                           std::move(tiled)));
          }
        }
        result = ops_->Intersection(inputs, z);
        break;
      }
      case OpType::kDifference: {
        std::vector<EmbeddingBatch> inputs;
        inputs.reserve(batch.arity);
        for (uint32_t j = 0; j < batch.arity; ++j) {
          inputs.push_back(gather_input(batch, j));
        }
        result = ops_->Difference(inputs);
        break;
      }
      case OpType::kNegation:
        result = ops_->Negation(gather_input(batch, 0));
        break;
      case OpType::kUnion:
        HALK_CHECK(false) << "union node in a plan";
        break;
    }

    const float* centers = result.a.data();
    const float* lengths = result.b.data();
    for (size_t i = 0; i < rows; ++i) {
      const int32_t id = batch.node_ids[i];
      float* dst = alloc_slot(id);
      if (collect) {
        sched.stats.actuals[static_cast<size_t>(id)].slot_reused =
            last_alloc_reused;
      }
      std::memcpy(dst, centers + i * static_cast<size_t>(dim),
                  static_cast<size_t>(dim) * sizeof(float));
      std::memcpy(dst + dim, lengths + i * static_cast<size_t>(dim),
                  static_cast<size_t>(dim) * sizeof(float));
      // Only a subtree's second sighting is admitted (the doorkeeper), so
      // one-off subtrees leave the budget to recurring ones.
      if (cache_ != nullptr && batch.op != OpType::kAnchor &&
          cache_->Admit(plan.node(id).key)) {
        const PlanNode& node = plan.node(id);
        serving::SubtreeCache::Entry entry;
        entry.row.assign(dst, dst + row_floats);
        entry.relations.assign(node.relations,
                               node.relations + node.num_relations);
        cache_->Put(node.key, std::move(entry));
      }
    }
    // The batch's wall stops here, before the membership probes — the
    // analytics must never inflate the numbers it reports.
    const int64_t end_ns = timed ? obs::NowNs() : 0;
    if (collect) {
      const int64_t per_node_ns =
          (end_ns - start_ns) / static_cast<int64_t>(rows);
      for (size_t i = 0; i < rows; ++i) {
        NodeActuals& a =
            sched.stats.actuals[static_cast<size_t>(batch.node_ids[i])];
        a.evaluated = true;
        a.wall_ns = per_node_ns;
        a.actual_rows =
            SampledActualRows(*model_, result, static_cast<int64_t>(i),
                              sample);
      }
    }
    for (int32_t id : batch.node_ids) {
      const PlanNode& node = plan.node(id);
      for (uint32_t j = 0; j < node.num_inputs; ++j) {
        release(node.inputs[j]);
      }
    }
    if (trace.active()) {
      obs::RecordSpan(trace, "node_eval", start_ns, end_ns,
                      {{"op", static_cast<double>(batch.op)},
                       {"rows", static_cast<double>(rows)},
                       {"arity", static_cast<double>(batch.arity)}});
    }
  }
  sched.stats.arena_bytes = exec_arena.bytes_allocated();

  // One output row per root, in roots order.
  const size_t num_roots = plan.roots.size();
  std::vector<float> centers(num_roots * static_cast<size_t>(dim));
  std::vector<float> lengths(num_roots * static_cast<size_t>(dim));
  for (size_t r = 0; r < num_roots; ++r) {
    const float* src = slot[static_cast<size_t>(plan.roots[r].node)];
    HALK_CHECK(src != nullptr);
    std::memcpy(centers.data() + r * static_cast<size_t>(dim), src,
                static_cast<size_t>(dim) * sizeof(float));
    std::memcpy(lengths.data() + r * static_cast<size_t>(dim), src + dim,
                static_cast<size_t>(dim) * sizeof(float));
  }
  const int64_t b = static_cast<int64_t>(num_roots);
  return {Tensor::FromVector({b, dim}, std::move(centers)),
          Tensor::FromVector({b, dim}, std::move(lengths))};
}

core::EmbeddingBatch PlanExecutor::Execute(const Plan& plan, ExecStats* stats,
                                           const ExecOptions& options) const {
  ExecSchedule sched = Prepare(plan, /*trace=*/{}, options);
  core::EmbeddingBatch out = Run(plan, &sched);
  if (stats != nullptr) *stats = std::move(sched.stats);
  return out;
}

}  // namespace halk::plan

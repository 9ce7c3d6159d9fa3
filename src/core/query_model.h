#ifndef HALK_CORE_QUERY_MODEL_H_
#define HALK_CORE_QUERY_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/operator_model.h"
#include "core/topk.h"
#include "kg/groups.h"
#include "query/dag.h"
#include "tensor/tensor.h"

namespace halk::core {

/// Hyper-parameters shared by HaLk and all baseline models. Paper defaults
/// (d = 800, batch 512, γ = 24) are scaled for CPU training; the geometry is
/// dimension-independent (see DESIGN.md).
struct ModelConfig {
  int64_t num_entities = 0;
  int64_t num_relations = 0;
  int64_t dim = 32;      // embedding dimensionality d
  int64_t hidden = 64;   // MLP hidden width
  float rho = 1.0f;      // arc radius ρ (fixed, as in the paper)
  float lambda = 0.3f;   // residual-correction scale (λ of Eq. 3)
  float eta = 0.9f;      // inside-distance weight η (Eq. 15; the paper's
                         // 0.02 under-weights within-arc ranking at d=16)
  float gamma = 4.0f;    // loss margin γ (the paper's 24 goes with d=800;
                         // it must scale with the L1 distance magnitude)
  float xi = 1.0f;       // group-penalty weight ξ             (Eq. 17)
  uint64_t seed = 1;
};

/// One conjunctive (DNF) branch of a query: row `row` of an embedding
/// batch. A query's entity score is the minimum distance over its branches.
struct BranchRef {
  const EmbeddingBatch* embedding = nullptr;
  int64_t row = 0;
};

/// Observability counters filled by one AccumulateTopKRange scan.
struct ScanStats {
  /// Entities examined (the size of the scanned range).
  int64_t entities_scanned = 0;
  /// Entities abandoned by a bound-aware early exit before their exact
  /// distance was known; 0 for the exhaustive base kernel.
  int64_t entities_pruned = 0;
  /// Of those, the entities the two-stage scan's filter dropped without
  /// reading their θ (core/scan_filter.h); the rest of the range survived
  /// to the kernel. 0 on one-stage scans.
  int64_t entities_filtered = 0;
  /// Columnar tables only (the store's, src/store/): per-dimension column
  /// blocks actually read vs. skipped because every entity in the row
  /// group was already pruned. Skipped blocks are pages never faulted in —
  /// the counters behind the out-of-core memory ceiling. 0 on in-RAM scans.
  int64_t column_blocks_scanned = 0;
  int64_t column_blocks_skipped = 0;
};

/// Common interface of query-embedding models: grounded union-free query
/// DAGs go in, embeddings come out, and entities are ranked by a
/// model-specific distance. Union is handled outside the model via the DNF
/// rewrite (min distance over conjunctive branches), exactly as in the
/// paper. Every model implements the per-operator OperatorModel surface;
/// EmbedQueries is one fold over it, shared by all models.
class QueryModel : public OperatorModel {
 public:
  explicit QueryModel(const ModelConfig& config) : config_(config) {}
  virtual ~QueryModel() = default;

  QueryModel(const QueryModel&) = delete;
  QueryModel& operator=(const QueryModel&) = delete;

  virtual std::string name() const = 0;

  /// Embeds a batch of same-structure, union-free, grounded queries by
  /// folding the operator methods over the query DAG in topological order,
  /// one batched operator call per node. Differentiable: gradients flow to
  /// entity/relation tables and operator networks.
  EmbeddingBatch EmbedQueries(
      const std::vector<const query::QueryGraph*>& queries);

  /// Per-node embeddings of one grounded query (index = node id;
  /// unreachable nodes undefined), from the same fold as EmbedQueries. A
  /// union node is over-approximated by its first input, since candidates
  /// are unioned downstream anyway. Drives the pruning study (Sec. IV-D).
  std::vector<EmbeddingBatch> EmbedAllNodes(const query::QueryGraph& query);

  /// Differentiable distance [B] between `entities[i]` and embedding row i.
  virtual tensor::Tensor Distance(const std::vector<int64_t>& entities,
                                  const EmbeddingBatch& embedding) = 0;

  /// Raw (tape-free) distances from embedding row `row` to every entity;
  /// used for ranking at evaluation time. `out` is resized to num_entities.
  virtual void DistancesToAll(const EmbeddingBatch& embedding, int64_t row,
                              std::vector<float>* out) const = 0;

  /// Raw distances from embedding row `row` to the entity slice
  /// [begin, end): `out` is resized to end - begin with `(*out)[i]` the
  /// distance to entity begin + i, bit-identical to the corresponding
  /// DistancesToAll entries. The base implementation scores the full table
  /// and copies the slice; models with per-entity kernels override it to
  /// touch only the range (the sharded-execution hot path).
  virtual void DistancesToRange(const EmbeddingBatch& embedding, int64_t row,
                                int64_t begin, int64_t end,
                                std::vector<float>* out) const {
    std::vector<float> all;
    DistancesToAll(embedding, row, &all);
    out->assign(all.begin() + begin, all.begin() + end);
  }

  /// Streams the entity slice [begin, end) into `acc`, scoring each entity
  /// by its minimum distance over the branches (the DNF union semantics).
  /// Exact relative to the full scan: acc->Take() afterwards equals what
  /// pushing every DistancesToRange minimum would produce. The base
  /// implementation does exactly that full scan; models whose distance
  /// accumulates monotonically per dimension override it with a bound-aware
  /// kernel that abandons an entity as soon as its partial sum exceeds
  /// acc->bound() — the sharded-execution hot path. `stats` (optional)
  /// receives scan counters for tracing.
  virtual void AccumulateTopKRange(const std::vector<BranchRef>& branches,
                                   int64_t begin, int64_t end,
                                   TopKAccumulator* acc,
                                   ScanStats* stats = nullptr) const {
    std::vector<float> best;
    std::vector<float> dist;
    for (const BranchRef& branch : branches) {
      DistancesToRange(*branch.embedding, branch.row, begin, end, &dist);
      if (best.empty()) {
        best = dist;
      } else {
        for (size_t i = 0; i < dist.size(); ++i) {
          best[i] = std::min(best[i], dist[i]);
        }
      }
    }
    for (size_t i = 0; i < best.size(); ++i) {
      acc->Push(begin + static_cast<int64_t>(i), best[i]);
    }
    if (stats != nullptr) {
      stats->entities_scanned += static_cast<int64_t>(best.size());
    }
  }

  /// Called once by every serving engine's constructor (QueryServer)
  /// before it ranks anything: a model may derive read-only serving state
  /// from its parameters here. From then on the parameters must not change
  /// while the engine serves, as the engine already requires; after
  /// training, construct a new engine. The default does nothing.
  virtual void PrepareForServing() {}

  /// Distance below which an entity counts as a member of the set that
  /// embedding row `row` denotes, or a negative value when the model's
  /// geometry has no such notion. Together with DistancesToRange this
  /// powers the analytics plane's sampled "actual rows" probe
  /// (plan/executor.h): |{e : distance(e) <= threshold}| estimates the
  /// operator's true output cardinality. Never used for ranking.
  virtual double MembershipThreshold(const EmbeddingBatch& embedding,
                                     int64_t row) const {
    (void)embedding;
    (void)row;
    return -1.0;
  }

  /// Trainable leaves for the optimizer.
  virtual std::vector<tensor::Tensor> Parameters() const = 0;

  /// Whether the model implements an operator (ConE/MLPMix lack difference,
  /// NewLook lacks negation — their tables in the paper have '-').
  virtual bool Supports(query::OpType op) const = 0;

  /// Operator-level view of the model (core/operator_model.h), which the
  /// planner-backed serving path drives over a shared compute DAG.
  OperatorModel* AsOperatorModel() { return this; }

  const ModelConfig& config() const { return config_; }

 protected:
  ModelConfig config_;

 private:
  /// The fold behind EmbedQueries and EmbedAllNodes; union nodes fail
  /// unless `over_approximate_union`.
  std::vector<EmbeddingBatch> EmbedNodes(
      const std::vector<const query::QueryGraph*>& queries,
      bool over_approximate_union);
};

}  // namespace halk::core

#endif  // HALK_CORE_QUERY_MODEL_H_

#ifndef HALK_CORE_HALK_MODEL_H_
#define HALK_CORE_HALK_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/arc.h"
#include "core/distance.h"
#include "core/query_model.h"
#include "nn/deepsets.h"
#include "nn/mlp.h"

namespace halk::core {

/// The HaLk model (Sec. III of the paper): entities are points on a circle,
/// query nodes are arc segments, and the five logical operators are
/// implemented per Eqs. (2)-(14):
///   * projection — relation rotation followed by a start/end-point MLP
///     producing center and arc angle through g(·);
///   * difference — attention over rectangular-coordinate semantic centers
///     with an asymmetry vector κ, and a DeepSets arclength bounded by the
///     minuend (cardinality constraint);
///   * intersection — the same semantic-average-center attention scaled by
///     group similarity z, with a min-bounded DeepSets arclength;
///   * negation — antipodal linear initialization refined by a non-linear
///     two-branch MLP;
///   * union — handled outside the model by the DNF rewrite (exact).
/// The operator methods (QueryModel's OperatorModel surface) are virtual so
/// the Table V ablations (HaLk-V1/V2/V3) can swap in degraded variants; the
/// shared EmbedQueries fold and the shared-graph executor (plan/executor.h)
/// drive the same virtual operators. Embeddings are arcs: `a` = center
/// angles, `b` = arclengths.
class HalkModel : public QueryModel {
 public:
  /// `grouping` (optional, may be null) enables the group-similarity factor
  /// z_i in the intersection attention (Eq. 10).
  ///
  /// `entity_table` (optional) makes the model serve its entity table out
  /// of external read-only rows (the mmap-backed store's table) instead of
  /// an in-RAM tensor: no [N, d] allocation happens and anchor lookups copy
  /// rows from the table. Either way ranking runs the same table loops.
  /// Store-backed models are serving-only — Parameters() excludes the
  /// entity table (it is not trainable), so operator weights must be
  /// loaded from a snapshot params blob (store::OpenServingModel). The
  /// table must outlive the model.
  HalkModel(const ModelConfig& config, const kg::NodeGrouping* grouping,
            const EntityTable* entity_table = nullptr);

  std::string name() const override { return "HaLk"; }

  tensor::Tensor Distance(const std::vector<int64_t>& entities,
                          const EmbeddingBatch& embedding) override;

  void DistancesToAll(const EmbeddingBatch& embedding, int64_t row,
                      std::vector<float>* out) const override;

  void DistancesToRange(const EmbeddingBatch& embedding, int64_t row,
                        int64_t begin, int64_t end,
                        std::vector<float>* out) const override;

  /// Bound-aware scan through the scan kernel (core/scan_kernel.h): the
  /// arc distance accumulates non-negative per-dimension terms, so a block
  /// of entities is abandoned once every partial sum exceeds the
  /// accumulator's admission bound. Exact — admitted entities carry the
  /// bit-identical full distance.
  void AccumulateTopKRange(const std::vector<BranchRef>& branches,
                           int64_t begin, int64_t end, TopKAccumulator* acc,
                           ScanStats* stats = nullptr) const override;

  /// Codes the in-RAM entity table for the two-stage scan (the filter of
  /// core/scan_filter.h), re-coding only when the angles changed since the
  /// last call; a store-backed table was coded when the store opened. A
  /// model that is never served keeps the one-stage scan.
  void PrepareForServing() override;

  /// Arc-membership threshold: an entity inside the arc on every dimension
  /// has d_o = 0 and d_i <= Σ_d half_width_d, so its distance is at most
  /// η·Σ_d 2ρ|sin(A_l/(4ρ))|. Anchors (zero-length arcs) get 0 — only the
  /// anchor entity itself is a member.
  double MembershipThreshold(const EmbeddingBatch& embedding,
                             int64_t row) const override;

  std::vector<tensor::Tensor> Parameters() const override;

  bool Supports(query::OpType) const override { return true; }

  // --- Operators (public for unit tests, ablations, the pruner, and the
  // --- shared-graph executor via OperatorModel). ---

  /// Anchor entities as zero-length arcs.
  EmbeddingBatch EmbedAnchors(const std::vector<int64_t>& entities) override;

  /// Projection operator, Eqs. (2)-(3). `relations[i]` applies to row i.
  EmbeddingBatch Projection(const EmbeddingBatch& input,
                            const std::vector<int64_t>& relations) override;

  /// Difference operator, Eqs. (4)-(9); `inputs[0]` is the minuend.
  EmbeddingBatch Difference(
      const std::vector<EmbeddingBatch>& inputs) override;

  /// Intersection operator, Eqs. (10)-(12). `z` holds one [B, d] constant
  /// group-similarity tensor per input (empty = all ones).
  EmbeddingBatch Intersection(const std::vector<EmbeddingBatch>& inputs,
                              const std::vector<tensor::Tensor>& z) override;

  /// Negation operator, Eqs. (13)-(14).
  EmbeddingBatch Negation(const EmbeddingBatch& input) override;

  const kg::NodeGrouping* operator_grouping() const override {
    return grouping_;
  }

  const kg::NodeGrouping* grouping() const { return grouping_; }

  /// Raw entity angle table [N, d] (tests/diagnostics). Undefined in
  /// store-backed mode — check store_backed() first.
  const tensor::Tensor& entity_angles() const { return entity_angles_; }

  /// The table every ranking path scans (in-RAM or external).
  const EntityTable& entity_table() const { return *table_; }

  /// True when the entity table lives in external rows instead of
  /// entity_angles_.
  bool store_backed() const { return table_ != &ram_table_; }

 protected:
  /// Entity rows as a [B, d] tensor: autograd Gather from the in-RAM table,
  /// or a plain bit-exact copy out of the external table.
  tensor::Tensor GatherEntityRows(const std::vector<int64_t>& entities) const;

  /// Semantic-average center via attention in rectangular coordinates:
  /// Eqs. (4)-(6) with per-input score tensors.
  tensor::Tensor SemanticAverageCenter(
      const std::vector<EmbeddingBatch>& inputs,
      const std::vector<tensor::Tensor>& scores) const;

  const kg::NodeGrouping* grouping_;  // not owned, may be null
  Rng rng_;

  // Embedding tables.
  tensor::Tensor entity_angles_;  // [N, d], undefined when store-backed
  EntityTable ram_table_;         // one row-major segment over it
  const EntityTable* table_;      // &ram_table_, or the external table
  tensor::Tensor rel_center_;     // [M, d]
  tensor::Tensor rel_length_;     // [M, d]

  // Projection networks (Eq. 2).
  std::unique_ptr<nn::Mlp> proj_center_;
  std::unique_ptr<nn::Mlp> proj_length_;

  // Difference networks (Eqs. 7-9).
  std::unique_ptr<nn::Mlp> diff_att_;
  tensor::Tensor kappa_first_;  // [d] asymmetry weight for the minuend
  tensor::Tensor kappa_rest_;   // [d] shared weight for subtrahends
  std::unique_ptr<nn::DeepSets> diff_sets_;

  // Intersection networks (Eqs. 10-12).
  std::unique_ptr<nn::Mlp> inter_att_;
  std::unique_ptr<nn::DeepSets> inter_sets_;

  // Negation networks (Eq. 14).
  std::unique_ptr<nn::Mlp> neg_t1_;
  std::unique_ptr<nn::Mlp> neg_t2_;
  std::unique_ptr<nn::Mlp> neg_center_;
  std::unique_ptr<nn::Mlp> neg_length_;
};

}  // namespace halk::core

#endif  // HALK_CORE_HALK_MODEL_H_

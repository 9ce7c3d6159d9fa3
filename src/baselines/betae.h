#ifndef HALK_BASELINES_BETAE_H_
#define HALK_BASELINES_BETAE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/query_model.h"
#include "nn/mlp.h"

namespace halk::baselines {

/// BetaE baseline (Ren & Leskovec, NeurIPS 2020) — the probabilistic
/// representative of the paper's second related-work group (Sec. II-C):
/// entities and queries are products of Beta(α, β) distributions,
///   * projection — MLP on (α ‖ β ‖ relation embedding);
///   * intersection — attention-weighted interpolation of parameters
///     (the weighted product of Beta pdfs stays in the family);
///   * negation — the reciprocal map (α, β) → (1/α, 1/β), the *linear*
///     transformation assumption the HaLk paper targets;
///   * no difference operator and no cardinality notion.
/// Distance is the summed KL divergence KL(entity ‖ query).
///
/// Not part of the paper's experimental tables (they compare ConE,
/// NewLook, MLPMix) but included for completeness of the related-work
/// taxonomy; usable anywhere a QueryModel is.
class BetaEModel : public core::QueryModel {
 public:
  BetaEModel(const core::ModelConfig& config,
             const kg::NodeGrouping* grouping);

  std::string name() const override { return "BetaE"; }

  tensor::Tensor Distance(const std::vector<int64_t>& entities,
                          const core::EmbeddingBatch& embedding) override;

  void DistancesToAll(const core::EmbeddingBatch& embedding, int64_t row,
                      std::vector<float>* out) const override;

  std::vector<tensor::Tensor> Parameters() const override;

  bool Supports(query::OpType op) const override {
    return op != query::OpType::kDifference;
  }

  // Operators; EmbeddingBatch.a = α, .b = β (both > kMinParam). No
  // difference: the default OperatorModel::Difference fails.
  core::EmbeddingBatch EmbedAnchors(
      const std::vector<int64_t>& entities) override;
  core::EmbeddingBatch Projection(
      const core::EmbeddingBatch& input,
      const std::vector<int64_t>& relations) override;
  /// Ignores `z`: BetaE has no group-similarity factor.
  core::EmbeddingBatch Intersection(
      const std::vector<core::EmbeddingBatch>& inputs,
      const std::vector<tensor::Tensor>& z) override;
  core::EmbeddingBatch Negation(const core::EmbeddingBatch& input) override;

  /// Lower bound on Beta parameters (keeps KL and its gradients finite).
  static constexpr float kMinParam = 0.05f;

 private:
  /// Maps raw activations to valid Beta parameters: softplus + kMinParam.
  tensor::Tensor Positive(const tensor::Tensor& raw) const;

  Rng rng_;
  tensor::Tensor entity_raw_;  // [N, 2d] raw (pre-softplus) α‖β
  tensor::Tensor rel_vecs_;    // [M, d]
  std::unique_ptr<nn::Mlp> proj_;       // 3d -> 2d
  std::unique_ptr<nn::Mlp> inter_att_;  // 2d -> d attention scores
};

}  // namespace halk::baselines

#endif  // HALK_BASELINES_BETAE_H_

#ifndef HALK_BASELINES_MLPMIX_H_
#define HALK_BASELINES_MLPMIX_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/query_model.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace halk::baselines {

/// MLPMix baseline (Amayuelas et al., ICLR 2022), reimplemented on the
/// shared substrate: a purely non-geometric model — entities and queries
/// are plain vectors, every operator is an MLP mix, negation is a single
/// linear map (the linear transformation assumption), and the L1 distance
/// has no cardinality component. The paper attributes its weakness on
/// logical queries to exactly this lack of answer-set geometry.
class MlpMixModel : public core::QueryModel {
 public:
  MlpMixModel(const core::ModelConfig& config,
              const kg::NodeGrouping* grouping);

  std::string name() const override { return "MLPMix"; }

  tensor::Tensor Distance(const std::vector<int64_t>& entities,
                          const core::EmbeddingBatch& embedding) override;

  void DistancesToAll(const core::EmbeddingBatch& embedding, int64_t row,
                      std::vector<float>* out) const override;

  std::vector<tensor::Tensor> Parameters() const override;

  bool Supports(query::OpType op) const override {
    return op != query::OpType::kDifference;
  }

  // Vector operators; EmbeddingBatch.a is the query vector, .b is zeros.
  // No difference: the default OperatorModel::Difference fails.
  core::EmbeddingBatch EmbedAnchors(
      const std::vector<int64_t>& entities) override;
  core::EmbeddingBatch Projection(
      const core::EmbeddingBatch& input,
      const std::vector<int64_t>& relations) override;
  /// Ignores `z`: MLPMix has no group-similarity factor.
  core::EmbeddingBatch Intersection(
      const std::vector<core::EmbeddingBatch>& inputs,
      const std::vector<tensor::Tensor>& z) override;
  core::EmbeddingBatch Negation(const core::EmbeddingBatch& input) override;

 private:
  Rng rng_;
  tensor::Tensor entity_vecs_;  // [N, d]
  tensor::Tensor rel_vecs_;     // [M, d]
  std::unique_ptr<nn::Mlp> proj_;       // 2d -> d
  std::unique_ptr<nn::Mlp> inter_pre_;  // d -> d
  std::unique_ptr<nn::Mlp> inter_post_; // d -> d
  std::unique_ptr<nn::Linear> neg_;     // linear-only negation
};

}  // namespace halk::baselines

#endif  // HALK_BASELINES_MLPMIX_H_

#ifndef HALK_BASELINES_NEWLOOK_H_
#define HALK_BASELINES_NEWLOOK_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/query_model.h"
#include "nn/deepsets.h"
#include "nn/mlp.h"

namespace halk::baselines {

/// NewLook baseline (Liu et al., KDD 2021), reimplemented on the shared
/// substrate: entities are points in R^d, queries are axis-aligned
/// hyper-rectangles (center, non-negative offset). It supports the
/// difference operator but — as the HaLk paper analyses — its box geometry
/// cannot exactly represent difference regions (the "fixed-lossy" problem)
/// and its overlap features are raw value differences. It has no negation
/// operator (no universal set), giving the '-' cells of Tables III-IV.
class NewLookModel : public core::QueryModel {
 public:
  NewLookModel(const core::ModelConfig& config,
               const kg::NodeGrouping* grouping);

  std::string name() const override { return "NewLook"; }

  tensor::Tensor Distance(const std::vector<int64_t>& entities,
                          const core::EmbeddingBatch& embedding) override;

  void DistancesToAll(const core::EmbeddingBatch& embedding, int64_t row,
                      std::vector<float>* out) const override;

  std::vector<tensor::Tensor> Parameters() const override;

  bool Supports(query::OpType op) const override {
    return op != query::OpType::kNegation;
  }

  // Box operators; EmbeddingBatch.a = center, .b = offset (>= 0). No
  // negation: the default OperatorModel::Negation fails.
  core::EmbeddingBatch EmbedAnchors(
      const std::vector<int64_t>& entities) override;
  core::EmbeddingBatch Projection(
      const core::EmbeddingBatch& input,
      const std::vector<int64_t>& relations) override;
  /// Ignores `z`: NewLook has no group-similarity factor.
  core::EmbeddingBatch Intersection(
      const std::vector<core::EmbeddingBatch>& inputs,
      const std::vector<tensor::Tensor>& z) override;
  core::EmbeddingBatch Difference(
      const std::vector<core::EmbeddingBatch>& inputs) override;

 private:
  Rng rng_;
  tensor::Tensor entity_points_;  // [N, d]
  tensor::Tensor rel_center_;     // [M, d]
  tensor::Tensor rel_offset_;     // [M, d]
  std::unique_ptr<nn::Mlp> proj_;       // 2d -> 2d joint refinement
  std::unique_ptr<nn::Mlp> inter_att_;
  std::unique_ptr<nn::DeepSets> inter_sets_;
  std::unique_ptr<nn::Mlp> diff_att_;
  std::unique_ptr<nn::DeepSets> diff_sets_;
};

}  // namespace halk::baselines

#endif  // HALK_BASELINES_NEWLOOK_H_

#ifndef HALK_BASELINES_CONE_H_
#define HALK_BASELINES_CONE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/query_model.h"
#include "nn/deepsets.h"
#include "nn/mlp.h"

namespace halk::baselines {

/// ConE baseline (Zhang et al., NeurIPS 2021), reimplemented on the shared
/// substrate: entities are angles, queries are cones (axis, aperture) —
/// geometrically equivalent to arcs in 2D. Compared with HaLk it exhibits
/// exactly the deficiencies the paper targets:
///   * projection learns the axis and the aperture *independently* (no
///     coordinated start/end-point pair) — the "semantic gap";
///   * intersection attention averages raw angle values (periodicity
///     unsafe), not rectangular coordinates;
///   * negation is the pure linear antipodal map (no non-linear correction);
///   * no difference operator (the '-' columns in Tables I-II).
class ConeModel : public core::QueryModel {
 public:
  ConeModel(const core::ModelConfig& config,
            const kg::NodeGrouping* grouping);

  std::string name() const override { return "ConE"; }

  tensor::Tensor Distance(const std::vector<int64_t>& entities,
                          const core::EmbeddingBatch& embedding) override;

  void DistancesToAll(const core::EmbeddingBatch& embedding, int64_t row,
                      std::vector<float>* out) const override;

  std::vector<tensor::Tensor> Parameters() const override;

  bool Supports(query::OpType op) const override {
    return op != query::OpType::kDifference;
  }

  // Operators; EmbeddingBatch.a = cone axis, .b = aperture. No
  // difference: the default OperatorModel::Difference fails.
  core::EmbeddingBatch EmbedAnchors(
      const std::vector<int64_t>& entities) override;
  core::EmbeddingBatch Projection(
      const core::EmbeddingBatch& input,
      const std::vector<int64_t>& relations) override;
  /// Ignores `z`: ConE has no group-similarity factor.
  core::EmbeddingBatch Intersection(
      const std::vector<core::EmbeddingBatch>& inputs,
      const std::vector<tensor::Tensor>& z) override;
  core::EmbeddingBatch Negation(const core::EmbeddingBatch& input) override;

 private:
  Rng rng_;
  tensor::Tensor entity_angles_;  // [N, d]
  tensor::Tensor rel_axis_;       // [M, d]
  tensor::Tensor rel_aperture_;   // [M, d]
  std::unique_ptr<nn::Mlp> proj_axis_;      // d -> d (axis only)
  std::unique_ptr<nn::Mlp> proj_aperture_;  // d -> d (aperture only)
  std::unique_ptr<nn::Mlp> inter_att_;
  std::unique_ptr<nn::DeepSets> inter_sets_;
};

}  // namespace halk::baselines

#endif  // HALK_BASELINES_CONE_H_

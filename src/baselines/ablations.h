#ifndef HALK_BASELINES_ABLATIONS_H_
#define HALK_BASELINES_ABLATIONS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/halk_model.h"

namespace halk::baselines {

/// HaLk-V1 (Table V, difference ablation): the HaLk difference operator's
/// chord-length overlap computation is replaced with NewLook's raw-value
/// overlap, and the cardinality constraint (A_l bounded by the minuend) is
/// removed — the arclength is free in [0, 2πρ].
class HalkV1Model : public core::HalkModel {
 public:
  HalkV1Model(const core::ModelConfig& config,
              const kg::NodeGrouping* grouping);
  std::string name() const override { return "HaLk-V1"; }
  core::EmbeddingBatch Difference(
      const std::vector<core::EmbeddingBatch>& inputs) override;
  std::vector<tensor::Tensor> Parameters() const override;

 private:
  std::unique_ptr<nn::DeepSets> v1_sets_;
};

/// HaLk-V2 (Table V, negation ablation): negation degraded to the pure
/// linear transformation assumption (antipodal center, complementary
/// length) with no non-linear correction — the ConE/BetaE/MLPMix scheme.
class HalkV2Model : public core::HalkModel {
 public:
  HalkV2Model(const core::ModelConfig& config,
              const kg::NodeGrouping* grouping);
  std::string name() const override { return "HaLk-V2"; }
  core::EmbeddingBatch Negation(const core::EmbeddingBatch& input) override;
};

/// HaLk-V3 (Table V, projection ablation): the coordinated start/end-point
/// pair is replaced by NewLook/ConE-style projection that refines center
/// and arclength independently.
class HalkV3Model : public core::HalkModel {
 public:
  HalkV3Model(const core::ModelConfig& config,
              const kg::NodeGrouping* grouping);
  std::string name() const override { return "HaLk-V3"; }
  core::EmbeddingBatch Projection(
      const core::EmbeddingBatch& input,
      const std::vector<int64_t>& relations) override;
  std::vector<tensor::Tensor> Parameters() const override;

 private:
  std::unique_ptr<nn::Mlp> v3_center_;  // d -> d, center only
  std::unique_ptr<nn::Mlp> v3_length_;  // d -> d, length only
};

}  // namespace halk::baselines

#endif  // HALK_BASELINES_ABLATIONS_H_

#include "baselines/ablations.h"

#include "common/logging.h"
#include "nn/attention.h"

namespace halk::baselines {

using core::EmbeddingBatch;
using tensor::Tensor;

namespace {
constexpr float kTwoPi = 6.283185307179586f;
}  // namespace

HalkV1Model::HalkV1Model(const core::ModelConfig& config,
                         const kg::NodeGrouping* grouping)
    : HalkModel(config, grouping) {
  v1_sets_ = std::make_unique<nn::DeepSets>(
      std::vector<int64_t>{2 * config.dim, config.hidden},
      std::vector<int64_t>{config.hidden, config.dim}, &rng_);
}

EmbeddingBatch HalkV1Model::Difference(
    const std::vector<EmbeddingBatch>& inputs) {
  HALK_CHECK_GE(inputs.size(), 2u);
  // Centers: same attention machinery as HaLk.
  std::vector<Tensor> scores;
  for (size_t i = 0; i < inputs.size(); ++i) {
    Tensor base = diff_att_->Forward(StartEndPair(inputs[i], config_.rho));
    const Tensor& kappa = (i == 0) ? kappa_first_ : kappa_rest_;
    scores.push_back(tensor::Mul(base, kappa));
  }
  Tensor center = SemanticAverageCenter(inputs, scores);

  // NewLook-style raw-value overlap features — periodicity-unaware — and
  // no cardinality constraint: the length is free in [0, 2πρ].
  std::vector<Tensor> features;
  for (size_t j = 1; j < inputs.size(); ++j) {
    features.push_back(tensor::Concat(
        {tensor::Sub(inputs[0].a, inputs[j].a),
         tensor::Sub(inputs[0].b, inputs[j].b)},
        1));
  }
  Tensor length = tensor::MulScalar(
      tensor::Sigmoid(v1_sets_->Forward(features)), kTwoPi * config_.rho);
  return {center, length};
}

std::vector<Tensor> HalkV1Model::Parameters() const {
  std::vector<Tensor> out = HalkModel::Parameters();
  for (const Tensor& p : v1_sets_->Parameters()) out.push_back(p);
  return out;
}

HalkV2Model::HalkV2Model(const core::ModelConfig& config,
                         const kg::NodeGrouping* grouping)
    : HalkModel(config, grouping) {}

EmbeddingBatch HalkV2Model::Negation(const EmbeddingBatch& input) {
  // Eq. (13) only — the linear transformation, no Eq. (14) correction.
  Tensor center = tensor::Mod2Pi(
      tensor::AddScalar(input.a, kTwoPi / 2.0f));
  Tensor length = tensor::AddScalar(tensor::Neg(input.b),
                                    kTwoPi * config_.rho);
  return {center, length};
}

HalkV3Model::HalkV3Model(const core::ModelConfig& config,
                         const kg::NodeGrouping* grouping)
    : HalkModel(config, grouping) {
  v3_center_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{config.dim, config.hidden, config.dim}, &rng_);
  v3_length_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{config.dim, config.hidden, config.dim}, &rng_);
  // Zero-initialized residual heads (see HalkModel).
  v3_center_->ZeroInitFinalLayer();
  v3_length_->ZeroInitFinalLayer();
}

EmbeddingBatch HalkV3Model::Projection(
    const EmbeddingBatch& input, const std::vector<int64_t>& relations) {
  constexpr float kPi = 3.14159265358979f;
  Tensor r_center = tensor::Gather(rel_center_, relations);
  Tensor r_length = tensor::Gather(rel_length_, relations);
  Tensor approx_center = tensor::Add(input.a, r_center);
  Tensor approx_length = tensor::Add(input.b, r_length);
  // Center and length refined independently of each other — no start/end
  // coordination (same residual parameterization as the full model, minus
  // the coordinated pair).
  Tensor center = tensor::Mod2Pi(tensor::Add(
      approx_center,
      tensor::MulScalar(
          tensor::Tanh(tensor::MulScalar(v3_center_->Forward(approx_center),
                                         config_.lambda)),
          kPi)));
  Tensor length = tensor::Clamp(
      tensor::Add(approx_length,
                  tensor::MulScalar(
                      tensor::Tanh(v3_length_->Forward(approx_length)),
                      kPi / 4.0f)),
      0.0f, 2.0f * kPi * config_.rho);
  return {center, length};
}

std::vector<Tensor> HalkV3Model::Parameters() const {
  std::vector<Tensor> out = HalkModel::Parameters();
  for (const Tensor& p : v3_center_->Parameters()) out.push_back(p);
  for (const Tensor& p : v3_length_->Parameters()) out.push_back(p);
  return out;
}

}  // namespace halk::baselines

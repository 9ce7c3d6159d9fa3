#include "baselines/cone.h"

#include "common/logging.h"
#include "core/distance.h"
#include "nn/attention.h"
#include "nn/init.h"

namespace halk::baselines {

using core::EmbeddingBatch;
using tensor::Tensor;

namespace {
constexpr float kPi = 3.14159265358979f;
constexpr float kTwoPi = 2.0f * kPi;
}  // namespace

ConeModel::ConeModel(const core::ModelConfig& config,
                     const kg::NodeGrouping* /*grouping*/)
    : QueryModel(config), rng_(config.seed) {
  const int64_t d = config.dim;
  const int64_t h = config.hidden;
  entity_angles_ = Tensor::Zeros({config.num_entities, d});
  nn::UniformInit(&entity_angles_, 0.0f, kTwoPi, &rng_);
  entity_angles_.set_requires_grad(true);
  rel_axis_ = Tensor::Zeros({config.num_relations, d});
  nn::UniformInit(&rel_axis_, -kPi, kPi, &rng_);
  rel_axis_.set_requires_grad(true);
  rel_aperture_ = Tensor::Zeros({config.num_relations, d});
  nn::UniformInit(&rel_aperture_, 0.0f, 0.02f, &rng_);
  rel_aperture_.set_requires_grad(true);

  proj_axis_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{d, h, d}, &rng_);
  proj_aperture_ =
      std::make_unique<nn::Mlp>(std::vector<int64_t>{d, h, d}, &rng_);
  // Zero-initialized residual heads (see HalkModel).
  proj_axis_->ZeroInitFinalLayer();
  proj_aperture_->ZeroInitFinalLayer();
  inter_att_ =
      std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * d, h, d}, &rng_);
  inter_sets_ = std::make_unique<nn::DeepSets>(std::vector<int64_t>{2 * d, h},
                                               std::vector<int64_t>{h, d},
                                               &rng_);
}

EmbeddingBatch ConeModel::EmbedAnchors(const std::vector<int64_t>& entities) {
  Tensor center = tensor::Gather(entity_angles_, entities);
  Tensor length =
      Tensor::Zeros({static_cast<int64_t>(entities.size()), config_.dim});
  return {center, length};
}

EmbeddingBatch ConeModel::Projection(const EmbeddingBatch& input,
                                     const std::vector<int64_t>& relations) {
  constexpr float kPi = 3.14159265358979f;
  Tensor axis = tensor::Add(input.a, tensor::Gather(rel_axis_, relations));
  Tensor aperture =
      tensor::Add(input.b, tensor::Gather(rel_aperture_, relations));
  // Axis and aperture are refined *independently* (bounded residuals fed
  // only their own component) — the decoupling the HaLk paper identifies
  // as a source of cascading error.
  Tensor new_axis = tensor::Mod2Pi(tensor::Add(
      axis, tensor::MulScalar(
                tensor::Tanh(tensor::MulScalar(proj_axis_->Forward(axis),
                                               config_.lambda)),
                kPi)));
  Tensor new_aperture = tensor::Clamp(
      tensor::Add(aperture,
                  tensor::MulScalar(
                      tensor::Tanh(proj_aperture_->Forward(aperture)),
                      kPi / 4.0f)),
      0.0f, 2.0f * kPi * config_.rho);
  return {new_axis, new_aperture};
}

EmbeddingBatch ConeModel::Intersection(
    const std::vector<EmbeddingBatch>& inputs,
    const std::vector<Tensor>& /*z*/) {
  HALK_CHECK_GE(inputs.size(), 2u);
  std::vector<Tensor> scores;
  for (const EmbeddingBatch& in : inputs) {
    scores.push_back(
        inter_att_->Forward(tensor::Concat({in.a, in.b}, 1)));
  }
  std::vector<Tensor> weights = nn::SoftmaxAcross(scores);
  // Raw-value angle averaging (periodicity-unsafe, per the paper's
  // critique of rotation baselines).
  Tensor axis;
  for (size_t i = 0; i < inputs.size(); ++i) {
    Tensor term = tensor::Mul(weights[i], inputs[i].a);
    axis = axis.defined() ? tensor::Add(axis, term) : term;
  }
  Tensor min_aperture = inputs[0].b;
  for (size_t i = 1; i < inputs.size(); ++i) {
    min_aperture = tensor::Minimum(min_aperture, inputs[i].b);
  }
  std::vector<Tensor> pairs;
  for (const EmbeddingBatch& in : inputs) {
    pairs.push_back(tensor::Concat({in.a, in.b}, 1));
  }
  Tensor aperture = tensor::Mul(
      min_aperture, tensor::Sigmoid(inter_sets_->Forward(pairs)));
  return {axis, aperture};
}

EmbeddingBatch ConeModel::Negation(const EmbeddingBatch& input) {
  // Pure linear transformation assumption: antipodal axis, complementary
  // aperture, no learned correction.
  Tensor axis = tensor::Mod2Pi(tensor::AddScalar(input.a, kPi));
  Tensor aperture = tensor::AddScalar(tensor::Neg(input.b),
                                      kTwoPi * config_.rho);
  return {axis, aperture};
}

Tensor ConeModel::Distance(const std::vector<int64_t>& entities,
                           const EmbeddingBatch& embedding) {
  Tensor points = tensor::Gather(entity_angles_, entities);
  return core::ArcDistance(points, embedding, config_.rho, config_.eta);
}

void ConeModel::DistancesToAll(const EmbeddingBatch& embedding, int64_t row,
                               std::vector<float>* out) const {
  const int64_t d = config_.dim;
  const core::ArcConstants arc = core::MakeArcConstants(
      embedding.a.data() + row * d, embedding.b.data() + row * d, d,
      config_.rho, config_.eta);
  out->resize(static_cast<size_t>(config_.num_entities));
  core::EntityTable::RowMajor(entity_angles_.data(), config_.num_entities, d)
      .Distances(arc, 0, config_.num_entities, out->data());
}

std::vector<Tensor> ConeModel::Parameters() const {
  std::vector<Tensor> out = {entity_angles_, rel_axis_, rel_aperture_};
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(proj_axis_.get()),
        static_cast<const nn::Module*>(proj_aperture_.get()),
        static_cast<const nn::Module*>(inter_att_.get()),
        static_cast<const nn::Module*>(inter_sets_.get())}) {
    for (const Tensor& p : m->Parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace halk::baselines

#include "baselines/betae.h"

#include <cmath>

#include "common/logging.h"
#include "nn/attention.h"
#include "nn/init.h"

namespace halk::baselines {

using core::EmbeddingBatch;
using tensor::Tensor;

BetaEModel::BetaEModel(const core::ModelConfig& config,
                       const kg::NodeGrouping* /*grouping*/)
    : QueryModel(config), rng_(config.seed) {
  const int64_t d = config.dim;
  const int64_t h = config.hidden;
  // Raw ~ softplus^-1(1): parameters start near Beta(1, 1) = uniform.
  entity_raw_ = Tensor::Zeros({config.num_entities, 2 * d});
  nn::UniformInit(&entity_raw_, 0.2f, 0.9f, &rng_);
  entity_raw_.set_requires_grad(true);
  rel_vecs_ = Tensor::Zeros({config.num_relations, d});
  nn::UniformInit(&rel_vecs_, -0.5f, 0.5f, &rng_);
  rel_vecs_.set_requires_grad(true);
  proj_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{3 * d, h, 2 * d},
                                    &rng_);
  inter_att_ =
      std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * d, h, d}, &rng_);
}

Tensor BetaEModel::Positive(const Tensor& raw) const {
  return tensor::AddScalar(tensor::Softplus(raw), kMinParam);
}

EmbeddingBatch BetaEModel::EmbedAnchors(
    const std::vector<int64_t>& entities) {
  Tensor raw = tensor::Gather(entity_raw_, entities);
  Tensor alpha = Positive(tensor::SliceCols(raw, 0, config_.dim));
  Tensor beta = Positive(tensor::SliceCols(raw, config_.dim, 2 * config_.dim));
  return {alpha, beta};
}

EmbeddingBatch BetaEModel::Projection(const EmbeddingBatch& input,
                                      const std::vector<int64_t>& relations) {
  Tensor rel = tensor::Gather(rel_vecs_, relations);
  Tensor raw = proj_->Forward(tensor::Concat({input.a, input.b, rel}, 1));
  Tensor alpha = Positive(tensor::SliceCols(raw, 0, config_.dim));
  Tensor beta = Positive(tensor::SliceCols(raw, config_.dim, 2 * config_.dim));
  return {alpha, beta};
}

EmbeddingBatch BetaEModel::Intersection(
    const std::vector<EmbeddingBatch>& inputs,
    const std::vector<Tensor>& /*z*/) {
  HALK_CHECK_GE(inputs.size(), 2u);
  std::vector<Tensor> scores;
  for (const EmbeddingBatch& in : inputs) {
    scores.push_back(inter_att_->Forward(tensor::Concat({in.a, in.b}, 1)));
  }
  std::vector<Tensor> weights = nn::SoftmaxAcross(scores);
  Tensor alpha;
  Tensor beta;
  for (size_t i = 0; i < inputs.size(); ++i) {
    Tensor ta = tensor::Mul(weights[i], inputs[i].a);
    Tensor tb = tensor::Mul(weights[i], inputs[i].b);
    alpha = alpha.defined() ? tensor::Add(alpha, ta) : ta;
    beta = beta.defined() ? tensor::Add(beta, tb) : tb;
  }
  return {alpha, beta};
}

EmbeddingBatch BetaEModel::Negation(const EmbeddingBatch& input) {
  // The reciprocal map of the BetaE paper: 1/α, 1/β — turns density peaks
  // into troughs. Parameters stay positive by construction.
  Tensor one_a = tensor::Div(Tensor::Full({1}, 1.0f), input.a);
  Tensor one_b = tensor::Div(Tensor::Full({1}, 1.0f), input.b);
  return {one_a, one_b};
}

Tensor BetaEModel::Distance(const std::vector<int64_t>& entities,
                            const EmbeddingBatch& embedding) {
  // Summed per-dimension KL(entity ‖ query):
  //   KL(B(a1,b1)‖B(a2,b2)) = lnB(a2,b2) − lnB(a1,b1)
  //     + (a1−a2)ψ(a1) + (b1−b2)ψ(b1) + (a2−a1+b2−b1)ψ(a1+b1).
  EmbeddingBatch e = EmbedAnchors(entities);
  Tensor a1 = e.a;
  Tensor b1 = e.b;
  const Tensor& a2 = embedding.a;
  const Tensor& b2 = embedding.b;
  auto log_beta = [](const Tensor& a, const Tensor& b) {
    return tensor::Sub(tensor::Add(tensor::Lgamma(a), tensor::Lgamma(b)),
                       tensor::Lgamma(tensor::Add(a, b)));
  };
  Tensor kl = tensor::Sub(log_beta(a2, b2), log_beta(a1, b1));
  kl = tensor::Add(kl, tensor::Mul(tensor::Sub(a1, a2), tensor::Digamma(a1)));
  kl = tensor::Add(kl, tensor::Mul(tensor::Sub(b1, b2), tensor::Digamma(b1)));
  Tensor cross = tensor::Add(tensor::Sub(a2, a1), tensor::Sub(b2, b1));
  kl = tensor::Add(kl,
                   tensor::Mul(cross, tensor::Digamma(tensor::Add(a1, b1))));
  return tensor::SumDim(kl, 1);
}

void BetaEModel::DistancesToAll(const EmbeddingBatch& embedding, int64_t row,
                                std::vector<float>* out) const {
  const int64_t d = config_.dim;
  const float* qa = embedding.a.data() + row * d;
  const float* qb = embedding.b.data() + row * d;
  const float* raw = entity_raw_.data();
  out->resize(static_cast<size_t>(config_.num_entities));
  auto softplus = [](float x) {
    const float m = x > 0.0f ? x : 0.0f;
    return m + std::log1p(std::exp(-std::fabs(x))) + kMinParam;
  };
  std::vector<float> log_beta_q(static_cast<size_t>(d));
  for (int64_t i = 0; i < d; ++i) {
    log_beta_q[static_cast<size_t>(i)] =
        tensor::special::LgammaScalar(qa[i]) +
        tensor::special::LgammaScalar(qb[i]) -
        tensor::special::LgammaScalar(qa[i] + qb[i]);
  }
  for (int64_t e = 0; e < config_.num_entities; ++e) {
    const float* r = raw + e * 2 * d;
    float total = 0.0f;
    for (int64_t i = 0; i < d; ++i) {
      const float a1 = softplus(r[i]);
      const float b1 = softplus(r[d + i]);
      const float log_beta_e =
          tensor::special::LgammaScalar(a1) +
          tensor::special::LgammaScalar(b1) -
          tensor::special::LgammaScalar(a1 + b1);
      total += log_beta_q[static_cast<size_t>(i)] - log_beta_e +
               (a1 - qa[i]) * tensor::special::DigammaScalar(a1) +
               (b1 - qb[i]) * tensor::special::DigammaScalar(b1) +
               (qa[i] - a1 + qb[i] - b1) *
                   tensor::special::DigammaScalar(a1 + b1);
    }
    (*out)[static_cast<size_t>(e)] = total;
  }
}

std::vector<Tensor> BetaEModel::Parameters() const {
  std::vector<Tensor> out = {entity_raw_, rel_vecs_};
  for (const Tensor& p : proj_->Parameters()) out.push_back(p);
  for (const Tensor& p : inter_att_->Parameters()) out.push_back(p);
  return out;
}

}  // namespace halk::baselines

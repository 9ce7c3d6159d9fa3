#include "baselines/newlook.h"

#include <cmath>

#include "common/logging.h"
#include "nn/attention.h"
#include "nn/init.h"

namespace halk::baselines {

using core::EmbeddingBatch;
using tensor::Tensor;

NewLookModel::NewLookModel(const core::ModelConfig& config,
                           const kg::NodeGrouping* /*grouping*/)
    : QueryModel(config), rng_(config.seed) {
  const int64_t d = config.dim;
  const int64_t h = config.hidden;
  entity_points_ = Tensor::Zeros({config.num_entities, d});
  nn::UniformInit(&entity_points_, -1.0f, 1.0f, &rng_);
  entity_points_.set_requires_grad(true);
  rel_center_ = Tensor::Zeros({config.num_relations, d});
  nn::UniformInit(&rel_center_, -0.5f, 0.5f, &rng_);
  rel_center_.set_requires_grad(true);
  rel_offset_ = Tensor::Zeros({config.num_relations, d});
  nn::UniformInit(&rel_offset_, 0.0f, 0.02f, &rng_);
  rel_offset_.set_requires_grad(true);

  proj_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * d, h, 2 * d},
                                    &rng_);
  // Zero-initialized residual head: projection starts as a pure box
  // translation (see HalkModel for the rationale).
  proj_->ZeroInitFinalLayer();
  inter_att_ =
      std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * d, h, d}, &rng_);
  inter_sets_ = std::make_unique<nn::DeepSets>(std::vector<int64_t>{2 * d, h},
                                               std::vector<int64_t>{h, d},
                                               &rng_);
  diff_att_ =
      std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * d, h, d}, &rng_);
  diff_sets_ = std::make_unique<nn::DeepSets>(std::vector<int64_t>{2 * d, h},
                                              std::vector<int64_t>{h, d},
                                              &rng_);
}

EmbeddingBatch NewLookModel::EmbedAnchors(
    const std::vector<int64_t>& entities) {
  Tensor center = tensor::Gather(entity_points_, entities);
  Tensor offset =
      Tensor::Zeros({static_cast<int64_t>(entities.size()), config_.dim});
  return {center, offset};
}

EmbeddingBatch NewLookModel::Projection(
    const EmbeddingBatch& input, const std::vector<int64_t>& relations) {
  Tensor center = tensor::Add(input.a, tensor::Gather(rel_center_, relations));
  Tensor offset = tensor::Add(input.b, tensor::Gather(rel_offset_, relations));
  Tensor correction = proj_->Forward(tensor::Concat({center, offset}, 1));
  Tensor new_center =
      tensor::Add(center, tensor::SliceCols(correction, 0, config_.dim));
  Tensor new_offset = tensor::Abs(tensor::Add(
      offset,
      tensor::SliceCols(correction, config_.dim, 2 * config_.dim)));
  return {new_center, new_offset};
}

EmbeddingBatch NewLookModel::Intersection(
    const std::vector<EmbeddingBatch>& inputs,
    const std::vector<Tensor>& /*z*/) {
  HALK_CHECK_GE(inputs.size(), 2u);
  std::vector<Tensor> scores;
  for (const EmbeddingBatch& in : inputs) {
    scores.push_back(inter_att_->Forward(tensor::Concat({in.a, in.b}, 1)));
  }
  std::vector<Tensor> weights = nn::SoftmaxAcross(scores);
  Tensor center;
  for (size_t i = 0; i < inputs.size(); ++i) {
    Tensor term = tensor::Mul(weights[i], inputs[i].a);
    center = center.defined() ? tensor::Add(center, term) : term;
  }
  Tensor min_offset = inputs[0].b;
  for (size_t i = 1; i < inputs.size(); ++i) {
    min_offset = tensor::Minimum(min_offset, inputs[i].b);
  }
  std::vector<Tensor> pairs;
  for (const EmbeddingBatch& in : inputs) {
    pairs.push_back(tensor::Concat({in.a, in.b}, 1));
  }
  Tensor offset =
      tensor::Mul(min_offset, tensor::Sigmoid(inter_sets_->Forward(pairs)));
  return {center, offset};
}

EmbeddingBatch NewLookModel::Difference(
    const std::vector<EmbeddingBatch>& inputs) {
  HALK_CHECK_GE(inputs.size(), 2u);
  // Attention biased to the minuend via doubled score; raw-value overlap
  // features (c_1 - c_j, o_1 - o_j) — the approximation the HaLk ablation
  // HaLk-V1 reproduces on the arc backbone.
  std::vector<Tensor> scores;
  for (size_t i = 0; i < inputs.size(); ++i) {
    Tensor s = diff_att_->Forward(tensor::Concat({inputs[i].a, inputs[i].b}, 1));
    scores.push_back(i == 0 ? tensor::MulScalar(s, 2.0f) : s);
  }
  std::vector<Tensor> weights = nn::SoftmaxAcross(scores);
  Tensor center;
  for (size_t i = 0; i < inputs.size(); ++i) {
    Tensor term = tensor::Mul(weights[i], inputs[i].a);
    center = center.defined() ? tensor::Add(center, term) : term;
  }
  std::vector<Tensor> features;
  for (size_t j = 1; j < inputs.size(); ++j) {
    features.push_back(tensor::Concat(
        {tensor::Sub(inputs[0].a, inputs[j].a),
         tensor::Sub(inputs[0].b, inputs[j].b)},
        1));
  }
  Tensor offset =
      tensor::Mul(inputs[0].b, tensor::Sigmoid(diff_sets_->Forward(features)));
  return {center, offset};
}

Tensor NewLookModel::Distance(const std::vector<int64_t>& entities,
                              const EmbeddingBatch& embedding) {
  // Query2Box-style box distance: d_out + η·d_in.
  Tensor points = tensor::Gather(entity_points_, entities);
  Tensor delta = tensor::Abs(tensor::Sub(points, embedding.a));
  Tensor outside = tensor::Relu(tensor::Sub(delta, embedding.b));
  Tensor inside = tensor::Minimum(delta, embedding.b);
  return tensor::Add(tensor::SumDim(outside, 1),
                     tensor::MulScalar(tensor::SumDim(inside, 1),
                                       config_.eta));
}

void NewLookModel::DistancesToAll(const EmbeddingBatch& embedding,
                                  int64_t row, std::vector<float>* out) const {
  const int64_t d = config_.dim;
  const float* center = embedding.a.data() + row * d;
  const float* offset = embedding.b.data() + row * d;
  const float* table = entity_points_.data();
  out->resize(static_cast<size_t>(config_.num_entities));
  for (int64_t e = 0; e < config_.num_entities; ++e) {
    const float* p = table + e * d;
    float d_out = 0.0f;
    float d_in = 0.0f;
    for (int64_t i = 0; i < d; ++i) {
      const float delta = std::fabs(p[i] - center[i]);
      d_out += std::max(delta - offset[i], 0.0f);
      d_in += std::min(delta, offset[i]);
    }
    (*out)[static_cast<size_t>(e)] = d_out + config_.eta * d_in;
  }
}

std::vector<Tensor> NewLookModel::Parameters() const {
  std::vector<Tensor> out = {entity_points_, rel_center_, rel_offset_};
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(proj_.get()),
        static_cast<const nn::Module*>(inter_att_.get()),
        static_cast<const nn::Module*>(inter_sets_.get()),
        static_cast<const nn::Module*>(diff_att_.get()),
        static_cast<const nn::Module*>(diff_sets_.get())}) {
    for (const Tensor& p : m->Parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace halk::baselines

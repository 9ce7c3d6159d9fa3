#include "baselines/mlpmix.h"

#include <cmath>

#include "common/logging.h"
#include "nn/init.h"

namespace halk::baselines {

using core::EmbeddingBatch;
using tensor::Tensor;

namespace {

// MLPMix embeddings are plain vectors; the second component stays zero.
EmbeddingBatch WithZeros(const Tensor& vec) {
  return {vec, Tensor::Zeros({vec.shape().dim(0), vec.shape().dim(1)})};
}

}  // namespace

MlpMixModel::MlpMixModel(const core::ModelConfig& config,
                         const kg::NodeGrouping* /*grouping*/)
    : QueryModel(config), rng_(config.seed) {
  const int64_t d = config.dim;
  const int64_t h = config.hidden;
  entity_vecs_ = Tensor::Zeros({config.num_entities, d});
  nn::UniformInit(&entity_vecs_, -1.0f, 1.0f, &rng_);
  entity_vecs_.set_requires_grad(true);
  rel_vecs_ = Tensor::Zeros({config.num_relations, d});
  nn::UniformInit(&rel_vecs_, -1.0f, 1.0f, &rng_);
  rel_vecs_.set_requires_grad(true);
  proj_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{2 * d, h, d}, &rng_);
  inter_pre_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{d, h}, &rng_);
  inter_post_ = std::make_unique<nn::Mlp>(std::vector<int64_t>{h, d}, &rng_);
  neg_ = std::make_unique<nn::Linear>(d, d, &rng_);
}

EmbeddingBatch MlpMixModel::EmbedAnchors(
    const std::vector<int64_t>& entities) {
  return WithZeros(tensor::Gather(entity_vecs_, entities));
}

EmbeddingBatch MlpMixModel::Projection(const EmbeddingBatch& input,
                                       const std::vector<int64_t>& relations) {
  Tensor rel = tensor::Gather(rel_vecs_, relations);
  return WithZeros(proj_->Forward(tensor::Concat({input.a, rel}, 1)));
}

EmbeddingBatch MlpMixModel::Intersection(
    const std::vector<EmbeddingBatch>& inputs,
    const std::vector<Tensor>& /*z*/) {
  HALK_CHECK_GE(inputs.size(), 2u);
  Tensor acc;
  for (const EmbeddingBatch& in : inputs) {
    Tensor h = inter_pre_->Forward(in.a);
    acc = acc.defined() ? tensor::Add(acc, h) : h;
  }
  acc = tensor::MulScalar(acc, 1.0f / static_cast<float>(inputs.size()));
  return WithZeros(inter_post_->Forward(acc));
}

EmbeddingBatch MlpMixModel::Negation(const EmbeddingBatch& input) {
  // The linear transformation assumption, verbatim.
  return WithZeros(neg_->Forward(input.a));
}

Tensor MlpMixModel::Distance(const std::vector<int64_t>& entities,
                             const EmbeddingBatch& embedding) {
  Tensor points = tensor::Gather(entity_vecs_, entities);
  return tensor::SumDim(tensor::Abs(tensor::Sub(points, embedding.a)), 1);
}

void MlpMixModel::DistancesToAll(const EmbeddingBatch& embedding, int64_t row,
                                 std::vector<float>* out) const {
  const int64_t d = config_.dim;
  const float* q = embedding.a.data() + row * d;
  const float* table = entity_vecs_.data();
  out->resize(static_cast<size_t>(config_.num_entities));
  for (int64_t e = 0; e < config_.num_entities; ++e) {
    const float* p = table + e * d;
    float acc = 0.0f;
    for (int64_t i = 0; i < d; ++i) acc += std::fabs(p[i] - q[i]);
    (*out)[static_cast<size_t>(e)] = acc;
  }
}

std::vector<Tensor> MlpMixModel::Parameters() const {
  std::vector<Tensor> out = {entity_vecs_, rel_vecs_};
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(proj_.get()),
        static_cast<const nn::Module*>(inter_pre_.get()),
        static_cast<const nn::Module*>(inter_post_.get()),
        static_cast<const nn::Module*>(neg_.get())}) {
    for (const Tensor& p : m->Parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace halk::baselines

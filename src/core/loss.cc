#include "core/loss.h"

#include "common/logging.h"
#include "tensor/ops.h"

namespace halk::core {

using tensor::Tensor;

Tensor NegativeSamplingLoss(QueryModel* model, const EmbeddingBatch& embedding,
                            const LossBatch& batch) {
  const int64_t b = embedding.a.shape().dim(0);
  HALK_CHECK_EQ(static_cast<int64_t>(batch.positives.size()), b);
  HALK_CHECK_EQ(static_cast<int64_t>(batch.negatives.size()), b);
  HALK_CHECK_EQ(static_cast<int64_t>(batch.positive_penalty.size()), b);
  const size_t m = batch.negatives[0].size();
  HALK_CHECK_GT(m, 0u);

  const float gamma = model->config().gamma;
  const float xi = model->config().xi;

  // Positive term: softplus(-(γ - d_pos - ξ·pen_pos)).
  Tensor d_pos = model->Distance(batch.positives, embedding);
  std::vector<float> pos_pen(batch.positive_penalty);
  for (float& p : pos_pen) p *= xi;
  Tensor pos_arg = tensor::Sub(
      tensor::AddScalar(tensor::Neg(d_pos), gamma),
      Tensor::FromVector({b}, pos_pen));
  Tensor loss = tensor::Softplus(tensor::Neg(pos_arg));

  // Negative terms: mean over m of softplus(-(d_neg + ξ·pen_neg - γ)).
  Tensor neg_sum;
  for (size_t j = 0; j < m; ++j) {
    std::vector<int64_t> entities(static_cast<size_t>(b));
    std::vector<float> pen(static_cast<size_t>(b), 0.0f);
    for (int64_t i = 0; i < b; ++i) {
      HALK_CHECK_EQ(batch.negatives[static_cast<size_t>(i)].size(), m);
      entities[static_cast<size_t>(i)] =
          batch.negatives[static_cast<size_t>(i)][j];
      pen[static_cast<size_t>(i)] =
          xi * batch.negative_penalty[static_cast<size_t>(i)][j];
    }
    Tensor d_neg = model->Distance(entities, embedding);
    Tensor neg_arg = tensor::AddScalar(
        tensor::Add(d_neg, Tensor::FromVector({b}, pen)), -gamma);
    Tensor term = tensor::Softplus(tensor::Neg(neg_arg));
    neg_sum = neg_sum.defined() ? tensor::Add(neg_sum, term) : term;
  }
  loss = tensor::Add(
      loss, tensor::MulScalar(neg_sum, 1.0f / static_cast<float>(m)));
  return tensor::MeanAll(loss);
}

}  // namespace halk::core

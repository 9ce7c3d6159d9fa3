#include "core/arc.h"

#include "common/logging.h"

namespace halk::core {

using tensor::Tensor;

Tensor StartPoint(const EmbeddingBatch& arc, float rho) {
  return tensor::Sub(arc.a,
                     tensor::MulScalar(arc.b, 1.0f / (2.0f * rho)));
}

Tensor EndPoint(const EmbeddingBatch& arc, float rho) {
  return tensor::Add(arc.a,
                     tensor::MulScalar(arc.b, 1.0f / (2.0f * rho)));
}

Tensor StartEndPair(const EmbeddingBatch& arc, float rho) {
  return tensor::Concat({StartPoint(arc, rho), EndPoint(arc, rho)}, 1);
}

Tensor GFunction(const Tensor& x, float lambda) {
  constexpr float kPi = 3.14159265358979f;
  return tensor::AddScalar(
      tensor::MulScalar(tensor::Tanh(tensor::MulScalar(x, lambda)), kPi), kPi);
}

Tensor ChordLength(const Tensor& a, const Tensor& b, float rho) {
  return tensor::MulScalar(
      tensor::Abs(tensor::Sin(tensor::MulScalar(tensor::Sub(a, b), 0.5f))),
      2.0f * rho);
}

}  // namespace halk::core

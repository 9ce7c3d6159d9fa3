#ifndef HALK_TENSOR_OPS_H_
#define HALK_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace halk::tensor {

// All ops are differentiable (reverse-mode) unless noted. Binary elementwise
// ops support limited broadcasting:
//   * identical shapes;
//   * either operand a scalar (numel == 1);
//   * a `[B, d]` matrix with a `[d]` row vector (broadcast over rows).

/// a + b.
Tensor Add(const Tensor& a, const Tensor& b);
/// a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
/// a * b (elementwise).
Tensor Mul(const Tensor& a, const Tensor& b);
/// a / b (elementwise). b must be nonzero.
Tensor Div(const Tensor& a, const Tensor& b);
/// -a.
Tensor Neg(const Tensor& a);
/// a + s.
Tensor AddScalar(const Tensor& a, float s);
/// a * s.
Tensor MulScalar(const Tensor& a, float s);

Tensor Sin(const Tensor& a);
Tensor Cos(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log; inputs must be positive.
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Square(const Tensor& a);
/// log(1 + exp(x)), computed stably; note -log(sigmoid(x)) == Softplus(-x).
Tensor Softplus(const Tensor& a);

/// log Γ(x) for x > 0; gradient is the digamma function ψ(x).
Tensor Lgamma(const Tensor& a);
/// ψ(x) = d/dx log Γ(x) for x > 0; gradient is the trigamma function ψ'(x).
Tensor Digamma(const Tensor& a);

namespace special {
/// Scalar ln|Γ(x)|, the same value as std::lgamma but reentrant:
/// std::lgamma writes the global `signgam`, a data race when several
/// threads rank concurrently.
float LgammaScalar(float x);
/// Scalar digamma ψ(x), x > 0 (recurrence + asymptotic series).
float DigammaScalar(float x);
/// Scalar trigamma ψ'(x), x > 0.
float TrigammaScalar(float x);
}  // namespace special

/// Elementwise atan2(y, x); shapes must match. Returns angles in (-pi, pi].
Tensor Atan2(const Tensor& y, const Tensor& x);

/// Elementwise min/max; broadcasting as for Add. On ties gradient goes to a.
Tensor Minimum(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);

/// Clamps into [lo, hi]; gradient 1 inside the interval, 0 outside.
Tensor Clamp(const Tensor& a, float lo, float hi);

/// Wraps angles into [0, 2*pi) with a pass-through (identity) gradient; the
/// wrap offset is piecewise constant so this is exact almost everywhere.
Tensor Mod2Pi(const Tensor& a);

/// Matrix product: `[B, I] x [I, O] -> [B, O]`.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Concatenation. rank-1 inputs with axis 0, or rank-2 inputs (equal rows)
/// with axis 1.
Tensor Concat(const std::vector<Tensor>& parts, int axis);

/// Columns [begin, end) of a rank-2 tensor.
Tensor SliceCols(const Tensor& a, int64_t begin, int64_t end);

/// View with a new shape (same numel).
Tensor Reshape(const Tensor& a, const Shape& shape);

/// Sum of all elements -> scalar `[1]`.
Tensor SumAll(const Tensor& a);
/// Mean of all elements -> scalar `[1]`.
Tensor MeanAll(const Tensor& a);

/// Reduction over one dimension of a rank-2 tensor:
/// dim 0: `[B, d] -> [d]`;  dim 1: `[B, d] -> [B]`.
Tensor SumDim(const Tensor& a, int dim);
Tensor MeanDim(const Tensor& a, int dim);

/// Embedding lookup: rows of `table` (`[N, d]`) at `rows` -> `[B, d]`.
/// Backward scatter-adds into the table gradient.
Tensor Gather(const Tensor& table, const std::vector<int64_t>& rows);

/// Explicitly tiles a `[d]` vector into `[B, d]`.
Tensor BroadcastRow(const Tensor& a, int64_t batch);

/// Stops gradient flow (alias of Tensor::Detach, for symmetry in op code).
Tensor StopGradient(const Tensor& a);

// Operator sugar for readable model code.
inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return Div(a, b); }
inline Tensor operator-(const Tensor& a) { return Neg(a); }

}  // namespace halk::tensor

#endif  // HALK_TENSOR_OPS_H_

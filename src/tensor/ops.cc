#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace halk::tensor {

namespace {

constexpr float kTwoPi = 6.283185307179586f;

// How operand indices map onto output indices for elementwise ops.
enum class Broadcast {
  kNone,     // same shape
  kScalar,   // operand has numel 1
  kRow,      // operand is [d], output is [B, d]
};

struct BinaryPlan {
  Shape out_shape;
  Broadcast a_kind;
  Broadcast b_kind;
  int64_t cols = 0;  // columns of the output (for kRow index math)
};

BinaryPlan ResolveBinary(const Tensor& a, const Tensor& b, const char* op) {
  const Shape& sa = a.shape();
  const Shape& sb = b.shape();
  BinaryPlan plan;
  if (sa == sb) {
    plan = {sa, Broadcast::kNone, Broadcast::kNone, 0};
  } else if (sb.numel() == 1) {
    plan = {sa, Broadcast::kNone, Broadcast::kScalar, 0};
  } else if (sa.numel() == 1) {
    plan = {sb, Broadcast::kScalar, Broadcast::kNone, 0};
  } else if (sa.rank() == 2 && sb.rank() == 1 && sa.dim(1) == sb.dim(0)) {
    plan = {sa, Broadcast::kNone, Broadcast::kRow, sa.dim(1)};
  } else if (sa.rank() == 1 && sb.rank() == 2 && sb.dim(1) == sa.dim(0)) {
    plan = {sb, Broadcast::kRow, Broadcast::kNone, sb.dim(1)};
  } else {
    HALK_CHECK(false) << op << ": incompatible shapes " << sa.ToString()
                      << " and " << sb.ToString();
  }
  if (plan.cols == 0 && plan.out_shape.rank() == 2) {
    plan.cols = plan.out_shape.dim(1);
  }
  return plan;
}

inline size_t MapIndex(Broadcast kind, int64_t i, int64_t cols) {
  switch (kind) {
    case Broadcast::kNone:
      return static_cast<size_t>(i);
    case Broadcast::kScalar:
      return 0;
    case Broadcast::kRow:
      return static_cast<size_t>(i % cols);
  }
  return 0;
}

// Generic differentiable binary elementwise op. `f` computes the value,
// `dfda`/`dfdb` the partials given (a_val, b_val, out_val).
template <typename F, typename Da, typename Db>
Tensor BinaryOp(const Tensor& a, const Tensor& b, const char* name, F f,
                Da dfda, Db dfdb) {
  BinaryPlan plan = ResolveBinary(a, b, name);
  const int64_t n = plan.out_shape.numel();
  const int64_t cols = plan.cols;
  const Broadcast ka = plan.a_kind;
  const Broadcast kb = plan.b_kind;

  Tensor out = MakeOpResult(
      plan.out_shape, name, {a, b},
      [ka, kb, cols, dfda, dfdb](TensorImpl* self) {
        TensorImpl* ia = self->inputs[0].get();
        TensorImpl* ib = self->inputs[1].get();
        const int64_t n = static_cast<int64_t>(self->data.size());
        if (ia->requires_grad) {
          ia->EnsureGrad();
          for (int64_t i = 0; i < n; ++i) {
            const size_t pa = MapIndex(ka, i, cols);
            const size_t pb = MapIndex(kb, i, cols);
            ia->grad[pa] += self->grad[static_cast<size_t>(i)] *
                            dfda(ia->data[pa], ib->data[pb],
                                 self->data[static_cast<size_t>(i)]);
          }
        }
        if (ib->requires_grad) {
          ib->EnsureGrad();
          for (int64_t i = 0; i < n; ++i) {
            const size_t pa = MapIndex(ka, i, cols);
            const size_t pb = MapIndex(kb, i, cols);
            ib->grad[pb] += self->grad[static_cast<size_t>(i)] *
                            dfdb(ia->data[pa], ib->data[pb],
                                 self->data[static_cast<size_t>(i)]);
          }
        }
      });

  float* out_data = out.data();
  const float* da = a.data();
  const float* db = b.data();
  if (ka == Broadcast::kNone && kb == Broadcast::kNone) {
    // Same shapes (the common case): the same f per element, without the
    // per-element index mapping, which costs ~10 % of an intersection
    // call at d = 32 (BM_Intersection).
    for (int64_t i = 0; i < n; ++i) out_data[i] = f(da[i], db[i]);
    return out;
  }
  for (int64_t i = 0; i < n; ++i) {
    out_data[i] = f(da[MapIndex(ka, i, cols)], db[MapIndex(kb, i, cols)]);
  }
  return out;
}

// Generic differentiable unary elementwise op; `df` receives (in, out).
template <typename F, typename Df>
Tensor UnaryOp(const Tensor& a, const char* name, F f, Df df) {
  const int64_t n = a.numel();
  Tensor out = MakeOpResult(
      a.shape(), name, {a}, [df](TensorImpl* self) {
        TensorImpl* ia = self->inputs[0].get();
        if (!ia->requires_grad) return;
        ia->EnsureGrad();
        const size_t n = self->data.size();
        for (size_t i = 0; i < n; ++i) {
          ia->grad[i] += self->grad[i] * df(ia->data[i], self->data[i]);
        }
      });
  float* out_data = out.data();
  const float* da = a.data();
  for (int64_t i = 0; i < n; ++i) out_data[i] = f(da[i]);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, "add", [](float x, float y) { return x + y; },
      [](float, float, float) { return 1.0f; },
      [](float, float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, "sub", [](float x, float y) { return x - y; },
      [](float, float, float) { return 1.0f; },
      [](float, float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, "mul", [](float x, float y) { return x * y; },
      [](float, float y, float) { return y; },
      [](float x, float, float) { return x; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, "div", [](float x, float y) { return x / y; },
      [](float, float y, float) { return 1.0f / y; },
      [](float x, float y, float) { return -x / (y * y); });
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(
      a, "neg", [](float x) { return -x; },
      [](float, float) { return -1.0f; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, "add_scalar", [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, "mul_scalar", [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Tensor Sin(const Tensor& a) {
  return UnaryOp(
      a, "sin", [](float x) { return std::sin(x); },
      [](float x, float) { return std::cos(x); });
}

Tensor Cos(const Tensor& a) {
  return UnaryOp(
      a, "cos", [](float x) { return std::cos(x); },
      [](float x, float) { return -std::sin(x); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, "tanh", [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, "sigmoid", [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, "relu", [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      a, "abs", [](float x) { return std::fabs(x); },
      [](float x, float) { return x >= 0.0f ? 1.0f : -1.0f; });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, "exp", [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a, "log", [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      a, "sqrt", [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / y; });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, "square", [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor Softplus(const Tensor& a) {
  return UnaryOp(
      a, "softplus",
      [](float x) {
        // max(x, 0) + log1p(exp(-|x|)) avoids overflow on both tails.
        const float m = x > 0.0f ? x : 0.0f;
        return m + std::log1p(std::exp(-std::fabs(x)));
      },
      [](float x, float) { return 1.0f / (1.0f + std::exp(-x)); });
}

namespace special {

float LgammaScalar(float x) {
  int sign = 0;
  return ::lgammaf_r(x, &sign);
}

float DigammaScalar(float x) {
  // Recur up to the asymptotic region, then use the standard series.
  double result = 0.0;
  double v = x;
  while (v < 6.0) {
    result -= 1.0 / v;
    v += 1.0;
  }
  const double inv = 1.0 / v;
  const double inv2 = inv * inv;
  result += std::log(v) - 0.5 * inv -
            inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0));
  return static_cast<float>(result);
}

float TrigammaScalar(float x) {
  double result = 0.0;
  double v = x;
  while (v < 6.0) {
    result += 1.0 / (v * v);
    v += 1.0;
  }
  const double inv = 1.0 / v;
  const double inv2 = inv * inv;
  result += inv * (1.0 + 0.5 * inv +
                   inv2 * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 / 42.0)));
  return static_cast<float>(result);
}

}  // namespace special

Tensor Lgamma(const Tensor& a) {
  return UnaryOp(
      a, "lgamma", [](float x) { return special::LgammaScalar(x); },
      [](float x, float) { return special::DigammaScalar(x); });
}

Tensor Digamma(const Tensor& a) {
  return UnaryOp(
      a, "digamma", [](float x) { return special::DigammaScalar(x); },
      [](float x, float) { return special::TrigammaScalar(x); });
}

Tensor Atan2(const Tensor& y, const Tensor& x) {
  HALK_CHECK(y.shape() == x.shape())
      << "atan2: shapes " << y.shape().ToString() << " vs "
      << x.shape().ToString();
  return BinaryOp(
      y, x, "atan2",
      [](float yy, float xx) { return std::atan2(yy, xx); },
      [](float yy, float xx, float) { return xx / (xx * xx + yy * yy); },
      [](float yy, float xx, float) { return -yy / (xx * xx + yy * yy); });
}

Tensor Minimum(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, "minimum", [](float x, float y) { return x <= y ? x : y; },
      [](float x, float y, float) { return x <= y ? 1.0f : 0.0f; },
      [](float x, float y, float) { return x <= y ? 0.0f : 1.0f; });
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, "maximum", [](float x, float y) { return x >= y ? x : y; },
      [](float x, float y, float) { return x >= y ? 1.0f : 0.0f; },
      [](float x, float y, float) { return x >= y ? 0.0f : 1.0f; });
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  HALK_CHECK_LE(lo, hi);
  return UnaryOp(
      a, "clamp",
      [lo, hi](float x) { return x < lo ? lo : (x > hi ? hi : x); },
      [lo, hi](float x, float) { return (x >= lo && x <= hi) ? 1.0f : 0.0f; });
}

Tensor Mod2Pi(const Tensor& a) {
  return UnaryOp(
      a, "mod_2pi",
      [](float x) {
        float r = std::fmod(x, kTwoPi);
        if (r < 0.0f) r += kTwoPi;
        return r;
      },
      [](float, float) { return 1.0f; });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  HALK_CHECK_EQ(a.shape().rank(), 2);
  HALK_CHECK_EQ(b.shape().rank(), 2);
  const int64_t rows = a.shape().dim(0);
  const int64_t inner = a.shape().dim(1);
  HALK_CHECK_EQ(inner, b.shape().dim(0));
  const int64_t cols = b.shape().dim(1);

  Tensor out = MakeOpResult(
      Shape({rows, cols}), "matmul", {a, b},
      [rows, inner, cols](TensorImpl* self) {
        TensorImpl* ia = self->inputs[0].get();
        TensorImpl* ib = self->inputs[1].get();
        if (ia->requires_grad) {
          ia->EnsureGrad();
          // dA = dC * B^T
          for (int64_t r = 0; r < rows; ++r) {
            for (int64_t k = 0; k < inner; ++k) {
              float acc = 0.0f;
              for (int64_t c = 0; c < cols; ++c) {
                acc += self->grad[static_cast<size_t>(r * cols + c)] *
                       ib->data[static_cast<size_t>(k * cols + c)];
              }
              ia->grad[static_cast<size_t>(r * inner + k)] += acc;
            }
          }
        }
        if (ib->requires_grad) {
          ib->EnsureGrad();
          // dB = A^T * dC
          for (int64_t k = 0; k < inner; ++k) {
            for (int64_t c = 0; c < cols; ++c) {
              float acc = 0.0f;
              for (int64_t r = 0; r < rows; ++r) {
                acc += ia->data[static_cast<size_t>(r * inner + k)] *
                       self->grad[static_cast<size_t>(r * cols + c)];
              }
              ib->grad[static_cast<size_t>(k * cols + c)] += acc;
            }
          }
        }
      });

  // Op results start uninitialized; the product accumulates into zeros.
  float* oc = out.data();
  std::fill(oc, oc + rows * cols, 0.0f);
  const float* da = a.data();
  const float* db = b.data();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t k = 0; k < inner; ++k) {
      const float av = da[r * inner + k];
      if (av == 0.0f) continue;
      const float* brow = db + k * cols;
      float* orow = oc + r * cols;
      for (int64_t c = 0; c < cols; ++c) orow[c] += av * brow[c];
    }
  }
  return out;
}

Tensor Concat(TensorRefs parts, int axis) {
  HALK_CHECK(parts.size() > 0);
  const Tensor& first = *parts.begin();
  const int rank = first.shape().rank();
  // The backward closures read each part's size from its input node, so
  // building the op copies no per-part vectors.
  if (rank == 1) {
    HALK_CHECK_EQ(axis, 0);
    int64_t total = 0;
    for (const Tensor& p : parts) {
      HALK_CHECK_EQ(p.shape().rank(), 1);
      total += p.numel();
    }
    Tensor out = MakeOpResult(
        Shape({total}), "concat0", parts, [](TensorImpl* self) {
          size_t off = 0;
          for (size_t p = 0; p < self->inputs.size(); ++p) {
            TensorImpl* ip = self->inputs[p].get();
            const size_t n = ip->data.size();
            if (ip->requires_grad) {
              ip->EnsureGrad();
              for (size_t i = 0; i < n; ++i) ip->grad[i] += self->grad[off + i];
            }
            off += n;
          }
        });
    float* oc = out.data();
    for (const Tensor& p : parts) {
      const float* d = p.data();
      oc = std::copy(d, d + p.numel(), oc);
    }
    return out;
  }

  HALK_CHECK_EQ(rank, 2);
  HALK_CHECK_EQ(axis, 1);
  const int64_t rows = first.shape().dim(0);
  int64_t total_cols = 0;
  for (const Tensor& p : parts) {
    HALK_CHECK_EQ(p.shape().rank(), 2);
    HALK_CHECK_EQ(p.shape().dim(0), rows);
    total_cols += p.shape().dim(1);
  }
  Tensor out = MakeOpResult(
      Shape({rows, total_cols}), "concat1", parts,
      [rows, total_cols](TensorImpl* self) {
        int64_t col_off = 0;
        for (size_t p = 0; p < self->inputs.size(); ++p) {
          TensorImpl* ip = self->inputs[p].get();
          const int64_t w = ip->shape.dim(1);
          if (ip->requires_grad) {
            ip->EnsureGrad();
            for (int64_t r = 0; r < rows; ++r) {
              for (int64_t c = 0; c < w; ++c) {
                ip->grad[static_cast<size_t>(r * w + c)] +=
                    self->grad[static_cast<size_t>(r * total_cols + col_off + c)];
              }
            }
          }
          col_off += w;
        }
      });
  float* oc = out.data();
  int64_t col_off = 0;
  for (const Tensor& p : parts) {
    const float* d = p.data();
    const int64_t w = p.shape().dim(1);
    for (int64_t r = 0; r < rows; ++r) {
      std::copy(d + r * w, d + (r + 1) * w, oc + r * total_cols + col_off);
    }
    col_off += w;
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t begin, int64_t end) {
  HALK_CHECK_EQ(a.shape().rank(), 2);
  const int64_t rows = a.shape().dim(0);
  const int64_t cols = a.shape().dim(1);
  HALK_CHECK_GE(begin, 0);
  HALK_CHECK_LT(begin, end);
  HALK_CHECK_LE(end, cols);
  const int64_t w = end - begin;
  Tensor out = MakeOpResult(
      Shape({rows, w}), "slice_cols", {a},
      [rows, cols, begin, w](TensorImpl* self) {
        TensorImpl* ia = self->inputs[0].get();
        if (!ia->requires_grad) return;
        ia->EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < w; ++c) {
            ia->grad[static_cast<size_t>(r * cols + begin + c)] +=
                self->grad[static_cast<size_t>(r * w + c)];
          }
        }
      });
  float* oc = out.data();
  const float* d = a.data();
  for (int64_t r = 0; r < rows; ++r) {
    std::copy(d + r * cols + begin, d + r * cols + end, oc + r * w);
  }
  return out;
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  HALK_CHECK_EQ(a.numel(), shape.numel());
  Tensor out = MakeOpResult(shape, "reshape", {a}, [](TensorImpl* self) {
    TensorImpl* ia = self->inputs[0].get();
    if (!ia->requires_grad) return;
    ia->EnsureGrad();
    for (size_t i = 0; i < self->data.size(); ++i) ia->grad[i] += self->grad[i];
  });
  std::copy(a.data(), a.data() + a.numel(), out.data());
  return out;
}

Tensor SumAll(const Tensor& a) {
  Tensor out = MakeOpResult(Shape({1}), "sum_all", {a}, [](TensorImpl* self) {
    TensorImpl* ia = self->inputs[0].get();
    if (!ia->requires_grad) return;
    ia->EnsureGrad();
    const float g = self->grad[0];
    for (float& v : ia->grad) v += g;
  });
  float acc = 0.0f;
  const float* d = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) acc += d[i];
  out.data()[0] = acc;
  return out;
}

Tensor MeanAll(const Tensor& a) {
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor SumDim(const Tensor& a, int dim) {
  HALK_CHECK_EQ(a.shape().rank(), 2);
  const int64_t rows = a.shape().dim(0);
  const int64_t cols = a.shape().dim(1);
  HALK_CHECK(dim == 0 || dim == 1);
  const Shape out_shape = (dim == 0) ? Shape({cols}) : Shape({rows});
  Tensor out = MakeOpResult(
      out_shape, "sum_dim", {a}, [rows, cols, dim](TensorImpl* self) {
        TensorImpl* ia = self->inputs[0].get();
        if (!ia->requires_grad) return;
        ia->EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < cols; ++c) {
            const size_t o = static_cast<size_t>(dim == 0 ? c : r);
            ia->grad[static_cast<size_t>(r * cols + c)] += self->grad[o];
          }
        }
      });
  // Op results start uninitialized; the sums accumulate into zeros.
  float* oc = out.data();
  std::fill(oc, oc + out.numel(), 0.0f);
  const float* d = a.data();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      oc[dim == 0 ? c : r] += d[r * cols + c];
    }
  }
  return out;
}

Tensor MeanDim(const Tensor& a, int dim) {
  const int64_t denom = (dim == 0) ? a.shape().dim(0) : a.shape().dim(1);
  return MulScalar(SumDim(a, dim), 1.0f / static_cast<float>(denom));
}

Tensor Gather(const Tensor& table, const std::vector<int64_t>& rows) {
  HALK_CHECK_EQ(table.shape().rank(), 2);
  const int64_t n = table.shape().dim(0);
  const int64_t d = table.shape().dim(1);
  for (int64_t r : rows) {
    HALK_CHECK_GE(r, 0);
    HALK_CHECK_LT(r, n);
  }
  const int64_t batch = static_cast<int64_t>(rows.size());
  Tensor out = MakeOpResult(
      Shape({batch, d}), "gather", {table},
      [rows, d](TensorImpl* self) {
        TensorImpl* it = self->inputs[0].get();
        if (!it->requires_grad) return;
        it->EnsureGrad();
        for (size_t b = 0; b < rows.size(); ++b) {
          const size_t src = b * static_cast<size_t>(d);
          const size_t dst = static_cast<size_t>(rows[b]) * static_cast<size_t>(d);
          for (int64_t c = 0; c < d; ++c) {
            it->grad[dst + static_cast<size_t>(c)] +=
                self->grad[src + static_cast<size_t>(c)];
          }
        }
      });
  float* oc = out.data();
  const float* td = table.data();
  for (size_t b = 0; b < rows.size(); ++b) {
    const float* src = td + rows[b] * d;
    std::copy(src, src + d, oc + static_cast<int64_t>(b) * d);
  }
  return out;
}

Tensor BroadcastRow(const Tensor& a, int64_t batch) {
  HALK_CHECK_EQ(a.shape().rank(), 1);
  const int64_t d = a.shape().dim(0);
  Tensor out = MakeOpResult(
      Shape({batch, d}), "broadcast_row", {a},
      [batch, d](TensorImpl* self) {
        TensorImpl* ia = self->inputs[0].get();
        if (!ia->requires_grad) return;
        ia->EnsureGrad();
        for (int64_t b = 0; b < batch; ++b) {
          for (int64_t c = 0; c < d; ++c) {
            ia->grad[static_cast<size_t>(c)] +=
                self->grad[static_cast<size_t>(b * d + c)];
          }
        }
      });
  float* oc = out.data();
  const float* da = a.data();
  for (int64_t b = 0; b < batch; ++b) std::copy(da, da + d, oc + b * d);
  return out;
}

Tensor StopGradient(const Tensor& a) { return a.Detach(); }

}  // namespace halk::tensor

#include "tensor/tensor.h"

#include <algorithm>
#include <cstddef>

#include "common/logging.h"
#include "tensor/tape.h"

namespace halk::tensor {

namespace {

/// Whether op results on this thread may record a graph (NoGradGuard).
thread_local bool t_grad_enabled = true;

/// Allocator for std::allocate_shared that places `floats` floats after
/// the shared_ptr control block (which holds the TensorImpl), so a node
/// and its buffer are one heap allocation. allocate_shared allocates
/// exactly one block, before the TensorImpl is constructed, and reports
/// where the floats start through `out`.
template <typename T>
struct TrailingFloats {
  using value_type = T;

  TrailingFloats(size_t floats, float** out) : floats(floats), out(out) {}
  template <typename U>
  TrailingFloats(const TrailingFloats<U>& other)  // the rebinding copy
      : floats(other.floats), out(other.out) {}

  T* allocate(size_t n) {
    constexpr size_t kAlign = alignof(std::max_align_t);
    const size_t head = (n * sizeof(T) + kAlign - 1) / kAlign * kAlign;
    char* block =
        static_cast<char*>(::operator new(head + floats * sizeof(float)));
    *out = reinterpret_cast<float*>(block + head);
    return reinterpret_cast<T*>(block);
  }
  void deallocate(T* p, size_t) { ::operator delete(p); }

  template <typename U>
  bool operator==(const TrailingFloats<U>& other) const {
    return floats == other.floats;
  }

  size_t floats;
  float** out;
};

/// A node of `shape` with an uninitialized buffer in its own allocation.
std::shared_ptr<TensorImpl> NewNode(const Shape& shape) {
  const size_t n = static_cast<size_t>(shape.numel());
  float* floats = nullptr;
  auto impl = std::allocate_shared<TensorImpl>(
      TrailingFloats<TensorImpl>(n, &floats));
  impl->shape = shape;
  impl->data = Buffer(floats, n);
  return impl;
}

}  // namespace

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

bool NoGradGuard::GradEnabled() { return t_grad_enabled; }

Tensor Tensor::Zeros(const Shape& shape) { return Full(shape, 0.0f); }

Tensor Tensor::Full(const Shape& shape, float value) {
  auto impl = NewNode(shape);
  std::fill(impl->data.begin(), impl->data.end(), value);
  return Tensor(std::move(impl));
}

Tensor Tensor::FromVector(const Shape& shape,
                          const std::vector<float>& values) {
  HALK_CHECK_EQ(shape.numel(), static_cast<int64_t>(values.size()));
  auto impl = NewNode(shape);
  std::copy(values.begin(), values.end(), impl->data.begin());
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value) { return Full(Shape({1}), value); }

const Shape& Tensor::shape() const {
  HALK_CHECK(defined());
  return impl_->shape;
}

int64_t Tensor::numel() const { return shape().numel(); }

float* Tensor::data() {
  HALK_CHECK(defined());
  return impl_->data.data();
}

const float* Tensor::data() const {
  HALK_CHECK(defined());
  return impl_->data.data();
}

float Tensor::at(int64_t i) const {
  HALK_CHECK_GE(i, 0);
  HALK_CHECK_LT(i, numel());
  return impl_->data[static_cast<size_t>(i)];
}

float Tensor::at(int64_t row, int64_t col) const {
  HALK_CHECK_EQ(shape().rank(), 2);
  const int64_t cols = shape().dim(1);
  HALK_CHECK_GE(row, 0);
  HALK_CHECK_LT(row, shape().dim(0));
  HALK_CHECK_GE(col, 0);
  HALK_CHECK_LT(col, cols);
  return impl_->data[static_cast<size_t>(row * cols + col)];
}

bool Tensor::requires_grad() const {
  HALK_CHECK(defined());
  return impl_->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool value) {
  HALK_CHECK(defined());
  impl_->requires_grad = value;
  return *this;
}

float* Tensor::grad() {
  HALK_CHECK(defined());
  impl_->EnsureGrad();
  return impl_->grad.data();
}

const std::vector<float>& Tensor::grad_vector() const {
  HALK_CHECK(defined());
  impl_->EnsureGrad();
  return impl_->grad;
}

void Tensor::ZeroGrad() {
  HALK_CHECK(defined());
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

Tensor Tensor::Detach() const {
  HALK_CHECK(defined());
  auto impl = NewNode(impl_->shape);
  std::copy(impl_->data.begin(), impl_->data.end(), impl->data.begin());
  impl->op_name = "detach";
  return Tensor(std::move(impl));
}

std::vector<float> Tensor::ToVector() const {
  HALK_CHECK(defined());
  return std::vector<float>(impl_->data.begin(), impl_->data.end());
}

namespace internal {

std::shared_ptr<TensorImpl> NewOpNode(const Shape& shape, const char* op_name,
                                      TensorRefs inputs) {
  std::shared_ptr<TensorImpl> impl = NewNode(shape);
  impl->op_name = op_name;
  bool needs_grad = false;
  for (const Tensor& input : inputs) {
    HALK_CHECK(input.defined());
    needs_grad = needs_grad || input.requires_grad();
  }
  impl->requires_grad = needs_grad && t_grad_enabled;
  // One thread-local pointer load when accounting is off.
  TapeAccounting* accounting = TapeAccounting::Active();
  if (impl->requires_grad || accounting != nullptr) {
    impl->inputs.reserve(inputs.size());
    for (const Tensor& input : inputs) impl->inputs.push_back(input.impl());
  }
  if (accounting != nullptr) {
    accounting->RecordForward(*impl);
    if (!impl->requires_grad) impl->inputs = {};
  }
  return impl;
}

}  // namespace internal

}  // namespace halk::tensor

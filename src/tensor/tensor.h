#ifndef HALK_TENSOR_TENSOR_H_
#define HALK_TENSOR_TENSOR_H_

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/shape.h"

namespace halk::tensor {

struct TensorImpl;

/// Value-semantic handle to a node in the autograd graph. Copying a Tensor
/// copies the handle, not the buffer. An op result that needs a gradient
/// (some input has `requires_grad()` and no NoGradGuard is alive on the
/// thread) records its inputs and a backward closure; `Backward(loss)`
/// (tape.h) runs reverse-mode accumulation into `grad()` of every reachable
/// tensor with `requires_grad()`. Any other op result is a plain value: it
/// keeps no inputs and no closure, so building it records no graph.
class Tensor {
 public:
  /// Null handle; `defined()` is false.
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  /// Factory constructors. None of these require gradients by default.
  static Tensor Zeros(const Shape& shape);
  static Tensor Full(const Shape& shape, float value);
  /// Copies `values` (row-major) into a new tensor.
  static Tensor FromVector(const Shape& shape,
                           const std::vector<float>& values);
  static Tensor Scalar(float value);

  bool defined() const { return impl_ != nullptr; }

  const Shape& shape() const;
  int64_t numel() const;

  /// Raw buffer access (row-major).
  float* data();
  const float* data() const;

  /// Element accessors for tests and glue code.
  float at(int64_t i) const;
  float at(int64_t row, int64_t col) const;

  bool requires_grad() const;
  /// Marks this tensor as a trainable leaf.
  Tensor& set_requires_grad(bool value);

  /// Gradient buffer; allocated (zero-filled) on first access.
  float* grad();
  const std::vector<float>& grad_vector() const;
  void ZeroGrad();

  /// A copy of this tensor's values, cut off from the autograd graph.
  Tensor Detach() const;

  /// Copies out the contents.
  std::vector<float> ToVector() const;

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// The float storage of one node, allocated together with the node (one
/// heap allocation per tensor) and freed with it.
class Buffer {
 public:
  Buffer() = default;
  Buffer(float* data, size_t size) : data_(data), size_(size) {}
  // Not copyable, so a TensorImpl is not either: the floats belong to the
  // node's allocation.
  Buffer(Buffer&&) = default;
  Buffer& operator=(Buffer&&) = default;

  float* data() { return data_; }
  const float* data() const { return data_; }
  size_t size() const { return size_; }
  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }
  float* begin() { return data_; }
  float* end() { return data_ + size_; }
  const float* begin() const { return data_; }
  const float* end() const { return data_ + size_; }

 private:
  float* data_ = nullptr;
  size_t size_ = 0;
};

/// Internal node storage. Public because ops.cc and tape.cc manipulate it;
/// library users interact with Tensor only.
struct TensorImpl {
  Shape shape;
  Buffer data;
  std::vector<float> grad;  // empty until needed
  bool requires_grad = false;
  const char* op_name = "leaf";
  /// Empty unless the node needs a gradient.
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  /// Propagates this node's grad into inputs' grads. Null for leaves and
  /// for nodes that need no gradient.
  std::function<void(TensorImpl*)> backward;

  void EnsureGrad() {
    if (grad.empty()) grad.assign(data.size(), 0.0f);
  }
};

/// Scoped, thread-local switch that turns graph recording off: while an
/// instance is alive on a thread, every op result on that thread has
/// `requires_grad() == false` and keeps no inputs and no backward closure,
/// whatever its inputs. Guards nest (the previous mode returns on
/// destruction) and never affect another thread. Ranking and serving hold
/// one around their forward passes; they run the same op code as training.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// False while a guard is alive on this thread.
  static bool GradEnabled();

 private:
  bool previous_;
};

/// The inputs of one op as a braced list `{a, b}` of references: no
/// handle is copied and nothing is allocated for the list. An element
/// must name a tensor; a temporary does not bind.
using TensorRefs = std::initializer_list<std::reference_wrapper<const Tensor>>;

namespace internal {

/// A non-leaf node of `shape` over `inputs` whose buffer is left
/// uninitialized (the op writes every element). `requires_grad` is set
/// when grad mode is on and some input requires grad; only such a node
/// keeps its inputs. An active TapeAccounting records the node while the
/// inputs are still linked (the matmul FLOP estimate reads their shapes).
std::shared_ptr<TensorImpl> NewOpNode(const Shape& shape, const char* op_name,
                                      TensorRefs inputs);

}  // namespace internal

/// Creates a non-leaf op result over `inputs`. `backward` is stored (as a
/// std::function) and run only if the result needs a gradient, so an op
/// outside the graph builds no closure.
template <typename Backward>
Tensor MakeOpResult(const Shape& shape, const char* op_name,
                    TensorRefs inputs, Backward&& backward) {
  std::shared_ptr<TensorImpl> impl =
      internal::NewOpNode(shape, op_name, inputs);
  if (impl->requires_grad) impl->backward = std::forward<Backward>(backward);
  return Tensor(std::move(impl));
}

}  // namespace halk::tensor

#endif  // HALK_TENSOR_TENSOR_H_

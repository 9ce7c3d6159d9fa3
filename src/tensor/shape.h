#ifndef HALK_TENSOR_SHAPE_H_
#define HALK_TENSOR_SHAPE_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace halk::tensor {

/// Dimensions of a Tensor. The library works with rank-1 vectors `[d]` and
/// rank-2 batched matrices `[B, d]`; scalars are rank-1 tensors of size 1.
/// The dimensions live inline (rank ≤ kMaxRank, checked at construction),
/// so building or copying a Shape never allocates.
class Shape {
 public:
  static constexpr int kMaxRank = 4;

  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);

  int rank() const { return rank_; }
  int64_t dim(int i) const;

  /// Total number of elements (1 for rank-0).
  int64_t numel() const {
    int64_t n = 1;
    for (int i = 0; i < rank_; ++i) n *= dims_[static_cast<size_t>(i)];
    return n;
  }

  bool operator==(const Shape& other) const {
    return rank_ == other.rank_ && dims_ == other.dims_;
  }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  /// e.g. "[32, 16]".
  std::string ToString() const;

 private:
  std::array<int64_t, kMaxRank> dims_{};  // zero past rank_
  int rank_ = 0;
};

}  // namespace halk::tensor

#endif  // HALK_TENSOR_SHAPE_H_

#include "tensor/shape.h"

#include <algorithm>

#include "common/logging.h"

namespace halk::tensor {

Shape::Shape(std::initializer_list<int64_t> dims)
    : rank_(static_cast<int>(dims.size())) {
  HALK_CHECK_LE(dims.size(), static_cast<size_t>(kMaxRank))
      << "Shape supports rank <= " << kMaxRank;
  std::copy(dims.begin(), dims.end(), dims_.begin());
}

int64_t Shape::dim(int i) const {
  HALK_CHECK_GE(i, 0);
  HALK_CHECK_LT(i, rank());
  return dims_[static_cast<size_t>(i)];
}

std::string Shape::ToString() const {
  std::string out = "[";
  for (int i = 0; i < rank_; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(dims_[static_cast<size_t>(i)]);
  }
  out += "]";
  return out;
}

}  // namespace halk::tensor

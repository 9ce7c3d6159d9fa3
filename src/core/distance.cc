#include "core/distance.h"

#include <cmath>

#include "common/logging.h"

namespace halk::core {

using tensor::Tensor;

Tensor ArcDistance(const Tensor& point, const EmbeddingBatch& arc, float rho,
                   float eta) {
  HALK_CHECK(point.shape() == arc.a.shape())
      << point.shape().ToString() << " vs " << arc.a.shape().ToString();

  // Chord from the point to the closer arc endpoint.
  Tensor to_start = ChordLength(point, StartPoint(arc, rho), rho);
  Tensor to_end = ChordLength(point, EndPoint(arc, rho), rho);
  Tensor outside_raw = tensor::Minimum(to_start, to_end);

  // Chord to the center vs. the half-arc chord.
  Tensor to_center = ChordLength(point, arc.a, rho);
  // |sin((A_l / 2ρ) / 2)| scaled to a chord: the arc's half-width.
  Tensor half_width = tensor::MulScalar(
      tensor::Abs(tensor::Sin(
          tensor::MulScalar(arc.b, 1.0f / (4.0f * rho)))),
      2.0f * rho);

  // Inside mask: to_center <= half_width, per coordinate, as a constant.
  const int64_t n = point.numel();
  std::vector<float> mask(static_cast<size_t>(n));
  const float* c = to_center.data();
  const float* h = half_width.data();
  for (int64_t i = 0; i < n; ++i) mask[static_cast<size_t>(i)] = c[i] > h[i] ? 1.0f : 0.0f;
  Tensor outside_mask = Tensor::FromVector(point.shape(), std::move(mask));

  Tensor d_o = tensor::SumDim(tensor::Mul(outside_raw, outside_mask), 1);
  Tensor d_i = tensor::SumDim(tensor::Minimum(to_center, half_width), 1);
  return tensor::Add(d_o, tensor::MulScalar(d_i, eta));
}

float ArcPointDistance(const float* point_angles, const float* arc_center,
                       const float* arc_length, int64_t dim, float rho,
                       float eta) {
  float d_o = 0.0f;
  float d_i = 0.0f;
  for (int64_t i = 0; i < dim; ++i) {
    const float theta = point_angles[i];
    const float ac = arc_center[i];
    const float al = arc_length[i];
    const float a_s = ac - al / (2.0f * rho);
    const float a_e = ac + al / (2.0f * rho);
    const float to_start = 2.0f * rho * std::fabs(std::sin((theta - a_s) / 2.0f));
    const float to_end = 2.0f * rho * std::fabs(std::sin((theta - a_e) / 2.0f));
    const float to_center = 2.0f * rho * std::fabs(std::sin((theta - ac) / 2.0f));
    const float half_width =
        2.0f * rho * std::fabs(std::sin(al / (4.0f * rho)));
    if (to_center > half_width) {
      d_o += std::min(to_start, to_end);
    }
    d_i += std::min(to_center, half_width);
  }
  return d_o + eta * d_i;
}

ArcConstants MakeArcConstants(const float* arc_center,
                              const float* arc_length, int64_t dim, float rho,
                              float eta) {
  ArcConstants out;
  out.rho = rho;
  out.eta = eta;
  out.a_s.resize(static_cast<size_t>(dim));
  out.a_e.resize(static_cast<size_t>(dim));
  out.center.resize(static_cast<size_t>(dim));
  out.half_width.resize(static_cast<size_t>(dim));
  for (int64_t i = 0; i < dim; ++i) {
    const float ac = arc_center[i];
    const float al = arc_length[i];
    // Same float expressions as ArcPointDistance, for bit-identical scans.
    out.a_s[static_cast<size_t>(i)] = ac - al / (2.0f * rho);
    out.a_e[static_cast<size_t>(i)] = ac + al / (2.0f * rho);
    out.center[static_cast<size_t>(i)] = ac;
    out.half_width[static_cast<size_t>(i)] =
        2.0f * rho * std::fabs(std::sin(al / (4.0f * rho)));
  }
  return out;
}

float ArcPointDistanceBounded(const float* point_angles,
                              const ArcConstants& arc, float bound) {
  // Same accumulation order as ArcPointDistance, so a full scan returns the
  // bit-identical value; the partial d_o + eta*d_i is non-decreasing across
  // dimensions (rho > 0, eta >= 0), which makes the early exit exact for
  // pruning. Points inside the arc on a dimension cost one sine; only the
  // outside case needs the two endpoint chords.
  const int64_t dim = static_cast<int64_t>(arc.center.size());
  const float rho = arc.rho;
  float d_o = 0.0f;
  float d_i = 0.0f;
  for (int64_t i = 0; i < dim; ++i) {
    const float theta = point_angles[i];
    const float to_center =
        2.0f * rho * std::fabs(std::sin((theta - arc.center[i]) / 2.0f));
    const float half_width = arc.half_width[i];
    if (to_center > half_width) {
      const float to_start =
          2.0f * rho * std::fabs(std::sin((theta - arc.a_s[i]) / 2.0f));
      const float to_end =
          2.0f * rho * std::fabs(std::sin((theta - arc.a_e[i]) / 2.0f));
      d_o += std::min(to_start, to_end);
      d_i += half_width;
    } else {
      d_i += to_center;
    }
    const float partial = d_o + arc.eta * d_i;
    if (partial > bound) return partial;
  }
  return d_o + arc.eta * d_i;
}

}  // namespace halk::core

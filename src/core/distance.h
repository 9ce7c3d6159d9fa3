#ifndef HALK_CORE_DISTANCE_H_
#define HALK_CORE_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "core/arc.h"

namespace halk::core {

/// Point-to-arc distance d = d_o + η·d_i of Eqs. (15)-(16), batched and
/// differentiable. `point` holds entity point angles [B, d]; the result is
/// [B]. Distances are chord lengths, so they are periodicity-safe:
///   d_o = 2ρ ‖ 1[outside] · min(|sin((θ−A_S)/2)|, |sin((θ−A_E)/2)|) ‖₁
///   d_i = 2ρ ‖ min(|sin((θ−A_c)/2)|, |sin((A_l/2ρ)/2)|) ‖₁
/// The outside indicator (chord-to-center exceeding the half-arc chord)
/// zeroes d_o for points inside the arc; it is treated as a constant in
/// backward (standard subgradient practice).
tensor::Tensor ArcDistance(const tensor::Tensor& point,
                           const EmbeddingBatch& arc, float rho, float eta);

/// Tape-free scalar twin of ArcDistance for one (entity, arc) pair of raw
/// angle/length buffers of width `dim`; used for ranking all entities at
/// evaluation time. Kept consistent with the tensor version by tests.
float ArcPointDistance(const float* point_angles, const float* arc_center,
                       const float* arc_length, int64_t dim, float rho,
                       float eta);

/// Entity-independent per-dimension quantities of one arc, hoisted out of
/// a many-entity scan: endpoint angles and the half-width chord account
/// for half the trigonometry in ArcPointDistance yet never change across
/// entities. Computed with the same float expressions, so scans through
/// ArcConstants are bit-identical to the plain kernel.
struct ArcConstants {
  float rho = 1.0f;
  float eta = 0.0f;
  std::vector<float> a_s;          // start angle per dimension
  std::vector<float> a_e;          // end angle per dimension
  std::vector<float> center;       // center angle per dimension
  std::vector<float> half_width;   // half-arc chord per dimension
};

ArcConstants MakeArcConstants(const float* arc_center,
                              const float* arc_length, int64_t dim, float rho,
                              float eta);

/// Bound-aware scan kernel for top-k (requires rho > 0 and eta >= 0, so
/// every per-dimension term is non-negative and the partial sum is a lower
/// bound of the final distance). Returns the exact ArcPointDistance value
/// — bit-identical, same accumulation order — unless the partial sum
/// exceeds `bound` first, in which case it stops scanning dimensions and
/// returns that partial sum (some value > bound, <= the true distance).
/// Callers must treat any result > bound as "worse than bound" only.
float ArcPointDistanceBounded(const float* point_angles,
                              const ArcConstants& arc, float bound);

}  // namespace halk::core

#endif  // HALK_CORE_DISTANCE_H_

#ifndef HALK_CORE_ARC_H_
#define HALK_CORE_ARC_H_

#include "core/operator_model.h"
#include "tensor/ops.h"

namespace halk::core {

// The arc helpers take an EmbeddingBatch of arcs on the circle of radius ρ
// (Sec. II-A): `a` holds polar center angles A_c (radians) and `b` holds
// arclengths A_l ∈ [0, 2πρ]. Entities are arcs of length 0.

/// Definition 1: start point A_S = A_c − A_l / (2ρ).
tensor::Tensor StartPoint(const EmbeddingBatch& arc, float rho);

/// Definition 2: end point A_E = A_c + A_l / (2ρ).
tensor::Tensor EndPoint(const EmbeddingBatch& arc, float rho);

/// The coordinated information pair [A_S ‖ A_E] fed to every learned HaLk
/// operator — carrying both center and cardinality information so rotation
/// and scaling adjust cooperatively (Sec. III-B).
tensor::Tensor StartEndPair(const EmbeddingBatch& arc, float rho);

/// Range regulator g(x) = π·tanh(λx) + π mapping activations into
/// [0, 2π) (Eq. 3).
tensor::Tensor GFunction(const tensor::Tensor& x, float lambda);

/// Chord length between two angle tensors: 2ρ·|sin((a − b)/2)| — the
/// periodicity-safe distance measurement the paper builds everything on.
tensor::Tensor ChordLength(const tensor::Tensor& a, const tensor::Tensor& b,
                           float rho);

}  // namespace halk::core

#endif  // HALK_CORE_ARC_H_

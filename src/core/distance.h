#ifndef HALK_CORE_DISTANCE_H_
#define HALK_CORE_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "core/arc.h"
#include "core/query_model.h"
#include "core/scan_kernel.h"
#include "core/topk.h"

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

/// Distance from one entity (`point_angles`, width `dim`) to one arc: a
/// one-entity block of the scan kernel (core/scan_kernel.h), so it equals
/// the value every ranking path computes for that pair, bit for bit.
/// Agrees with ArcDistance to float rounding (the kernel evaluates the
/// half-angles by polynomial, not libm).
float ArcPointDistance(const float* point_angles, const float* arc_center,
                       const float* arc_length, int64_t dim, float rho,
                       float eta);

/// Prepares one arc for the scan kernel: the per-dimension sin/cos of the
/// center, start and end half-angles and the half-width chord
/// 2ρ|sin(A_l/4ρ)|, computed once per query with libm.
ArcConstants MakeArcConstants(const float* arc_center,
                              const float* arc_length, int64_t dim, float rho,
                              float eta);

/// Exact distances from `rows` consecutive rows of a row-major table
/// (`dim` floats each, starting at `table`) to `arc`: out[i] is row i's.
void ArcDistancesToRows(const float* table, int64_t dim, int64_t rows,
                        const ArcConstants& arc, float* out);

/// Scans one block of entities (`first_entity` is block row 0's id)
/// against `num_arcs` DNF branches and pushes each entity's minimum
/// distance into `acc` unless it exceeds the admission bound. With `prune`
/// the bound is acc->bound(), frozen for the block, and the kernel may
/// abandon the block once every (entity, branch) partial sum exceeds it;
/// exact for top-k whenever ρ > 0 and η >= 0. Without it, every entity is
/// scored in full and pushed. `partial` is scratch of num_arcs *
/// kScanLanes floats. Returns the number of dimensions read.
int64_t PushBlockTopK(const ArcConstants* arcs, size_t num_arcs,
                      const EntityBlock& block, int64_t first_entity,
                      bool prune, float* partial, TopKAccumulator* acc,
                      ScanStats* stats);

/// Streams rows [begin, end) of a row-major table into `acc` in kernel
/// blocks, scoring each entity by its minimum distance over `arcs` (see
/// PushBlockTopK). Scratch is one arcs.size() * kScanLanes buffer.
void AccumulateRowsTopK(const float* table, int64_t dim,
                        const std::vector<ArcConstants>& arcs, int64_t begin,
                        int64_t end, bool prune, TopKAccumulator* acc,
                        ScanStats* stats);

}  // namespace halk::core

#endif  // HALK_CORE_DISTANCE_H_

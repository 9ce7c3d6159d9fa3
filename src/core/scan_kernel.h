#ifndef HALK_CORE_SCAN_KERNEL_H_
#define HALK_CORE_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace halk::core {

// The entity scan kernel: the one implementation of the ranking distance
// d = d_o + η·d_i (Eqs. 15-16) that every ranking path runs — in-RAM and
// store-backed tables, full distance vectors and bound-aware top-k alike.
//
// Each chord 2ρ|sin((θ − x)/2)| is evaluated as
//   2ρ·|sin(θ/2)·cos(x/2) − cos(θ/2)·sin(x/2)|,
// so the only trigonometry left per entity is one (sin θ/2, cos θ/2) pair
// per dimension, computed in registers by a fixed mul/add polynomial and
// shared across every arc and every DNF branch. The arc side (x ∈ {A_c,
// A_S, A_E}) is precomputed once per query by MakeArcConstants
// (core/distance.h). Entity state stays one float (θ) per entity·dim: no
// half-angle columns are stored anywhere.

/// Entities per kernel block: the kernel works on one stack column of
/// kScanLanes floats per dimension.
inline constexpr int64_t kScanLanes = 64;

/// Entity-independent quantities of one arc on one dimension.
struct ArcDimConstants {
  float sin_center = 0.0f;  // sin(A_c / 2)
  float cos_center = 1.0f;  // cos(A_c / 2)
  float sin_start = 0.0f;   // sin(A_S / 2)
  float cos_start = 1.0f;   // cos(A_S / 2)
  float sin_end = 0.0f;     // sin(A_E / 2)
  float cos_end = 1.0f;     // cos(A_E / 2)
  float half_width = 0.0f;  // half-arc chord 2ρ|sin(A_l / 4ρ)|
};

/// One arc (one DNF branch) prepared for scanning: per-dimension constants
/// plus the radius and inside-distance weight.
struct ArcConstants {
  float rho = 1.0f;
  float eta = 0.0f;
  std::vector<ArcDimConstants> dims;
};

/// Up to kScanLanes consecutive row-major entity rows, read in place:
/// entity i's dimension j is base[i * dim + j].
struct EntityBlock {
  const float* base = nullptr;
  int64_t rows = 0;
};

/// Scans one block against `num_arcs` >= 1 arcs of equal dimension and
/// returns how many dimensions it read.
///
/// - Return == dim: `out[i]` (i < block.rows) is entity i's exact minimum
///   distance over the arcs. Each (entity, arc) sum runs over every
///   dimension in order, whatever `bound` is, so the value never depends
///   on the block an entity was scanned in or on the bound.
/// - Return < dim: every (entity, arc) partial sum exceeded `bound`, so
///   the block was abandoned and `out` is untouched. Exact for top-k
///   pruning whenever ρ > 0 and η >= 0 (every per-dimension term is then
///   non-negative, so a partial sum is a lower bound of the distance);
///   pass bound = +inf to disable it.
///
/// `partial` is caller scratch of num_arcs * kScanLanes floats.
using ScanKernelFn = int64_t (*)(const ArcConstants* arcs, size_t num_arcs,
                                 const EntityBlock& block, float bound,
                                 float* partial, float* out);

/// The kernel build chosen for this CPU, resolved once per process.
ScanKernelFn ScanKernel();

/// The two builds of the one kernel body, for tests and benchmarks: the
/// baseline-ISA build (auto-vectorized to SSE2 or NEON) and, on x86-64
/// CPUs with AVX2, the AVX2 build (nullptr elsewhere). They are bitwise
/// equal.
ScanKernelFn PortableScanKernel();
ScanKernelFn Avx2ScanKernel();

/// The kernel's half-angle pair for n angles: sin_half[i] ≈ sin(θ_i / 2)
/// and cos_half[i] ≈ cos(θ_i / 2) from the same polynomial the scan uses
/// (portable build). Finite for every finite input; NaN in, NaN out.
void HalfAngleSinCos(const float* theta, int64_t n, float* sin_half,
                     float* cos_half);

}  // namespace halk::core

#endif  // HALK_CORE_SCAN_KERNEL_H_

// The scan kernel TU (core/scan_kernel.h). One always_inline body compiled
// twice — baseline ISA and AVX2 — and chosen once per process through a
// function pointer, following pgvector's halfutils.h dispatch. Built with
// -ffp-contract=off (src/CMakeLists.txt) so neither build fuses a
// multiply-add: both round every operation the same way and are bitwise
// equal. Selects are written as bit masks so the vectorizer if-converts
// them, and there is no float-to-int conversion anywhere, so no input
// (NaN, ±inf, ±FLT_MAX) can reach undefined behavior. No libm calls live
// here; the `scan-kernel-no-libm` lint rule keeps it that way.

#include "core/scan_kernel.h"

#include <bit>
#include <limits>

#define HALK_SCAN_INLINE inline __attribute__((always_inline))

namespace halk::core {
namespace {

constexpr uint32_t kSignBit = 0x80000000u;
constexpr uint32_t kAbsMask = 0x7fffffffu;

// Cody–Waite split of π/2 (cephes' π/4 split, doubled). kPio2A has 8
// significant bits, so m * kPio2A is exact for every quadrant count m below
// 2^16 (|θ| up to ~2e5).
constexpr float kPio2A = 1.5703125f;
constexpr float kPio2B = 4.837512969970703125e-4f;
constexpr float kPio2C = 7.54978995489188216e-8f;
constexpr float kTwoOverPi = 0.636619772367581343f;
// Adding 2^23 to a non-negative float below 2^22 rounds it to the nearest
// integer and leaves that integer in the low mantissa bits.
constexpr float kRoundMagic = 8388608.0f;
// Larger half-angles are clamped so the quadrant count stays below 2^22:
// the result is then finite but meaningless, like any float angle whose
// ulp exceeds a full turn.
constexpr float kMaxHalfAngle = 4194304.0f;

// cephes sinf/cosf minimax coefficients on [-π/4, π/4].
constexpr float kSin1 = -1.6666654611e-1f;
constexpr float kSin2 = 8.3321608736e-3f;
constexpr float kSin3 = -1.9515295891e-4f;
constexpr float kCos1 = 4.166664568298827e-2f;
constexpr float kCos2 = -1.388731625493765e-3f;
constexpr float kCos3 = 2.443315711809948e-5f;

HALK_SCAN_INLINE uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }
HALK_SCAN_INLINE float FromBits(uint32_t b) { return std::bit_cast<float>(b); }
HALK_SCAN_INLINE uint32_t MaskOf(bool b) {
  return 0u - static_cast<uint32_t>(b);
}
HALK_SCAN_INLINE float Select(uint32_t mask, float if_set, float if_clear) {
  return FromBits((Bits(if_set) & mask) | (Bits(if_clear) & ~mask));
}
HALK_SCAN_INLINE float Abs(float x) { return FromBits(Bits(x) & kAbsMask); }

/// (sin θ/2, cos θ/2): reduce |θ/2| by the nearest multiple m of π/2, run
/// the two minimax polynomials on the remainder, then swap and negate by
/// the quadrant m mod 4 and the sign of θ.
HALK_SCAN_INLINE void HalfAngle(float theta, float* sin_half,
                                float* cos_half) {
  const float h = theta * 0.5f;
  const uint32_t sign = Bits(h) & kSignBit;
  float x = Abs(h);
  // A comparison false for NaN, so NaN passes through unclamped.
  x = Select(MaskOf(x > kMaxHalfAngle), kMaxHalfAngle, x);
  const float q = x * kTwoOverPi + kRoundMagic;
  const uint32_t quadrant = Bits(q);
  const float m = q - kRoundMagic;
  const float r = ((x - m * kPio2A) - m * kPio2B) - m * kPio2C;
  const float z = r * r;
  const float sin_r = ((kSin3 * z + kSin2) * z + kSin1) * z * r + r;
  const float cos_r =
      ((kCos3 * z + kCos2) * z + kCos1) * z * z - 0.5f * z + 1.0f;
  const uint32_t odd = MaskOf((quadrant & 1u) != 0u);
  const float s = Select(odd, cos_r, sin_r);
  const float c = Select(odd, sin_r, cos_r);
  *sin_half = FromBits(Bits(s) ^ ((quadrant & 2u) << 30) ^ sign);
  *cos_half = FromBits(Bits(c) ^ (((quadrant + 1u) & 2u) << 30));
}

HALK_SCAN_INLINE int64_t ScanBody(const ArcConstants* arcs, size_t num_arcs,
                                  const EntityBlock& block, float bound,
                                  float* partial, float* out) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const int64_t dim = static_cast<int64_t>(arcs[0].dims.size());
  const int64_t rows = block.rows;
  // Lanes past the block's rows start at +inf: always "dead" for pruning,
  // never written out.
  for (size_t b = 0; b < num_arcs; ++b) {
    float* p = partial + b * kScanLanes;
    for (int64_t i = 0; i < kScanLanes; ++i) p[i] = i < rows ? 0.0f : kInf;
  }
  // Each dimension of the rows is copied into one zero-padded stack column.
  alignas(64) float column[kScanLanes];
  alignas(64) float sin_half[kScanLanes];
  alignas(64) float cos_half[kScanLanes];
  for (int64_t j = 0; j < dim; ++j) {
    int64_t i = 0;
    for (; i < rows; ++i) column[i] = block.base[i * dim + j];
    for (; i < kScanLanes; ++i) column[i] = 0.0f;
    for (i = 0; i < kScanLanes; ++i) {
      HalfAngle(column[i], &sin_half[i], &cos_half[i]);
    }
    uint32_t all_dead = ~0u;
    for (size_t b = 0; b < num_arcs; ++b) {
      const ArcDimConstants k = arcs[b].dims[static_cast<size_t>(j)];
      const float two_rho = 2.0f * arcs[b].rho;
      const float eta = arcs[b].eta;
      const float outside_width = eta * k.half_width;
      float* p = partial + b * kScanLanes;
      for (int64_t i = 0; i < kScanLanes; ++i) {
        const float s = sin_half[i];
        const float c = cos_half[i];
        const float to_center =
            two_rho * Abs(s * k.cos_center - c * k.sin_center);
        const float to_start = two_rho * Abs(s * k.cos_start - c * k.sin_start);
        const float to_end = two_rho * Abs(s * k.cos_end - c * k.sin_end);
        const float nearer =
            Select(MaskOf(to_end < to_start), to_end, to_start);
        // Outside the arc: chord to the nearer endpoint plus η times the
        // half-width; inside: η times the chord to the center.
        const uint32_t outside = MaskOf(to_center > k.half_width);
        p[i] += Select(outside, nearer + outside_width, eta * to_center);
        all_dead &= MaskOf(p[i] > bound);
      }
    }
    if (all_dead != 0u && j + 1 < dim) return j + 1;
  }
  // DNF union: the minimum over arcs, folded in arc order exactly like the
  // elementwise min-merge of per-branch distance vectors.
  for (int64_t i = 0; i < rows; ++i) {
    float best = partial[i];
    for (size_t b = 1; b < num_arcs; ++b) {
      const float v = partial[b * kScanLanes + static_cast<size_t>(i)];
      best = v < best ? v : best;
    }
    out[i] = best;
  }
  return dim;
}

int64_t ScanPortable(const ArcConstants* arcs, size_t num_arcs,
                     const EntityBlock& block, float bound, float* partial,
                     float* out) {
  return ScanBody(arcs, num_arcs, block, bound, partial, out);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) int64_t ScanAvx2(const ArcConstants* arcs,
                                                 size_t num_arcs,
                                                 const EntityBlock& block,
                                                 float bound, float* partial,
                                                 float* out) {
  return ScanBody(arcs, num_arcs, block, bound, partial, out);
}

bool CpuHasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}
#endif

}  // namespace

ScanKernelFn ScanKernel() {
  static const ScanKernelFn kernel =
      Avx2ScanKernel() != nullptr ? Avx2ScanKernel() : PortableScanKernel();
  return kernel;
}

ScanKernelFn PortableScanKernel() { return &ScanPortable; }

ScanKernelFn Avx2ScanKernel() {
#if defined(__x86_64__)
  static const bool supported = CpuHasAvx2();
  return supported ? &ScanAvx2 : nullptr;
#else
  return nullptr;
#endif
}

void HalfAngleSinCos(const float* theta, int64_t n, float* sin_half,
                     float* cos_half) {
  for (int64_t i = 0; i < n; ++i) {
    HalfAngle(theta[i], &sin_half[i], &cos_half[i]);
  }
}

}  // namespace halk::core

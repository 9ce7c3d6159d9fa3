#include "core/scan_filter.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/logging.h"

namespace halk::core {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;
constexpr double kBucketsPerRadian = kCodeBuckets / kTwoPi;

// The slack. For a coded θ (finite, |θ| <= kMaxCodedAngle) the kernel's
// half-angles are within 1e-6 of libm, and the arc constants are float
// roundings of exact sines, so each chord the kernel computes,
// 2ρ|s·cos(X/2) − c·sin(X/2)|, is within 2ρ·(2e-6 + 4·2^-24) ≈ 2ρ·2.3e-6
// of the exact chord, then scaled by at most three roundings. The tables
// take twice that: an absolute kChordSlack·2ρ per chord plus a relative
// kTermSlack per term. Float summation over d non-negative terms loses at
// most (d − 1)·2^-24 of the sum, which Threshold takes out of the bound.
constexpr double kChordSlack = 4e-6;
constexpr double kTermSlack = 0x1.0p-20;

/// sin(b·π/16) for b = 0..8. Bucket edge e (angle e·2π/16, e = 0..16)
/// has half-angle e·π/16, whose sin and cos both come from this table.
constexpr std::array<double, 9> kSinSixteenths = {
    0.0,
    0.19509032201612826785,
    0.38268343236508977173,
    0.55557023301960222474,
    0.70710678118654752440,
    0.83146961230254523708,
    0.92387953251128675613,
    0.98078528040323044913,
    1.0};

double EdgeSinHalf(size_t e) { return kSinSixteenths[e <= 8 ? e : 16 - e]; }
double EdgeCosHalf(size_t e) {
  return e <= 8 ? kSinSixteenths[8 - e] : -kSinSixteenths[e - 8];
}

/// Minimum over each bucket of the exact chord 2ρ|v|·|sin(θ/2 − φ)| to the
/// point X whose kernel constants are (sin_x, cos_x) = |v|·(sin φ, cos φ).
/// The chord grows with θ's circular distance from X, so its minimum over
/// a bucket is 0 when the bucket holds X and is at the nearer edge
/// otherwise. As the edge half-angle runs over [0, π], sin(e/2 − φ)
/// changes sign once, across X's bucket.
std::array<double, kCodeBuckets> BucketChordMin(double two_rho, float sin_x,
                                                float cos_x) {
  std::array<double, kCodeBuckets + 1> at_edge;
  for (size_t e = 0; e <= kCodeBuckets; ++e) {
    at_edge[e] = EdgeSinHalf(e) * cos_x - EdgeCosHalf(e) * sin_x;
  }
  size_t home = 0;
  for (size_t b = 0; b < kCodeBuckets; ++b) {
    if ((at_edge[b] < 0.0) != (at_edge[b + 1] < 0.0) ||
        at_edge[b] == 0.0) {
      home = b;
      break;
    }
  }
  std::array<double, kCodeBuckets> out;
  for (size_t b = 0; b < kCodeBuckets; ++b) {
    out[b] = b == home ? 0.0
                       : two_rho * std::min(std::fabs(at_edge[b]),
                                            std::fabs(at_edge[b + 1]));
  }
  return out;
}

bool Finite(const ArcDimConstants& k) {
  for (const float v : {k.sin_center, k.cos_center, k.sin_start, k.cos_start,
                        k.sin_end, k.cos_end, k.half_width}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

uint16_t FilterPortable(const uint8_t* lut, size_t num_arcs, int64_t dim,
                        const uint8_t* codes, uint16_t* out) {
  constexpr int64_t kHalf = kCodeBytesPerDim;
  std::fill(out, out + kScanLanes, std::numeric_limits<uint16_t>::max());
  for (size_t a = 0; a < num_arcs; ++a) {
    uint16_t sum[kScanLanes] = {};
    for (int64_t j = 0; j < dim; ++j) {
      const uint8_t* table = lut + (a * static_cast<size_t>(dim) +
                                    static_cast<size_t>(j)) * 16;
      const uint8_t* c = codes + j * kHalf;
      for (int64_t i = 0; i < kHalf; ++i) {
        sum[i] = static_cast<uint16_t>(sum[i] + table[c[i] & 0x0f]);
        sum[i + kHalf] = static_cast<uint16_t>(sum[i + kHalf] + table[c[i] >> 4]);
      }
    }
    for (int64_t i = 0; i < kScanLanes; ++i) out[i] = std::min(out[i], sum[i]);
  }
  return *std::min_element(out, out + kScanLanes);
}

#if defined(__x86_64__)
/// One 256-bit load carries a dimension's 64 codes; two in-lane `pshufb`s
/// against the broadcast table look all of them up, and the bytes widen to
/// four uint16 accumulators of 16 lanes (entities 0-15, 16-31, 32-47,
/// 48-63).
__attribute__((target("avx2"))) uint16_t FilterAvx2(const uint8_t* lut,
                                                    size_t num_arcs,
                                                    int64_t dim,
                                                    const uint8_t* codes,
                                                    uint16_t* out) {
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  __m256i best[4];
  for (__m256i& b : best) b = _mm256_set1_epi16(-1);
  for (size_t a = 0; a < num_arcs; ++a) {
    __m256i sum[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                      _mm256_setzero_si256(), _mm256_setzero_si256()};
    for (int64_t j = 0; j < dim; ++j) {
      const __m256i table = _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(
              lut + (a * static_cast<size_t>(dim) + static_cast<size_t>(j)) *
                        16)));
      const __m256i c = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(codes + j * kCodeBytesPerDim));
      const __m256i lo =
          _mm256_shuffle_epi8(table, _mm256_and_si256(c, low_nibble));
      const __m256i hi = _mm256_shuffle_epi8(
          table, _mm256_and_si256(_mm256_srli_epi16(c, 4), low_nibble));
      sum[0] = _mm256_add_epi16(
          sum[0], _mm256_cvtepu8_epi16(_mm256_castsi256_si128(lo)));
      sum[1] = _mm256_add_epi16(
          sum[1], _mm256_cvtepu8_epi16(_mm256_extracti128_si256(lo, 1)));
      sum[2] = _mm256_add_epi16(
          sum[2], _mm256_cvtepu8_epi16(_mm256_castsi256_si128(hi)));
      sum[3] = _mm256_add_epi16(
          sum[3], _mm256_cvtepu8_epi16(_mm256_extracti128_si256(hi, 1)));
    }
    for (int q = 0; q < 4; ++q) best[q] = _mm256_min_epu16(best[q], sum[q]);
  }
  for (int q = 0; q < 4; ++q) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 16 * q), best[q]);
  }
  const __m256i m = _mm256_min_epu16(_mm256_min_epu16(best[0], best[1]),
                                     _mm256_min_epu16(best[2], best[3]));
  return static_cast<uint16_t>(_mm_cvtsi128_si32(_mm_minpos_epu16(
      _mm_min_epu16(_mm256_castsi256_si128(m),
                    _mm256_extracti128_si256(m, 1)))));
}
#endif

}  // namespace

void ResetCodes(int64_t num_entities, int64_t dim, EntityCodes* codes) {
  codes->num_entities = num_entities;
  codes->dim = dim;
  const int64_t blocks = (num_entities + kScanLanes - 1) / kScanLanes;
  codes->bytes.assign(static_cast<size_t>(blocks * dim * kCodeBytesPerDim),
                      0);
  codes->always_scored.clear();
}

void EncodeEntity(int64_t entity, const float* row, int64_t stride,
                  EntityCodes* codes) {
  HALK_CHECK(entity >= 0 && entity < codes->num_entities);
  const int64_t lane = entity % kScanLanes;
  const int shift = lane < kCodeBytesPerDim ? 0 : 4;
  uint8_t* cell = codes->bytes.data() +
                  (entity / kScanLanes) * codes->dim * kCodeBytesPerDim +
                  lane % kCodeBytesPerDim;
  bool coded = true;
  for (int64_t j = 0; j < codes->dim; ++j, cell += kCodeBytesPerDim) {
    const float theta = row[j * stride];
    // False for NaN as well.
    if (!(std::fabs(theta) <= kMaxCodedAngle)) {
      coded = false;
      continue;
    }
    // floor(θ / (2π/16)) mod 16 is the bucket of θ wrapped to [0, 2π).
    const double t = static_cast<double>(theta) * kBucketsPerRadian;
    int64_t bucket = static_cast<int64_t>(t);
    if (static_cast<double>(bucket) > t) --bucket;
    const auto code = static_cast<uint8_t>((bucket & (kCodeBuckets - 1))
                                           << shift);
    *cell = static_cast<uint8_t>((*cell & ~(0x0f << shift)) | code);
  }
  if (!coded) codes->always_scored.push_back(entity);
}

int64_t FilterTables::Threshold(float bound) const {
  constexpr int64_t kKeepAll = 0xfffe;
  if (bound < 0.0f) return -1;
  // S > floor(x) + 1 implies S > x, i.e. S·unit·(1 − slack) > bound.
  const double x =
      static_cast<double>(bound) / (unit * (1.0 - sum_slack));
  if (!(x < static_cast<double>(kKeepAll - 1))) return kKeepAll;
  return static_cast<int64_t>(x) + 1;
}

bool BuildFilterTables(const std::vector<ArcConstants>& arcs,
                       FilterTables* out) {
  if (arcs.empty()) return false;
  const int64_t dim = static_cast<int64_t>(arcs[0].dims.size());
  if (dim < 1 || dim > 256) return false;
  for (const ArcConstants& arc : arcs) {
    if (!(arc.rho > 0.0f && arc.eta >= 0.0f) || !std::isfinite(arc.rho) ||
        !std::isfinite(arc.eta) ||
        static_cast<int64_t>(arc.dims.size()) != dim ||
        !std::all_of(arc.dims.begin(), arc.dims.end(), Finite)) {
      return false;
    }
  }

  // Lower bounds in distance units first, then one shared unit.
  const size_t cells = arcs.size() * static_cast<size_t>(dim) * kCodeBuckets;
  std::vector<double> lower(cells);
  double top = 0.0;
  size_t next = 0;
  for (const ArcConstants& arc : arcs) {
    const double two_rho = 2.0 * static_cast<double>(arc.rho);
    const double eta = arc.eta;
    const double slack = two_rho * kChordSlack;
    for (const ArcDimConstants& k : arc.dims) {
      const auto center = BucketChordMin(two_rho, k.sin_center, k.cos_center);
      const auto start = BucketChordMin(two_rho, k.sin_start, k.cos_start);
      const auto end = BucketChordMin(two_rho, k.sin_end, k.cos_end);
      const double half_width = k.half_width;
      for (size_t b = 0; b < kCodeBuckets; ++b) {
        // Outside the arc the kernel adds the chord to the nearer endpoint
        // and η times the half-width; inside, η times the chord to the
        // center — possible in this bucket only if that chord can come out
        // at or below the half-width.
        double lb = (std::min(start[b], end[b]) + eta * half_width) *
                        (1.0 - kTermSlack) -
                    slack;
        if (center[b] * (1.0 - kTermSlack) - slack <= half_width) {
          lb = std::min(lb, eta * (center[b] * (1.0 - kTermSlack) - slack));
        }
        lb = std::max(lb, 0.0);
        lower[next++] = lb;
        top = std::max(top, lb);
      }
    }
  }

  out->dim = dim;
  out->num_arcs = arcs.size();
  out->unit = top > 0.0 ? top / 255.0 : 1.0;
  out->sum_slack = static_cast<double>(dim + 2) * 0x1.0p-23;
  out->lut.resize(cells);
  for (size_t i = 0; i < cells; ++i) {
    out->lut[i] = static_cast<uint8_t>(
        std::min(255.0, std::floor(lower[i] / out->unit)));
  }
  return true;
}

FilterKernelFn FilterKernel() {
  static const FilterKernelFn kernel = Avx2FilterKernel() != nullptr
                                           ? Avx2FilterKernel()
                                           : PortableFilterKernel();
  return kernel;
}

FilterKernelFn PortableFilterKernel() { return &FilterPortable; }

FilterKernelFn Avx2FilterKernel() {
#if defined(__x86_64__)
  // One CPU check for both kernels: the scan kernel's.
  return Avx2ScanKernel() != nullptr ? &FilterAvx2 : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace halk::core

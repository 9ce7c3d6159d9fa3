// The scan kernel (core/scan_kernel.h): portable vs AVX2 bitwise equality,
// half-angle accuracy and robustness, agreement with the differentiable
// ArcDistance, exactness of bound-aware pruning, and Evaluate metrics
// against the libm form of the distance it replaced. The filter of the
// two-stage scan (core/scan_filter.h): its lower bound never exceeds the
// kernel's distance, its builds agree, coded tables rank identically, and
// a table cut into segments gathers exactly like one segment.

#include "core/scan_kernel.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/distance.h"
#include "core/evaluator.h"
#include "core/halk_model.h"
#include "core/scan_filter.h"
#include "core/trainer.h"
#include "kg/synthetic.h"
#include "query/dnf.h"
#include "query/sampler.h"
#include "tensor/tensor.h"

namespace halk::core {
namespace {

constexpr float kPi = 3.14159265358979f;
constexpr float kInf = std::numeric_limits<float>::infinity();

std::vector<float> RandomAngles(Rng* rng, int64_t n, float lo, float hi) {
  std::vector<float> out(static_cast<size_t>(n));
  for (float& x : out) {
    x = lo + static_cast<float>(rng->Uniform()) * (hi - lo);
  }
  return out;
}

/// Random arcs of width `dim`: centers on the circle, lengths in [0, 3].
std::vector<ArcConstants> RandomArcs(Rng* rng, int64_t dim, int count,
                                     float rho, float eta) {
  std::vector<ArcConstants> arcs;
  for (int b = 0; b < count; ++b) {
    const std::vector<float> center = RandomAngles(rng, dim, 0.0f, 2 * kPi);
    const std::vector<float> length = RandomAngles(rng, dim, 0.0f, 3.0f);
    arcs.push_back(
        MakeArcConstants(center.data(), length.data(), dim, rho, eta));
  }
  return arcs;
}

/// Angles that stress range reduction: signed zeros, denormals, one ulp
/// either side of kπ/2, huge and non-finite values.
std::vector<float> AdversarialAngles() {
  std::vector<float> out = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            FLT_MIN / 4.0f,
                            -FLT_MIN / 3.0f,
                            FLT_MIN,
                            1e4f,
                            -1e4f,
                            9999.999f,
                            FLT_MAX,
                            -FLT_MAX,
                            kInf,
                            -kInf,
                            std::numeric_limits<float>::quiet_NaN()};
  for (int k = -40; k <= 40; ++k) {
    // θ/2 = kπ/2 ± 1 ulp, i.e. θ = kπ ± 2 ulp of the half-angle.
    const float half = static_cast<float>(k) * (kPi / 2.0f);
    for (const float h : {std::nextafter(half, -kInf), half,
                          std::nextafter(half, kInf)}) {
      out.push_back(2.0f * h);
    }
  }
  return out;
}

/// The libm form of the arc distance that every ranking path ran before
/// the scan kernel, kept here as the reference the kernel is held to.
float LibmArcPointDistance(const float* point, const float* center,
                           const float* length, int64_t dim, float rho,
                           float eta) {
  float d_o = 0.0f;
  float d_i = 0.0f;
  for (int64_t i = 0; i < dim; ++i) {
    const float a_s = center[i] - length[i] / (2.0f * rho);
    const float a_e = center[i] + length[i] / (2.0f * rho);
    const float to_start =
        2.0f * rho * std::fabs(std::sin((point[i] - a_s) / 2.0f));
    const float to_end =
        2.0f * rho * std::fabs(std::sin((point[i] - a_e) / 2.0f));
    const float to_center =
        2.0f * rho * std::fabs(std::sin((point[i] - center[i]) / 2.0f));
    const float half_width =
        2.0f * rho * std::fabs(std::sin(length[i] / (4.0f * rho)));
    if (to_center > half_width) d_o += std::min(to_start, to_end);
    d_i += std::min(to_center, half_width);
  }
  return d_o + eta * d_i;
}

/// Runs `kernel` over a row-major table in blocks; returns the per-block
/// dims-read counts and fills `out` (untouched rows of abandoned blocks
/// keep their previous value).
std::vector<int64_t> RunBlocks(ScanKernelFn kernel,
                               const std::vector<ArcConstants>& arcs,
                               const std::vector<float>& table, int64_t dim,
                               float bound, std::vector<float>* out) {
  const int64_t n = static_cast<int64_t>(table.size()) / dim;
  out->assign(static_cast<size_t>(n), -1.0f);
  std::vector<float> partial(arcs.size() * kScanLanes);
  std::vector<int64_t> dims;
  for (int64_t e = 0; e < n; e += kScanLanes) {
    const EntityBlock block{table.data() + e * dim,
                            std::min(kScanLanes, n - e)};
    dims.push_back(kernel(arcs.data(), arcs.size(), block, bound,
                          partial.data(), out->data() + e));
  }
  return dims;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Bitwise equal, except that any NaN matches any NaN: IEEE leaves the
/// payload of an operation on two NaNs to the operand order the compiler
/// picked, which the kernel contract does not pin down.
bool SameBitsOrBothNan(const std::vector<float>& a,
                       const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::bit_cast<uint32_t>(a[i]) != std::bit_cast<uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST(ScanKernelTest, PortableAndAvx2AreBitwiseEqual) {
  const ScanKernelFn avx2 = Avx2ScanKernel();
  if (avx2 == nullptr) GTEST_SKIP() << "CPU has no AVX2 build";
  const ScanKernelFn portable = PortableScanKernel();
  Rng rng(5);
  const int64_t dim = 12;
  // Random tables (with a partial last block) and the adversarial angles
  // spread over every dimension.
  std::vector<std::vector<float>> tables;
  tables.push_back(RandomAngles(&rng, 203 * dim, -1e4f, 1e4f));
  tables.push_back(RandomAngles(&rng, 64 * dim, 0.0f, 2 * kPi));
  const std::vector<float> adversarial = AdversarialAngles();
  std::vector<float> hard(adversarial.size() * dim);
  for (size_t i = 0; i < hard.size(); ++i) {
    hard[i] = adversarial[(i * 7 + i / dim) % adversarial.size()];
  }
  tables.push_back(hard);
  for (const std::vector<float>& table : tables) {
    for (int branches : {1, 3}) {
      const std::vector<ArcConstants> arcs =
          RandomArcs(&rng, dim, branches, 1.0f, 0.9f);
      for (const float bound : {kInf, 4.0f, 0.5f}) {
        std::vector<float> a;
        std::vector<float> b;
        EXPECT_EQ(RunBlocks(portable, arcs, table, dim, bound, &a),
                  RunBlocks(avx2, arcs, table, dim, bound, &b));
        EXPECT_TRUE(SameBitsOrBothNan(a, b))
            << branches << " branches, bound " << bound;
      }
    }
  }
}

TEST(ScanKernelTest, DispatchPicksABuildOfTheOneKernel) {
  const ScanKernelFn kernel = ScanKernel();
  EXPECT_TRUE(kernel == PortableScanKernel() || kernel == Avx2ScanKernel());
  if (Avx2ScanKernel() != nullptr) {
    EXPECT_EQ(kernel, Avx2ScanKernel());
  }
}

TEST(ScanKernelTest, HalfAnglesWithinOneMillionthOfLibm) {
  Rng rng(11);
  std::vector<float> theta = RandomAngles(&rng, 20000, -1e4f, 1e4f);
  const std::vector<float> small = RandomAngles(&rng, 5000, -10.0f, 10.0f);
  theta.insert(theta.end(), small.begin(), small.end());
  for (const float x : AdversarialAngles()) {
    if (std::isfinite(x) && std::fabs(x) <= 1e4f) theta.push_back(x);
  }
  const int64_t n = static_cast<int64_t>(theta.size());
  std::vector<float> s(theta.size());
  std::vector<float> c(theta.size());
  HalfAngleSinCos(theta.data(), n, s.data(), c.data());
  double worst = 0.0;
  for (size_t i = 0; i < theta.size(); ++i) {
    const double half = static_cast<double>(theta[i]) / 2.0;
    worst = std::max(worst, std::fabs(s[i] - std::sin(half)));
    worst = std::max(worst, std::fabs(c[i] - std::cos(half)));
  }
  EXPECT_LE(worst, 1e-6);
  // Signed zeros and denormals keep their sine exactly.
  for (const float x : {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
                        -FLT_MIN}) {
    float sh = 1.0f;
    float ch = 0.0f;
    HalfAngleSinCos(&x, 1, &sh, &ch);
    EXPECT_EQ(std::bit_cast<uint32_t>(sh), std::bit_cast<uint32_t>(x * 0.5f));
    EXPECT_EQ(ch, 1.0f);
  }
}

TEST(ScanKernelTest, HalfAnglesFiniteAtExtremesAndNanPropagates) {
  const float extremes[] = {FLT_MAX, -FLT_MAX, kInf, -kInf, 3e38f, -1e30f};
  for (const float x : extremes) {
    float s = 0.0f;
    float c = 0.0f;
    HalfAngleSinCos(&x, 1, &s, &c);
    EXPECT_TRUE(std::isfinite(s)) << x;
    EXPECT_TRUE(std::isfinite(c)) << x;
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  float s = 0.0f;
  float c = 0.0f;
  HalfAngleSinCos(&nan, 1, &s, &c);
  EXPECT_TRUE(std::isnan(s));
  EXPECT_TRUE(std::isnan(c));
}

TEST(ScanKernelTest, MatchesTensorArcDistance) {
  Rng rng(23);
  const int64_t rows = 150;
  const int64_t dim = 16;
  for (const float eta : {0.02f, 0.9f}) {
    const std::vector<float> center = RandomAngles(&rng, rows * dim, 0, 2 * kPi);
    const std::vector<float> length = RandomAngles(&rng, rows * dim, 0, 3.0f);
    const std::vector<float> point =
        RandomAngles(&rng, rows * dim, -4 * kPi, 4 * kPi);
    const EmbeddingBatch arc{tensor::Tensor::FromVector({rows, dim}, center),
                             tensor::Tensor::FromVector({rows, dim}, length)};
    const tensor::Tensor expected = ArcDistance(
        tensor::Tensor::FromVector({rows, dim}, point), arc, 1.0f, eta);
    for (int64_t r = 0; r < rows; ++r) {
      const float got = ArcPointDistance(
          point.data() + r * dim, center.data() + r * dim,
          length.data() + r * dim, dim, 1.0f, eta);
      const float want = expected.at(r);
      EXPECT_LE(std::fabs(got - want), 1e-5f * std::fabs(want))
          << "row " << r << ": " << got << " vs " << want;
    }
  }
}

TEST(ScanKernelTest, DistanceIsIndependentOfBlockAndLayout) {
  // The same entity scored in a full block, a partial block, a one-entity
  // block, or a table cut into separately stored segments (store-style row
  // groups) gets the same bits.
  Rng rng(31);
  const int64_t n = 150;
  const int64_t dim = 9;
  const std::vector<float> table = RandomAngles(&rng, n * dim, 0, 2 * kPi);
  const std::vector<ArcConstants> arcs = RandomArcs(&rng, dim, 1, 1.0f, 0.9f);
  const EntityTable row_major = EntityTable::RowMajor(table.data(), n, dim);
  std::vector<float> blocked(static_cast<size_t>(n));
  row_major.Distances(arcs[0], 0, n, blocked.data());
  for (int64_t e = 0; e < n; ++e) {
    float single = -1.0f;
    row_major.Distances(arcs[0], e, e + 1, &single);
    EXPECT_EQ(single, blocked[static_cast<size_t>(e)]) << e;
  }
  // Two row groups of 100 and 50 rows, each in its own buffer as the store
  // lays them out: blocks restart at the group boundary.
  std::vector<std::vector<float>> groups;
  EntityTable segmented;
  segmented.num_entities = n;
  segmented.dim = dim;
  for (const auto& [first, rows] : {std::pair<int64_t, int64_t>{0, 100},
                                    std::pair<int64_t, int64_t>{100, 50}}) {
    groups.emplace_back(table.begin() + first * dim,
                        table.begin() + (first + rows) * dim);
    segmented.segments.push_back({first, rows, groups.back().data()});
  }
  std::vector<float> from_segments(static_cast<size_t>(n));
  segmented.Distances(arcs[0], 0, n, from_segments.data());
  EXPECT_TRUE(BitwiseEqual(from_segments, blocked));
  std::vector<float> row(static_cast<size_t>(dim));
  for (int64_t e = 0; e < n; ++e) {
    segmented.CopyRow(e, row.data());
    for (int64_t j = 0; j < dim; ++j) {
      ASSERT_EQ(row[static_cast<size_t>(j)],
                table[static_cast<size_t>(e * dim + j)]);
    }
  }
}

TEST(ScanKernelTest, PrunedTopKEqualsFullScanTopK) {
  Rng rng(37);
  const int64_t n = 1000;
  const int64_t dim = 16;
  const std::vector<float> table = RandomAngles(&rng, n * dim, 0, 2 * kPi);
  const EntityTable row_major = EntityTable::RowMajor(table.data(), n, dim);
  // The same table with codes: the two-stage scan (core/scan_filter.h).
  EntityTable coded = row_major;
  coded.EncodeCodes(0, n);
  for (int branches : {1, 2, 4}) {
    const std::vector<ArcConstants> arcs =
        RandomArcs(&rng, dim, branches, 1.0f, 0.9f);
    // Full distances, min-merged over branches in branch order.
    std::vector<float> best(static_cast<size_t>(n));
    std::vector<float> dist(static_cast<size_t>(n));
    for (int b = 0; b < branches; ++b) {
      row_major.Distances(arcs[static_cast<size_t>(b)], 0, n,
                          b == 0 ? best.data() : dist.data());
      for (size_t i = 0; b > 0 && i < best.size(); ++i) {
        best[i] = std::min(best[i], dist[i]);
      }
    }
    for (const EntityTable* t : {&row_major, static_cast<const EntityTable*>(&coded)}) {
      for (const int64_t k : {1, 10, 100}) {
        TopKAccumulator pruned(k);
        ScanStats stats;
        t->AccumulateTopK(arcs, 0, n, /*prune=*/true, &pruned, &stats);
        EXPECT_EQ(pruned.Take(), TopKFromDistances(best, k))
            << branches << " branches, k " << k << ", coded "
            << !t->codes.empty();
        EXPECT_EQ(stats.entities_scanned, n);
        // The column-block counters are retired and always read 0.
        EXPECT_EQ(stats.column_blocks_scanned, 0);
        if (k == 1) {
          EXPECT_GT(stats.entities_pruned, 0);
        }
      }
    }
  }
}

/// Random arcs plus the shapes the filter's geometry must survive:
/// zero-length anchors, full-circle and wrapping lengths, and centers far
/// off [0, 2π).
std::vector<ArcConstants> FilterArcs(Rng* rng, int64_t dim, float rho,
                                     float eta) {
  std::vector<ArcConstants> arcs = RandomArcs(rng, dim, 3, rho, eta);
  const float full = 2.0f * kPi * rho;  // A_l / 2ρ = π: endpoints meet
  for (const float length : {0.0f, full, 2.0f * full, 5.3f * full}) {
    std::vector<float> center = RandomAngles(rng, dim, -50.0f, 50.0f);
    center[0] = 1e4f;
    const std::vector<float> lengths(static_cast<size_t>(dim), length);
    arcs.push_back(
        MakeArcConstants(center.data(), lengths.data(), dim, rho, eta));
  }
  return arcs;
}

/// A [n, dim] table: random angles over several turns, with the
/// adversarial angles spread over every dimension of the first rows.
std::vector<float> FilterTable(Rng* rng, int64_t n, int64_t dim) {
  std::vector<float> table = RandomAngles(rng, n * dim, -20.0f, 20.0f);
  const std::vector<float> adversarial = AdversarialAngles();
  for (size_t i = 0; i < adversarial.size() * 2 && i < table.size(); ++i) {
    table[(i * 5) % table.size()] = adversarial[i % adversarial.size()];
  }
  return table;
}

/// The filter sums of entities [0, n) against `tables` (one per entity).
std::vector<uint16_t> FilterSums(FilterKernelFn filter,
                                 const FilterTables& tables,
                                 const EntityCodes& codes) {
  std::vector<uint16_t> sums;
  uint16_t block[kScanLanes];
  for (int64_t c = 0; c * kScanLanes < codes.num_entities; ++c) {
    const uint16_t low = filter(tables.lut.data(), tables.num_arcs,
                                tables.dim, codes.Block(c), block);
    EXPECT_EQ(low, *std::min_element(block, block + kScanLanes));
    for (int64_t i = 0; i < kScanLanes && c * kScanLanes + i < codes.num_entities;
         ++i) {
      sums.push_back(block[i]);
    }
  }
  return sums;
}

// The filter's soundness property: for every coded entity, its de-quantized
// filter sum less the summation slack never exceeds the kernel's distance,
// so the threshold test drops only entities the kernel would reject.
TEST(ScanFilterTest, LowerBoundNeverExceedsKernelDistance) {
  Rng rng(41);
  const int64_t n = 300;
  for (const int64_t dim : {int64_t{1}, int64_t{7}, int64_t{32}}) {
    const std::vector<float> table = FilterTable(&rng, n, dim);
    EntityTable coded = EntityTable::RowMajor(table.data(), n, dim);
    coded.EncodeCodes(0, n);
    ASSERT_FALSE(coded.codes.always_scored.empty());
    for (const float rho : {1.0f, 0.37f, 3.0f}) {
      for (const float eta : {0.0f, 0.02f, 0.9f, 2.5f}) {
        for (const ArcConstants& arc : FilterArcs(&rng, dim, rho, eta)) {
          FilterTables tables;
          ASSERT_TRUE(BuildFilterTables({arc}, &tables));
          const std::vector<uint16_t> sums =
              FilterSums(FilterKernel(), tables, coded.codes);
          std::vector<float> dist(static_cast<size_t>(n));
          coded.Distances(arc, 0, n, dist.data());
          size_t next_uncoded = 0;
          for (int64_t e = 0; e < n; ++e) {
            const auto& uncoded = coded.codes.always_scored;
            if (next_uncoded < uncoded.size() &&
                uncoded[next_uncoded] == e) {
              ++next_uncoded;
              continue;
            }
            const double d = dist[static_cast<size_t>(e)];
            const uint16_t sum = sums[static_cast<size_t>(e)];
            ASSERT_LE(sum * tables.unit * (1.0 - tables.sum_slack), d)
                << "dim " << dim << ", rho " << rho << ", eta " << eta
                << ", entity " << e;
            // The threshold at the entity's own distance never drops it.
            ASSERT_LE(sum, tables.Threshold(dist[static_cast<size_t>(e)]));
          }
        }
      }
    }
  }
}

TEST(ScanFilterTest, PortableAndAvx2FiltersAgree) {
  const FilterKernelFn avx2 = Avx2FilterKernel();
  if (avx2 == nullptr) GTEST_SKIP() << "CPU has no AVX2 build";
  Rng rng(43);
  for (const int64_t dim : {int64_t{1}, int64_t{9}, int64_t{32},
                            int64_t{256}}) {
    for (const size_t arcs : {size_t{1}, size_t{3}}) {
      // Random codes and tables, saturated entries included.
      std::vector<uint8_t> codes(static_cast<size_t>(dim * kCodeBytesPerDim));
      for (uint8_t& c : codes) c = static_cast<uint8_t>(rng.Next() & 0xff);
      std::vector<uint8_t> lut(arcs * static_cast<size_t>(dim) * 16);
      for (uint8_t& v : lut) {
        v = rng.Uniform() < 0.2 ? 255 : static_cast<uint8_t>(rng.Next() & 0xff);
      }
      uint16_t a[kScanLanes];
      uint16_t b[kScanLanes];
      const uint16_t low_a =
          PortableFilterKernel()(lut.data(), arcs, dim, codes.data(), a);
      const uint16_t low_b = avx2(lut.data(), arcs, dim, codes.data(), b);
      ASSERT_EQ(low_a, low_b);
      ASSERT_EQ(low_a, *std::min_element(a, a + kScanLanes));
      for (int64_t i = 0; i < kScanLanes; ++i) {
        ASSERT_EQ(a[i], b[i]) << "dim " << dim << ", arcs " << arcs
                              << ", lane " << i;
      }
    }
  }
  // And over real codes and tables.
  const int64_t n = 200;
  const int64_t dim = 12;
  const std::vector<float> table = FilterTable(&rng, n, dim);
  EntityTable coded = EntityTable::RowMajor(table.data(), n, dim);
  coded.EncodeCodes(0, n);
  FilterTables tables;
  ASSERT_TRUE(BuildFilterTables(FilterArcs(&rng, dim, 1.0f, 0.9f), &tables));
  EXPECT_EQ(FilterSums(PortableFilterKernel(), tables, coded.codes),
            FilterSums(avx2, tables, coded.codes));
}

TEST(ScanFilterTest, FilterRefusesArcsItCannotBound) {
  Rng rng(47);
  const int64_t dim = 4;
  FilterTables tables;
  EXPECT_TRUE(BuildFilterTables(RandomArcs(&rng, dim, 2, 1.0f, 0.9f), &tables));
  EXPECT_FALSE(BuildFilterTables({}, &tables));
  EXPECT_FALSE(
      BuildFilterTables(RandomArcs(&rng, dim, 1, 1.0f, -0.5f), &tables));
  EXPECT_FALSE(BuildFilterTables(RandomArcs(&rng, dim, 1, 0.0f, 0.9f), &tables));
  std::vector<ArcConstants> nan_arc = RandomArcs(&rng, dim, 1, 1.0f, 0.9f);
  nan_arc[0].dims[2].sin_start = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(BuildFilterTables(nan_arc, &tables));
  EXPECT_FALSE(
      BuildFilterTables(RandomArcs(&rng, 257, 1, 1.0f, 0.9f), &tables));
  EXPECT_TRUE(BuildFilterTables(RandomArcs(&rng, 256, 1, 1.0f, 0.9f), &tables));
}

// A table seeded with the adversarial angles (NaN, ±inf, huge, denormal,
// kπ/2 ± 1 ulp) ranks identically with and without codes, at every k and
// over unions, and both equal the full distance scan.
TEST(ScanFilterTest, AdversarialTableRanksIdenticallyWithAndWithoutCodes) {
  Rng rng(53);
  const int64_t n = 700;
  const int64_t dim = 10;
  const std::vector<float> table = FilterTable(&rng, n, dim);
  const EntityTable plain = EntityTable::RowMajor(table.data(), n, dim);
  EntityTable coded = plain;
  coded.EncodeCodes(0, n);
  ASSERT_FALSE(coded.codes.always_scored.empty());
  for (int branches : {1, 2, 3}) {
    std::vector<ArcConstants> arcs = FilterArcs(&rng, dim, 1.0f, 0.9f);
    arcs.resize(static_cast<size_t>(branches));
    std::vector<float> best(static_cast<size_t>(n));
    std::vector<float> dist(static_cast<size_t>(n));
    for (int b = 0; b < branches; ++b) {
      plain.Distances(arcs[static_cast<size_t>(b)], 0, n,
                      b == 0 ? best.data() : dist.data());
      for (size_t i = 0; b > 0 && i < best.size(); ++i) {
        best[i] = dist[i] < best[i] ? dist[i] : best[i];
      }
    }
    for (const int64_t k : {int64_t{1}, int64_t{10}, int64_t{64}, n + 5}) {
      // Whole table and an unaligned sub-range, as a shard scans it.
      for (const auto& [begin, end] : {std::pair<int64_t, int64_t>{0, n},
                                       std::pair<int64_t, int64_t>{37, 611}}) {
        TopKAccumulator one_stage(k);
        TopKAccumulator two_stage(k);
        ScanStats stats;
        plain.AccumulateTopK(arcs, begin, end, true, &one_stage, nullptr);
        coded.AccumulateTopK(arcs, begin, end, true, &two_stage, &stats);
        std::vector<float> slice(best.begin() + begin, best.begin() + end);
        const std::vector<ScoredEntity> want =
            TopKFromDistances(slice, k, begin);
        EXPECT_EQ(one_stage.Take(), want);
        EXPECT_EQ(two_stage.Take(), want)
            << branches << " branches, k " << k << ", [" << begin << ", "
            << end << ")";
        EXPECT_EQ(stats.entities_scanned, end - begin);
        if (k == 1 && begin == 0) {
          EXPECT_GT(stats.entities_pruned, n / 2);
        }
      }
    }
  }
}

/// Segments `EntityTable::release` was called on, across the test.
int64_t released_segments = 0;
void CountRelease(const EntityTable::Segment&, int64_t) {
  ++released_segments;
}

// The two-stage scan gathers survivors across segment boundaries: a coded
// row-major table cut into segments of 1, 63, 64, 65 and 4,096 rows, each
// segment in its own buffer, gives the one-segment table's top-k bit for
// bit and the same scan counters, with and without a release hook.
TEST(ScanFilterTest, SegmentedTableGathersLikeOneSegment) {
  Rng rng(59);
  const int64_t n = 5000;
  const int64_t dim = 12;
  const std::vector<float> table = FilterTable(&rng, n, dim);
  EntityTable whole = EntityTable::RowMajor(table.data(), n, dim);
  whole.EncodeCodes(0, n);
  ASSERT_FALSE(whole.codes.always_scored.empty());
  const auto bits = [](const std::vector<ScoredEntity>& top) {
    std::vector<std::pair<int64_t, uint32_t>> out;
    for (const ScoredEntity& s : top) {
      out.emplace_back(s.entity, std::bit_cast<uint32_t>(s.distance));
    }
    return out;
  };
  for (const int64_t rows : {int64_t{1}, int64_t{63}, int64_t{64},
                             int64_t{65}, int64_t{4096}}) {
    std::vector<std::vector<float>> buffers;
    EntityTable cut;
    cut.num_entities = n;
    cut.dim = dim;
    for (int64_t first = 0; first < n; first += rows) {
      const int64_t last = std::min(n, first + rows);
      buffers.emplace_back(table.begin() + first * dim,
                           table.begin() + last * dim);
      cut.segments.push_back({first, last - first, buffers.back().data()});
    }
    cut.EncodeCodes(0, n);
    ASSERT_EQ(cut.codes, whole.codes) << rows;
    for (int branches : {1, 3}) {
      std::vector<ArcConstants> arcs = FilterArcs(&rng, dim, 1.0f, 0.9f);
      arcs.resize(static_cast<size_t>(branches));
      for (const int64_t k : {int64_t{1}, int64_t{10}, int64_t{100}}) {
        for (const auto& [begin, end] :
             {std::pair<int64_t, int64_t>{0, n},
              std::pair<int64_t, int64_t>{37, n - 11},
              std::pair<int64_t, int64_t>{1000, 1130}}) {
          TopKAccumulator want(k);
          ScanStats want_stats;
          whole.AccumulateTopK(arcs, begin, end, true, &want, &want_stats);
          const std::vector<ScoredEntity> want_top = want.Take();
          for (const bool release : {false, true}) {
            cut.release = release ? CountRelease : nullptr;
            released_segments = 0;
            TopKAccumulator got(k);
            ScanStats stats;
            cut.AccumulateTopK(arcs, begin, end, true, &got, &stats);
            const std::string label =
                "segments of " + std::to_string(rows) + ", " +
                std::to_string(branches) + " branches, k " +
                std::to_string(k) + ", [" + std::to_string(begin) + ", " +
                std::to_string(end) + "), release " + std::to_string(release);
            EXPECT_EQ(bits(got.Take()), bits(want_top)) << label;
            EXPECT_EQ(stats.entities_scanned, want_stats.entities_scanned)
                << label;
            EXPECT_EQ(stats.entities_pruned, want_stats.entities_pruned)
                << label;
            EXPECT_EQ(stats.entities_filtered, want_stats.entities_filtered)
                << label;
            // Every segment overlapping the range is released at least
            // once, after the gather passes it.
            EXPECT_GE(released_segments,
                      release ? (end - 1) / rows - begin / rows + 1 : 0)
                << label;
          }
        }
      }
    }
  }
}

TEST(ScanKernelTest, EvaluateMatchesLibmKernelOnTrainedModel) {
  kg::SyntheticKgOptions opt;
  opt.num_entities = 150;
  opt.num_relations = 6;
  opt.num_triples = 900;
  opt.seed = 33;
  const kg::Dataset dataset = kg::GenerateSyntheticKg(opt);
  Rng rng(3);
  kg::NodeGrouping grouping =
      kg::NodeGrouping::Random(dataset.train.num_entities(), 6, &rng);
  grouping.BuildAdjacency(dataset.train);
  ModelConfig config;
  config.num_entities = dataset.train.num_entities();
  config.num_relations = dataset.train.num_relations();
  config.dim = 8;
  config.hidden = 16;
  config.gamma = 6.0f;
  config.seed = 11;
  HalkModel model(config, &grouping);
  TrainerOptions train;
  train.steps = 200;
  train.batch_size = 16;
  train.num_negatives = 8;
  train.learning_rate = 5e-3f;
  train.structures = {query::StructureId::k1p, query::StructureId::k2i};
  train.queries_per_structure = 60;
  train.seed = 5;
  Trainer trainer(&model, &dataset.train, &grouping, train);
  ASSERT_TRUE(trainer.Train().ok());

  query::QuerySampler sampler(&dataset.train, 47);
  std::vector<query::GroundedQuery> queries;
  for (const query::StructureId s :
       {query::StructureId::k1p, query::StructureId::k2i,
        query::StructureId::k2u}) {
    auto sampled = sampler.SampleMany(s, 15);
    ASSERT_TRUE(sampled.ok());
    queries.insert(queries.end(), sampled->begin(), sampled->end());
  }
  Evaluator evaluator(&model);
  const Metrics got = evaluator.Evaluate(queries);

  // The same filtered ranks, scored with the libm distance.
  const int64_t n = config.num_entities;
  const int64_t d = config.dim;
  const float* table = model.entity_angles().data();
  Metrics want;
  for (const query::GroundedQuery& q : queries) {
    const std::vector<int64_t>& hard =
        q.hard_answers.empty() && q.easy_answers.empty() ? q.answers
                                                         : q.hard_answers;
    if (hard.empty()) continue;
    std::vector<float> dist(static_cast<size_t>(n), kInf);
    for (const query::QueryGraph& branch : query::ToDnf(q.graph)) {
      const EmbeddingBatch emb = model.EmbedQueries({&branch});
      for (int64_t e = 0; e < n; ++e) {
        dist[static_cast<size_t>(e)] = std::min(
            dist[static_cast<size_t>(e)],
            LibmArcPointDistance(table + e * d, emb.a.data(), emb.b.data(), d,
                                 config.rho, config.eta));
      }
    }
    double mrr = 0.0;
    double h1 = 0.0;
    double h3 = 0.0;
    double h10 = 0.0;
    for (const int64_t answer : hard) {
      int64_t rank = 1;
      for (int64_t e = 0; e < n; ++e) {
        if (dist[static_cast<size_t>(e)] < dist[static_cast<size_t>(answer)] &&
            !std::binary_search(q.answers.begin(), q.answers.end(), e)) {
          ++rank;
        }
      }
      mrr += 1.0 / static_cast<double>(rank);
      h1 += rank <= 1;
      h3 += rank <= 3;
      h10 += rank <= 10;
    }
    const double count = static_cast<double>(hard.size());
    want.mrr += mrr / count;
    want.hits1 += h1 / count;
    want.hits3 += h3 / count;
    want.hits10 += h10 / count;
    ++want.num_queries;
  }
  ASSERT_EQ(got.num_queries, want.num_queries);
  const double m = static_cast<double>(want.num_queries);
  EXPECT_NEAR(got.mrr, want.mrr / m, 1e-4);
  EXPECT_NEAR(got.hits1, want.hits1 / m, 1e-4);
  EXPECT_NEAR(got.hits3, want.hits3 / m, 1e-4);
  EXPECT_NEAR(got.hits10, want.hits10 / m, 1e-4);
}

}  // namespace
}  // namespace halk::core

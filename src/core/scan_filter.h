#ifndef HALK_CORE_SCAN_FILTER_H_
#define HALK_CORE_SCAN_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/scan_kernel.h"

namespace halk::core {

// Stage one of the exact two-stage top-k scan (EntityTable::AccumulateTopK).
// A VA-file filter (Weber, Schek & Blott, VLDB 1998) scanned the way FAISS's
// 4-bit fast scan is (André, Kermarrec & Le Scouarnec, VLDB 2015): each
// entity·dim keeps a 4-bit code of its wrapped θ, each query a 16-entry
// uint8 table per (arc, dimension) whose entry b lower-bounds the scan
// kernel's term over bucket b, and an entity whose table sum already
// exceeds the top-k admission bound is dropped without reading its θ.
// Survivors are scored by the unchanged ScanKernel(), so every admitted
// distance is still the kernel's value, bit for bit; the filter only has to
// be conservative, which the slack in BuildFilterTables guarantees.

/// Buckets of the code: bucket b holds wrapped θ in [b, b + 1) · 2π/16.
inline constexpr int kCodeBuckets = 16;

/// Bytes of one kernel block's codes per dimension: byte i holds entity i
/// in its low nibble and entity i + 32 in its high nibble.
inline constexpr int64_t kCodeBytesPerDim = kScanLanes / 2;

/// Entities with a non-finite θ, or |θ| above this on any dimension, are
/// not coded: the kernel's half-angle reduction is held to 1e-6 only up to
/// here (tests/core/scan_kernel_test.cc), so such entities are always
/// scored instead.
inline constexpr float kMaxCodedAngle = 1e4f;

/// The 4-bit codes of one entity table, laid out per kernel block of
/// kScanLanes entities (global ids [64c, 64c + 64) form block c),
/// dimension-major inside a block: dimension j of block c is the
/// kCodeBytesPerDim bytes at Block(c) + j · kCodeBytesPerDim, one block
/// reading 32 contiguous bytes per dimension. 0.5 byte per entity·dim.
struct EntityCodes {
  int64_t num_entities = 0;
  int64_t dim = 0;
  std::vector<uint8_t> bytes;
  /// Ascending ids of the entities the codes cannot bound (see
  /// kMaxCodedAngle); the filter never drops them.
  std::vector<int64_t> always_scored;

  bool empty() const { return bytes.empty(); }
  const uint8_t* Block(int64_t block) const {
    return bytes.data() + block * dim * kCodeBytesPerDim;
  }
  bool operator==(const EntityCodes&) const = default;
};

/// Sizes `codes` for a [num_entities, dim] table, all codes zero.
void ResetCodes(int64_t num_entities, int64_t dim, EntityCodes* codes);

/// Codes entity `entity` from its row (`dim` floats) with one multiply and
/// floor per value, no libm. Entities must be coded in ascending id order,
/// so always_scored stays sorted.
void EncodeEntity(int64_t entity, const float* row, EntityCodes* codes);

/// One request's filter tables: for each arc, dimension and bucket the
/// kernel's term over that bucket, lower-bounded, less a slack, rounded
/// down to a multiple of `unit` and stored in that unit.
struct FilterTables {
  int64_t dim = 0;
  size_t num_arcs = 0;
  std::vector<uint8_t> lut;  // num_arcs × dim × kCodeBuckets, arc-major
  double unit = 1.0;         // distance per table step
  double sum_slack = 0.0;    // relative rounding slack of a dim-term sum

  /// The largest filter sum of an entity that may still be admitted at
  /// `bound`: an entity whose sum (minimum over arcs) exceeds it has a
  /// kernel distance strictly above `bound`. Saturates at 0xfffe (+inf
  /// bound) and is -1 for a negative bound.
  int64_t Threshold(float bound) const;
};

/// The filter kernel: sums one block's codes (`dim` rows of
/// kCodeBytesPerDim bytes) through the tables of `num_arcs` >= 1 arcs
/// (`lut`: num_arcs × dim × 16 uint8, arc-major), writes out[i], i <
/// kScanLanes, as the minimum over arcs of entity i's sum, and returns the
/// minimum of out[]. Requires dim <= 257, so no uint16 sum can wrap.
using FilterKernelFn = uint16_t (*)(const uint8_t* lut, size_t num_arcs,
                                    int64_t dim, const uint8_t* codes,
                                    uint16_t* out);

/// The filter build chosen for this CPU, resolved once per process, and
/// its two builds: portable (scalar lookups) and, on x86-64 CPUs with AVX2,
/// 32 `pshufb` lookups per instruction (nullptr elsewhere). The arithmetic
/// is integer, so they produce identical sums.
FilterKernelFn FilterKernel();
FilterKernelFn PortableFilterKernel();
FilterKernelFn Avx2FilterKernel();

/// A filter sum that marks an entity stage two must skip (already scored
/// as a seed): above every real sum (at most 255 · 256) and every
/// threshold.
inline constexpr uint16_t kSeeded = 0xffff;

/// Stage two's survivor test over one code block: bit i is set iff
/// sums[i] <= threshold, i < kScanLanes, for a threshold in [-1, 0xfffe]
/// (FilterTables::Threshold's range). So -1 sets no bit and a kSeeded lane
/// is never set.
using SurvivorMaskFn = uint64_t (*)(const uint16_t* sums, int64_t threshold);

/// The survivor test chosen for this CPU, resolved once per process, and
/// its two builds: portable (one compare per lane) and, on x86-64 CPUs with
/// AVX2, four 16-lane compares (nullptr elsewhere). They return the same
/// mask.
SurvivorMaskFn SurvivorMask();
SurvivorMaskFn PortableSurvivorMask();
SurvivorMaskFn Avx2SurvivorMask();

/// Lanes [lo, hi) of a code block as a mask, 0 <= lo < kScanLanes and
/// lo <= hi <= kScanLanes: clips a survivor mask to a block's part of a
/// range or segment.
inline uint64_t LaneRange(int64_t lo, int64_t hi) {
  const uint64_t below_hi =
      hi == kScanLanes ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
  return below_hi & ~((uint64_t{1} << lo) - 1);
}

/// Builds the tables for the DNF branches `arcs`. Returns false, and the
/// filter must not run, unless the kernel's terms are non-negative and
/// finite (ρ > 0, η >= 0, finite arc constants) and 1 <= dim <= 256.
bool BuildFilterTables(const std::vector<ArcConstants>& arcs,
                       FilterTables* out);

}  // namespace halk::core

#endif  // HALK_CORE_SCAN_FILTER_H_

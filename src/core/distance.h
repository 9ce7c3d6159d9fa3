#ifndef HALK_CORE_DISTANCE_H_
#define HALK_CORE_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "core/arc.h"
#include "core/query_model.h"
#include "core/scan_filter.h"
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
/// one-row EntityTable scanned by the kernel (core/scan_kernel.h), so it
/// equals the value every ranking path computes for that pair, bit for bit.
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

/// Where the entity rows live: an entity-ordered list of segments, each a
/// run of consecutive entities read in place through strides, exactly the
/// layout facts an EntityBlock hands the scan kernel. The in-RAM table is
/// one row-major segment (row_stride = dim, dim_stride = 1); the store's is
/// one columnar segment per row group of every shard file (row_stride = 1,
/// dim_stride = floats between the group's column blocks).
///
/// One loop per job runs over it: top-k, distances and row copy. Each walks
/// the segments overlapping [begin, end) in blocks of at most kScanLanes
/// rows, and no block crosses a segment boundary. The table does not own
/// the rows; they must outlive it and stay immutable while it is scanned —
/// and, once EncodeCodes has run, for as long as the codes are kept. All
/// loops are const and safe to run concurrently.
struct EntityTable {
  struct Segment {
    int64_t first = 0;  // entity id of the segment's row 0
    int64_t rows = 0;
    const float* base = nullptr;
    int64_t row_stride = 0;
    int64_t dim_stride = 0;
  };

  /// A row-major [num_entities, dim] array as a one-segment table.
  static EntityTable RowMajor(const float* rows, int64_t num_entities,
                              int64_t dim);

  /// Copies entity's row (`dim` floats) into `out`, bit for bit.
  void CopyRow(int64_t entity, float* out) const;

  /// Exact distances from entities [begin, end) to `arc`: out[i] is entity
  /// begin + i's.
  void Distances(const ArcConstants& arc, int64_t begin, int64_t end,
                 float* out) const;

  /// Streams entities [begin, end) (clamped to the table) into `acc`,
  /// scoring each by its minimum distance over `arcs`, the DNF union
  /// semantics. With `prune` each kernel block is scanned against
  /// acc->bound(), frozen for the block, and abandoned once every (entity,
  /// branch) partial sum exceeds it; exact for top-k whenever ρ > 0 and
  /// η >= 0. With `prune` and codes (EncodeCodes) the scan is two-stage:
  /// the filter (core/scan_filter.h) first sums every entity's lower bound,
  /// the k lowest are scored to seed the bound, and only entities whose
  /// bound does not exceed acc->bound() are gathered into blocks for the
  /// kernel. Admitted entities carry their full kernel distance either way,
  /// so acc->Take() equals pushing every entity's distance at any partition
  /// of the range. Filter-dropped entities count as pruned. Columnar tables
  /// also count column blocks read and skipped per segment. Calls `release`
  /// (when set) on each segment once done with it.
  void AccumulateTopK(const std::vector<ArcConstants>& arcs, int64_t begin,
                      int64_t end, bool prune, TopKAccumulator* acc,
                      ScanStats* stats) const;

  /// Codes entities [begin, end) into `codes`, sizing it on the first call;
  /// ranges must come in ascending order. Reads every row once.
  void EncodeCodes(int64_t begin, int64_t end);

  int64_t num_entities = 0;
  int64_t dim = 0;
  bool columnar = false;
  std::vector<Segment> segments;  // ascending, contiguous from entity 0
  /// Optional hook run after a top-k scan finishes a segment: the store
  /// uses it to drop the segment's mapped pages (bounded residency).
  void (*release)(const Segment& segment, int64_t dim) = nullptr;
  /// The filter's codes; empty (the one-stage scan) until EncodeCodes.
  EntityCodes codes;
};

}  // namespace halk::core

#endif  // HALK_CORE_DISTANCE_H_

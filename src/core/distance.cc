#include "core/distance.h"

#include <algorithm>
#include <cmath>
#include <limits>

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
  const ArcConstants arc =
      MakeArcConstants(arc_center, arc_length, dim, rho, eta);
  float out = 0.0f;
  EntityTable::RowMajor(point_angles, 1, dim).Distances(arc, 0, 1, &out);
  return out;
}

ArcConstants MakeArcConstants(const float* arc_center,
                              const float* arc_length, int64_t dim, float rho,
                              float eta) {
  ArcConstants out;
  out.rho = rho;
  out.eta = eta;
  out.dims.resize(static_cast<size_t>(dim));
  for (int64_t i = 0; i < dim; ++i) {
    const float ac = arc_center[i];
    const float al = arc_length[i];
    const float a_s = ac - al / (2.0f * rho);
    const float a_e = ac + al / (2.0f * rho);
    ArcDimConstants& k = out.dims[static_cast<size_t>(i)];
    k.sin_center = std::sin(ac / 2.0f);
    k.cos_center = std::cos(ac / 2.0f);
    k.sin_start = std::sin(a_s / 2.0f);
    k.cos_start = std::cos(a_s / 2.0f);
    k.sin_end = std::sin(a_e / 2.0f);
    k.cos_end = std::cos(a_e / 2.0f);
    k.half_width = 2.0f * rho * std::fabs(std::sin(al / (4.0f * rho)));
  }
  return out;
}

namespace {

using Segment = EntityTable::Segment;

/// First segment overlapping [begin, ...): the last one starting at or
/// before `begin`.
std::vector<Segment>::const_iterator SegmentFor(
    const std::vector<Segment>& segments, int64_t begin) {
  auto it = std::upper_bound(
      segments.begin(), segments.end(), begin,
      [](int64_t e, const Segment& s) { return e < s.first; });
  return it == segments.begin() ? it : it - 1;
}

EntityBlock Block(const Segment& s, int64_t first_entity, int64_t rows) {
  return {s.base + (first_entity - s.first) * s.row_stride, rows,
          s.row_stride, s.dim_stride};
}

/// Scans one block against every DNF branch and pushes each entity's
/// minimum distance into `acc` unless it exceeds the admission bound
/// (acc->bound() with `prune`, else +inf). Returns the dimensions read.
int64_t PushBlockTopK(const std::vector<ArcConstants>& arcs,
                      const EntityBlock& block, int64_t first_entity,
                      bool prune, float* partial, TopKAccumulator* acc,
                      ScanStats* stats) {
  // The bound only tightens through pushes, which happen after the block
  // completes, so pruning against the block-start value is conservative.
  const float bound =
      prune ? acc->bound() : std::numeric_limits<float>::infinity();
  float best[kScanLanes];
  const int64_t dims =
      ScanKernel()(arcs.data(), arcs.size(), block, bound, partial, best);
  if (dims < static_cast<int64_t>(arcs[0].dims.size())) {
    if (stats != nullptr) stats->entities_pruned += block.rows;
    return dims;
  }
  for (int64_t i = 0; i < block.rows; ++i) {
    // An entity above the bound cannot enter; one at or below it carries
    // its exact distance, so the ranking equals a full scan's.
    if (best[i] > bound) {
      if (stats != nullptr) ++stats->entities_pruned;
      continue;
    }
    acc->Push(first_entity + i, best[i]);
  }
  return dims;
}

}  // namespace

EntityTable EntityTable::RowMajor(const float* rows, int64_t num_entities,
                                  int64_t dim) {
  EntityTable table;
  table.num_entities = num_entities;
  table.dim = dim;
  table.segments.push_back({0, num_entities, rows, dim, 1});
  return table;
}

void EntityTable::CopyRow(int64_t entity, float* out) const {
  HALK_CHECK(entity >= 0 && entity < num_entities);
  const Segment& s = *SegmentFor(segments, entity);
  const float* row = s.base + (entity - s.first) * s.row_stride;
  for (int64_t j = 0; j < dim; ++j) out[j] = row[j * s.dim_stride];
}

void EntityTable::Distances(const ArcConstants& arc, int64_t begin,
                            int64_t end, float* out) const {
  HALK_CHECK(begin >= 0 && end <= num_entities);
  const ScanKernelFn kernel = ScanKernel();
  float partial[kScanLanes];
  for (auto s = SegmentFor(segments, begin);
       s != segments.end() && s->first < end; ++s) {
    const int64_t hi = std::min(end, s->first + s->rows);
    for (int64_t e = std::max(begin, s->first); e < hi; e += kScanLanes) {
      kernel(&arc, 1, Block(*s, e, std::min(kScanLanes, hi - e)),
             std::numeric_limits<float>::infinity(), partial,
             out + (e - begin));
    }
  }
}

void EntityTable::AccumulateTopK(const std::vector<ArcConstants>& arcs,
                                 int64_t begin, int64_t end, bool prune,
                                 TopKAccumulator* acc,
                                 ScanStats* stats) const {
  begin = std::max<int64_t>(begin, 0);
  end = std::min(end, num_entities);
  if (arcs.empty() || begin >= end) return;
  std::vector<float> partial(arcs.size() * kScanLanes);
  // Segments are visited in entity order, so the admission bound tightens
  // in the same sequence whatever the layout: the result is bit-identical
  // across in-RAM and store tables.
  for (auto s = SegmentFor(segments, begin);
       s != segments.end() && s->first < end; ++s) {
    const int64_t hi = std::min(end, s->first + s->rows);
    // A column block of the segment is read when any kernel block reads
    // that dimension.
    int64_t dims_read = 0;
    for (int64_t e = std::max(begin, s->first); e < hi; e += kScanLanes) {
      dims_read = std::max(
          dims_read,
          PushBlockTopK(arcs, Block(*s, e, std::min(kScanLanes, hi - e)), e,
                        prune, partial.data(), acc, stats));
    }
    if (columnar && stats != nullptr) {
      stats->column_blocks_scanned += dims_read;
      stats->column_blocks_skipped += dim - dims_read;
    }
    if (release != nullptr) release(*s, dim);
  }
  if (stats != nullptr) stats->entities_scanned += end - begin;
}

}  // namespace halk::core

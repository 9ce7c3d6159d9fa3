#include "core/distance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

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
/// (acc->bound() with `prune`, else +inf). Row i is entity ids[i], or
/// first_entity + i without an id map. Returns the dimensions read.
int64_t PushBlockTopK(const std::vector<ArcConstants>& arcs,
                      const EntityBlock& block, int64_t first_entity,
                      const int64_t* ids, bool prune, float* partial,
                      TopKAccumulator* acc, ScanStats* stats) {
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
    acc->Push(ids != nullptr ? ids[i] : first_entity + i, best[i]);
  }
  return dims;
}

/// The second stage's blocks: entities copied row-major into one stack
/// block with an id map, scored by the kernel once full or flushed. The
/// kernel's value does not depend on the block or layout an entity is
/// scanned in, so a gathered entity's distance is the one-stage scan's.
class GatheredBlock {
 public:
  GatheredBlock(const std::vector<ArcConstants>& arcs, int64_t dim,
                float* partial, TopKAccumulator* acc, ScanStats* stats)
      : arcs_(arcs),
        dim_(dim),
        rows_(static_cast<size_t>(kScanLanes * dim)),
        partial_(partial),
        acc_(acc),
        stats_(stats) {}

  /// Appends `entity`, a row of segment `s`; true once the block is full.
  bool Add(const Segment& s, int64_t entity) {
    const float* row = s.base + (entity - s.first) * s.row_stride;
    float* dst = rows_.data() + count_ * dim_;
    for (int64_t j = 0; j < dim_; ++j) dst[j] = row[j * s.dim_stride];
    ids_[count_++] = entity;
    return count_ == kScanLanes;
  }

  /// Scores and empties the block; returns the dimensions read (0 when
  /// empty).
  int64_t Flush() {
    if (count_ == 0) return 0;
    const int64_t dims =
        PushBlockTopK(arcs_, {rows_.data(), count_, dim_, 1}, 0, ids_,
                      /*prune=*/true, partial_, acc_, stats_);
    count_ = 0;
    return dims;
  }

 private:
  const std::vector<ArcConstants>& arcs_;
  int64_t dim_;
  std::vector<float> rows_;
  int64_t ids_[kScanLanes] = {};
  int64_t count_ = 0;
  float* partial_;
  TopKAccumulator* acc_;
  ScanStats* stats_;
};

/// Marks an entity the second stage must skip: already pushed as a seed.
/// Above every real sum (at most 255 · 256) and every threshold.
constexpr uint16_t kSeeded = 0xffff;

/// Stage one over [begin, end): every entity's filter sum (minimum over the
/// arcs), written per whole code block, and each block's minimum over its
/// entities in the range, so later passes skip a block with one compare.
struct FilterPass {
  FilterPass(const EntityTable& table, const FilterTables& tables,
             int64_t begin, int64_t end)
      : base(begin / kScanLanes * kScanLanes),
        sums(std::make_unique_for_overwrite<uint16_t[]>(
            static_cast<size_t>(end - base + kScanLanes))),
        block_min(static_cast<size_t>((end - base + kScanLanes - 1) /
                                      kScanLanes)) {
    const FilterKernelFn filter = FilterKernel();
    for (size_t b = 0; b < block_min.size(); ++b) {
      const int64_t first = base + static_cast<int64_t>(b) * kScanLanes;
      uint16_t* out = &sum(first);
      uint16_t low = filter(tables.lut.data(), tables.num_arcs, table.dim,
                            table.codes.Block(first / kScanLanes), out);
      const int64_t lo = std::max(begin, first);
      const int64_t hi = std::min(end, first + kScanLanes);
      if (hi - lo < kScanLanes) {
        low = *std::min_element(out + (lo - first), out + (hi - first));
      }
      block_min[b] = low;
    }
  }

  uint16_t& sum(int64_t entity) {
    return sums[static_cast<size_t>(entity - base)];
  }
  uint16_t block_min_of(int64_t entity) const {
    return block_min[static_cast<size_t>((entity - base) / kScanLanes)];
  }

  int64_t base;  // the first entity of begin's code block
  std::unique_ptr<uint16_t[]> sums;
  std::vector<uint16_t> block_min;
};

/// The entities scored before stage two, ascending: the uncoded ones, which
/// the filter cannot drop, and the `want` lowest sums (lower ids first
/// among ties), which most likely hold the top-k and so set a tight bound
/// before the rest is filtered. Marks each kSeeded in `pass`.
std::vector<int64_t> PickSeeds(const EntityCodes& codes, int64_t begin,
                               int64_t end, int64_t want, FilterPass* pass) {
  std::vector<int64_t> seeds;
  for (auto it = std::lower_bound(codes.always_scored.begin(),
                                  codes.always_scored.end(), begin);
       it != codes.always_scored.end() && *it < end; ++it) {
    seeds.push_back(*it);
    pass->sum(*it) = kSeeded;
  }
  if (want > 0) {
    // The want-th lowest block minimum bounds the want-th lowest sum from
    // above, so only blocks at or below it can hold the lowest sums.
    uint16_t cut = kSeeded;
    if (want < static_cast<int64_t>(pass->block_min.size())) {
      std::vector<uint16_t> order = pass->block_min;
      std::nth_element(order.begin(), order.begin() + (want - 1),
                       order.end());
      cut = order[static_cast<size_t>(want - 1)];
    }
    // Max-heap of (sum, entity): the lowest `want` seen so far.
    std::vector<std::pair<uint16_t, int64_t>> heap;
    for (int64_t first = pass->base; first < end; first += kScanLanes) {
      if (pass->block_min_of(first) > cut) continue;
      const int64_t hi = std::min(end, first + kScanLanes);
      for (int64_t e = std::max(begin, first); e < hi; ++e) {
        const std::pair<uint16_t, int64_t> key{pass->sum(e), e};
        if (key.first == kSeeded) continue;
        if (static_cast<int64_t>(heap.size()) < want) {
          heap.push_back(key);
          std::push_heap(heap.begin(), heap.end());
        } else if (key < heap.front()) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = key;
          std::push_heap(heap.begin(), heap.end());
        }
      }
    }
    for (const auto& [sum, e] : heap) {
      seeds.push_back(e);
      pass->sum(e) = kSeeded;
    }
  }
  std::sort(seeds.begin(), seeds.end());
  return seeds;
}

/// The two-stage top-k of EntityTable::AccumulateTopK over [begin, end).
void TwoStageTopK(const EntityTable& table,
                  const std::vector<ArcConstants>& arcs,
                  const FilterTables& tables, int64_t begin, int64_t end,
                  float* partial, TopKAccumulator* acc, ScanStats* stats) {
  FilterPass pass(table, tables, begin, end);
  const std::vector<int64_t> seeds = PickSeeds(
      table.codes, begin, end,
      acc->k() - static_cast<int64_t>(acc->size()), &pass);

  // Segments overlapping the range, and the column blocks read in each: a
  // gathered block never mixes segments, so its reads count for one.
  const auto first = SegmentFor(table.segments, begin);
  const auto num_segments = static_cast<size_t>(
      std::lower_bound(first, table.segments.end(), end,
                       [](const Segment& s, int64_t e) { return s.first < e; }) -
      first);
  std::vector<int64_t> dims_read(num_segments, 0);
  GatheredBlock block(arcs, table.dim, partial, acc, stats);
  auto flush = [&](size_t segment) {
    dims_read[segment] = std::max(dims_read[segment], block.Flush());
  };

  // The seeds, in entity order. They are spread over the range, so a
  // segment holding one is released right away rather than kept resident
  // until stage two reaches it; out of core this keeps about a quarter off
  // the peak resident set (docs/storage.md).
  size_t next_seed = 0;
  for (size_t si = 0; si < num_segments; ++si) {
    const Segment& s = first[static_cast<int64_t>(si)];
    const size_t seeds_before = next_seed;
    for (; next_seed < seeds.size() && seeds[next_seed] < s.first + s.rows;
         ++next_seed) {
      if (block.Add(s, seeds[next_seed])) flush(si);
    }
    flush(si);
    if (next_seed > seeds_before && table.release != nullptr) {
      table.release(s, table.dim);
    }
  }

  // Stage two: gather the entities whose sum does not exceed the current
  // bound's threshold, re-read after every scored block.
  int64_t threshold = tables.Threshold(acc->bound());
  int64_t gathered = 0;
  for (size_t si = 0; si < num_segments; ++si) {
    const Segment& s = first[static_cast<int64_t>(si)];
    const int64_t hi = std::min(end, s.first + s.rows);
    for (int64_t e = std::max(begin, s.first); e < hi;) {
      const int64_t block_end = std::min(
          hi, pass.base + ((e - pass.base) / kScanLanes + 1) * kScanLanes);
      if (pass.block_min_of(e) > threshold) {
        e = block_end;
        continue;
      }
      for (; e < block_end; ++e) {
        if (pass.sum(e) > threshold) continue;
        ++gathered;
        if (block.Add(s, e)) {
          flush(si);
          threshold = tables.Threshold(acc->bound());
        }
      }
    }
    flush(si);
    threshold = tables.Threshold(acc->bound());
    if (table.columnar && stats != nullptr) {
      stats->column_blocks_scanned += dims_read[si];
      stats->column_blocks_skipped += table.dim - dims_read[si];
    }
    if (table.release != nullptr) table.release(s, table.dim);
  }
  if (stats != nullptr) {
    const int64_t dropped =
        end - begin - static_cast<int64_t>(seeds.size()) - gathered;
    stats->entities_pruned += dropped;
    stats->entities_filtered += dropped;
  }
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

void EntityTable::EncodeCodes(int64_t begin, int64_t end) {
  HALK_CHECK(begin >= 0 && begin <= end && end <= num_entities);
  if (codes.empty()) ResetCodes(num_entities, dim, &codes);
  for (auto s = SegmentFor(segments, begin);
       s != segments.end() && s->first < end; ++s) {
    const int64_t hi = std::min(end, s->first + s->rows);
    for (int64_t e = std::max(begin, s->first); e < hi; ++e) {
      EncodeEntity(e, s->base + (e - s->first) * s->row_stride,
                   s->dim_stride, &codes);
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
  FilterTables tables;
  if (prune && !codes.empty() && BuildFilterTables(arcs, &tables)) {
    TwoStageTopK(*this, arcs, tables, begin, end, partial.data(), acc, stats);
    if (stats != nullptr) stats->entities_scanned += end - begin;
    return;
  }
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
                        nullptr, prune, partial.data(), acc, stats));
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

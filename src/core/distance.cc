#include "core/distance.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
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
  Tensor outside_mask = Tensor::Zeros(point.shape());
  float* mask = outside_mask.data();
  const float* c = to_center.data();
  const float* h = half_width.data();
  for (int64_t i = 0; i < n; ++i) mask[i] = c[i] > h[i] ? 1.0f : 0.0f;

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

/// Entity `entity`'s row in segment `s`.
const float* Row(const Segment& s, int64_t entity, int64_t dim) {
  return s.base + (entity - s.first) * dim;
}

/// Scans one block against every DNF branch and pushes each entity's
/// minimum distance into `acc` unless it exceeds the admission bound
/// (acc->bound() with `prune`, else +inf). Row i is entity ids[i], or
/// first_entity + i without an id map.
void PushBlockTopK(const std::vector<ArcConstants>& arcs,
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
    return;
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
}

/// The second stage's blocks: entity rows copied into one row-major stack
/// block with an id map, scored by the kernel once full or flushed. The
/// rows are copies, so one block may mix segments, and a segment may be
/// released while its rows wait here. The kernel's value does not depend
/// on the block an entity is scanned in, so a gathered entity's distance
/// is the one-stage scan's.
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

  /// Appends `entity`'s row; once the block is full, scores and empties it
  /// and returns true.
  bool Add(const float* row, int64_t entity) {
    std::memcpy(rows_.data() + count_ * dim_, row,
                static_cast<size_t>(dim_) * sizeof(float));
    ids_[count_++] = entity;
    if (count_ < kScanLanes) return false;
    Flush();
    return true;
  }

  /// Scores and empties the block.
  void Flush() {
    if (count_ == 0) return;
    PushBlockTopK(arcs_, {rows_.data(), count_}, 0, ids_, /*prune=*/true,
                  partial_, acc_, stats_);
    count_ = 0;
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

/// Stage two's candidates whose rows are in flight: a candidate's row is
/// prefetched when it is queued and copied into the gathered block this
/// many candidates later, so the copies overlap the misses.
constexpr size_t kGatherRing = 8;

/// Asks for every cache line of one entity row. A prefetch never faults.
void PrefetchRow(const float* row, int64_t dim) {
  constexpr uintptr_t kLine = 64;
  const uintptr_t last = reinterpret_cast<uintptr_t>(row + dim) - 1;
  for (uintptr_t line = reinterpret_cast<uintptr_t>(row) & ~(kLine - 1);
       line <= last; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

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

  const auto first = SegmentFor(table.segments, begin);
  const auto last =
      std::lower_bound(first, table.segments.end(), end,
                       [](const Segment& s, int64_t e) { return s.first < e; });
  const int64_t dim = table.dim;
  GatheredBlock block(arcs, dim, partial, acc, stats);

  // The seeds, in entity order, the last partial block scored once all are
  // in. They are spread over the range, so a segment holding one is
  // released as soon as its seeds are copied rather than kept resident
  // until stage two reaches it; out of core this keeps about a quarter off
  // the peak resident set (docs/storage.md).
  size_t next_seed = 0;
  for (auto s = first; s != last; ++s) {
    const size_t seeds_before = next_seed;
    for (; next_seed < seeds.size() && seeds[next_seed] < s->first + s->rows;
         ++next_seed) {
      block.Add(Row(*s, seeds[next_seed], dim), seeds[next_seed]);
    }
    if (next_seed > seeds_before && table.release != nullptr) {
      table.release(*s, dim);
    }
  }
  block.Flush();

  // Stage two: gather the entities whose sum does not exceed the current
  // bound's threshold, re-read after every scored block. Blocks fill
  // across segment boundaries and are scored only when full, so the
  // blocks, and the bound each is scored against, are those of a
  // one-segment table.
  //
  // One compare per code block picks the candidates, whose rows are
  // prefetched and queued in a ring; each is tested again when it leaves
  // the ring, against the threshold as of then. The bound only tightens,
  // so the queued candidates are a superset of the survivors, and the
  // second test, made in entity order after every earlier survivor's Add,
  // is the one a one-sum-at-a-time walk makes: the same survivors, blocks
  // and distances. The ring is drained at every segment end, before the
  // segment is released.
  int64_t threshold = tables.Threshold(acc->bound());
  int64_t gathered = 0;
  const auto take = [&](const Segment& s, int64_t e) {
    if (pass.sum(e) > threshold) return;
    ++gathered;
    if (block.Add(Row(s, e, dim), e)) {
      threshold = tables.Threshold(acc->bound());
    }
  };
  const SurvivorMaskFn survivors = SurvivorMask();
  int64_t ring[kGatherRing];
  size_t queued = 0;
  size_t taken = 0;
  for (auto s = first; s != last; ++s) {
    const int64_t hi = std::min(end, s->first + s->rows);
    for (int64_t e = std::max(begin, s->first); e < hi;) {
      const int64_t block_first = e - (e - pass.base) % kScanLanes;
      const int64_t block_end = std::min(hi, block_first + kScanLanes);
      if (pass.block_min_of(e) <= threshold) {
        uint64_t mask = survivors(&pass.sum(block_first), threshold) &
                        LaneRange(e - block_first, block_end - block_first);
        for (; mask != 0; mask &= mask - 1) {
          const int64_t c = block_first + std::countr_zero(mask);
          PrefetchRow(Row(*s, c, dim), dim);
          if (queued - taken == kGatherRing) {
            take(*s, ring[taken++ % kGatherRing]);
          }
          ring[queued++ % kGatherRing] = c;
        }
      }
      e = block_end;
    }
    while (taken < queued) take(*s, ring[taken++ % kGatherRing]);
    if (table.release != nullptr) table.release(*s, dim);
  }
  block.Flush();
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
  table.segments.push_back({0, num_entities, rows});
  return table;
}

void EntityTable::CopyRow(int64_t entity, float* out) const {
  HALK_CHECK(entity >= 0 && entity < num_entities);
  std::memcpy(out, Row(*SegmentFor(segments, entity), entity, dim),
              static_cast<size_t>(dim) * sizeof(float));
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
      kernel(&arc, 1, {Row(*s, e, dim), std::min(kScanLanes, hi - e)},
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
      EncodeEntity(e, Row(*s, e, dim), &codes);
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
  // Segments are visited in entity order and every admitted entity carries
  // its exact distance, so the result is bit-identical however the table
  // is cut into segments: in-RAM and store tables rank alike.
  for (auto s = SegmentFor(segments, begin);
       s != segments.end() && s->first < end; ++s) {
    const int64_t hi = std::min(end, s->first + s->rows);
    for (int64_t e = std::max(begin, s->first); e < hi; e += kScanLanes) {
      PushBlockTopK(arcs, {Row(*s, e, dim), std::min(kScanLanes, hi - e)},
                    e, nullptr, prune, partial.data(), acc, stats);
    }
    if (release != nullptr) release(*s, dim);
  }
  if (stats != nullptr) stats->entities_scanned += end - begin;
}

}  // namespace halk::core

#ifndef HALK_CORE_ENTITY_SOURCE_H_
#define HALK_CORE_ENTITY_SOURCE_H_

#include <cstdint>
#include <vector>

#include "core/distance.h"
#include "core/query_model.h"
#include "core/topk.h"

namespace halk::core {

/// Read-only provider of the entity embedding table. A model built with one
/// serves ranking out of the source instead of an in-RAM tensor — the hook
/// the mmap-backed store (src/store/) plugs into without core depending on
/// the storage layer.
///
/// Contract: the source holds rows for entity ids [0, num_entities), each
/// `dim` floats wide, and the rows are immutable for the source's lifetime.
/// All methods must be safe to call concurrently from many threads (shard
/// workers scan disjoint ranges of one source in parallel).
class EntityScanSource {
 public:
  virtual ~EntityScanSource() = default;

  virtual int64_t num_entities() const = 0;
  virtual int64_t dim() const = 0;

  /// Copies entity's row (`dim()` floats) into `out`. Bit-exact: the floats
  /// are the stored values, so embeddings built from them match an in-RAM
  /// table holding the same rows.
  virtual void CopyRow(int64_t entity, float* out) const = 0;

  /// Exact distances from entities [begin, end) to `arc`: out[i] is entity
  /// begin + i's, bit-identical to the scan kernel over an in-RAM table
  /// holding the same rows.
  virtual void Distances(const ArcConstants& arc, int64_t begin,
                         int64_t end, float* out) const = 0;

  /// Streams entities [begin, end) into `acc`, scoring each by its minimum
  /// arc distance over `arcs` (the DNF union semantics). Must be exact:
  /// acc->Take() afterwards equals pushing every entity's full
  /// min-over-arcs ArcPointDistance — the same guarantee
  /// QueryModel::AccumulateTopKRange documents, so a source-backed model is
  /// bit-identical to the in-RAM scan at any shard partition. Only called
  /// with rho > 0 and eta >= 0 (per-dimension terms non-negative), so
  /// implementations may prune against acc->bound(). `stats` (optional)
  /// receives scan counters.
  virtual void AccumulateTopKRange(const std::vector<ArcConstants>& arcs,
                                   int64_t begin, int64_t end,
                                   TopKAccumulator* acc,
                                   ScanStats* stats) const = 0;
};

}  // namespace halk::core

#endif  // HALK_CORE_ENTITY_SOURCE_H_

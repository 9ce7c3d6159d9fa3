#ifndef HALK_STORE_STORE_H_
#define HALK_STORE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/distance.h"
#include "core/query_model.h"
#include "core/topk.h"
#include "serving/metrics.h"
#include "store/shard_file.h"
#include "store/snapshot.h"

namespace halk::store {

/// An open store snapshot: every shard file mapped read-only, presented to
/// the core as one immutable core::EntityTable ([0, num_entities) global
/// ids) with one row-major segment per row group of every file, so a
/// HalkModel serves directly out of the mappings through the same table
/// loops and the same layout as an in-RAM model — the out-of-core path.
/// Open also derives the table's filter codes (core/scan_filter.h) from
/// the mapped rows (the files do not store them), so every top-k scan of a
/// store is two-stage: the filter reads the in-RAM codes of every entity,
/// and only its survivors' rows are read out of the mappings.
/// Thread-safe after Open: all members are immutable and the mappings are
/// shared, so any number of shard workers may scan concurrently.
class EmbeddingStore {
 public:
  struct OpenOptions {
    /// Verify every row-group checksum while opening. Faults in the
    /// whole table — leave off for out-of-core serving and run
    /// `halk_store verify` offline instead.
    bool verify_checksums = true;
    /// Bounded-residency serving: each file's pages are dropped once it is
    /// opened, and every top-k scan drops each row group it has finished
    /// with (madvise MADV_DONTNEED), so a scan keeps about one row group
    /// per shard file resident instead of accumulating the whole table.
    /// Off (default) leaves caching to the kernel — faster whenever the
    /// table fits in RAM. Dropped pages refault on the next access;
    /// results are unaffected.
    bool release_scanned_pages = false;
    /// When set, the store registers `store.*` metrics here.
    serving::MetricsRegistry* metrics = nullptr;
  };

  /// Opens `<dir>/MANIFEST.halksnap` and maps every shard file it lists.
  /// Rejects (clean Status, nothing mapped afterwards) manifests whose
  /// shard files are missing, fail header validation, or whose header
  /// checksum does not match the manifest entry.
  [[nodiscard]] static Result<std::unique_ptr<EmbeddingStore>> Open(
      const std::string& dir, const OpenOptions& options);

  int64_t num_entities() const { return table_.num_entities; }
  int64_t dim() const { return table_.dim; }
  /// The entity table over every mapping, built once at Open.
  const core::EntityTable& table() const { return table_; }

  /// Bound-aware top-k scan of entities [begin, end) (clamped to the
  /// table): table().AccumulateTopK with pruning on, two-stage because Open
  /// codes every store table.
  void AccumulateTopKRange(const std::vector<core::ArcConstants>& arcs,
                           int64_t begin, int64_t end,
                           core::TopKAccumulator* acc,
                           core::ScanStats* stats) const {
    table_.AccumulateTopK(arcs, begin, end, /*prune=*/true, acc, stats);
  }

  const StoreSnapshot& snapshot() const { return snapshot_; }
  const std::string& dir() const { return dir_; }
  int64_t num_shard_files() const {
    return static_cast<int64_t>(files_.size());
  }
  /// Shard file `i` (manifest order: ascending entity ranges).
  const MappedShardFile& file(int64_t i) const {
    return *files_[static_cast<size_t>(i)];
  }

  /// Sum of mapped file bytes — the full on-disk table footprint.
  size_t MappedBytes() const;
  /// Sum of RAM-resident mapping bytes (mincore); the out-of-core claim is
  /// exactly that this stays well below MappedBytes() under two-stage
  /// scans with release_scanned_pages.
  size_t ResidentBytes() const;
  /// Drops resident pages across every mapping.
  void DropResidency() const;
  /// Re-verifies every row group of every file.
  [[nodiscard]] Status VerifyChecksums() const;
  /// Publishes ResidentBytes() to the `store.resident_bytes` gauge (no-op
  /// without a registry).
  void UpdateResidencyMetrics() const;

 private:
  EmbeddingStore() = default;

  std::string dir_;
  StoreSnapshot snapshot_;
  std::vector<std::unique_ptr<MappedShardFile>> files_;
  core::EntityTable table_;
  serving::Gauge* resident_gauge_ = nullptr;  // null without a registry
};

}  // namespace halk::store

#endif  // HALK_STORE_STORE_H_

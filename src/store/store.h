#ifndef HALK_STORE_STORE_H_
#define HALK_STORE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/entity_source.h"
#include "serving/metrics.h"
#include "store/shard_file.h"
#include "store/snapshot.h"

namespace halk::store {

/// Non-owning view over one shard file of an open store: the handle a
/// ShardWorker holds to scan its slice of the entity table directly out of
/// the shared mapping. Copyable; valid while the owning EmbeddingStore
/// lives.
class ShardView {
 public:
  ShardView(const MappedShardFile* file) : file_(file) {}

  int64_t entity_begin() const { return file_->entity_begin(); }
  int64_t entity_end() const { return file_->entity_end(); }

  void CopyRow(int64_t entity, float* out) const {
    file_->CopyRow(entity, out);
  }
  void Scan(const std::vector<core::ArcConstants>& arcs, int64_t begin,
            int64_t end, core::TopKAccumulator* acc,
            core::ScanStats* stats) const {
    file_->Scan(arcs, begin, end, acc, stats);
  }
  size_t ResidentBytes() const { return file_->ResidentBytes(); }
  size_t mapped_bytes() const { return file_->mapped_bytes(); }

 private:
  const MappedShardFile* file_;
};

/// An open store snapshot: every shard file mapped read-only, presented to
/// the core as one immutable entity table ([0, num_entities) global ids).
/// Implements core::EntityScanSource so a HalkModel can serve directly out
/// of the mappings instead of an in-RAM tensor — the out-of-core path.
/// Thread-safe after Open: all members are immutable and the mappings are
/// shared, so any number of shard workers may scan concurrently.
class EmbeddingStore : public core::EntityScanSource {
 public:
  struct OpenOptions {
    /// Verify every column block checksum while opening. Faults in the
    /// whole table — leave off for out-of-core serving and run
    /// `halk_store verify` offline instead.
    bool verify_checksums = true;
    MappedShardFile::Advice advice = MappedShardFile::Advice::kNormal;
    /// Bounded-residency scans (MappedShardFile::OpenOptions): when
    /// non-zero, each scan drops its processed row-group pages once they
    /// exceed this many bytes, capping the per-scan resident footprint at
    /// about a window per shard file instead of the whole table. 0 leaves
    /// caching to the kernel.
    uint64_t residency_window_bytes = 0;
    /// When set, the store registers `store.*` metrics here.
    serving::MetricsRegistry* metrics = nullptr;
  };

  /// Opens `<dir>/MANIFEST.halksnap` and maps every shard file it lists.
  /// Rejects (clean Status, nothing mapped afterwards) manifests whose
  /// shard files are missing, fail header validation, or whose header
  /// checksum does not match the manifest entry.
  [[nodiscard]] static Result<std::unique_ptr<EmbeddingStore>> Open(
      const std::string& dir, const OpenOptions& options);

  // -- core::EntityScanSource --
  int64_t num_entities() const override {
    return snapshot_.config.num_entities;
  }
  int64_t dim() const override { return snapshot_.config.dim; }
  void CopyRow(int64_t entity, float* out) const override;
  void Distances(const core::ArcConstants& arc, int64_t begin, int64_t end,
                 float* out) const override;
  void AccumulateTopKRange(const std::vector<core::ArcConstants>& arcs,
                           int64_t begin, int64_t end,
                           core::TopKAccumulator* acc,
                           core::ScanStats* stats) const override;

  const StoreSnapshot& snapshot() const { return snapshot_; }
  const std::string& dir() const { return dir_; }
  int64_t num_shard_files() const {
    return static_cast<int64_t>(files_.size());
  }
  /// View over shard file `i` (manifest order: ascending entity ranges).
  ShardView view(int64_t i) const { return ShardView(files_[i].get()); }

  /// Sum of mapped file bytes — the full on-disk table footprint.
  size_t MappedBytes() const;
  /// Sum of RAM-resident mapping bytes (mincore); the out-of-core claim is
  /// exactly that this stays well below MappedBytes() under bound-aware
  /// scans.
  size_t ResidentBytes() const;
  /// Drops resident pages across every mapping.
  void DropResidency() const;
  /// Re-verifies every column block of every file.
  [[nodiscard]] Status VerifyChecksums() const;
  /// Publishes ResidentBytes() to the `store.resident_bytes` gauge (no-op
  /// without a registry).
  void UpdateResidencyMetrics() const;

 private:
  EmbeddingStore() = default;

  /// Shard file index covering global entity id `entity`.
  int64_t FileFor(int64_t entity) const;

  std::string dir_;
  StoreSnapshot snapshot_;
  std::vector<std::unique_ptr<MappedShardFile>> files_;
  serving::Gauge* resident_gauge_ = nullptr;  // null without a registry
};

}  // namespace halk::store

#endif  // HALK_STORE_STORE_H_

#include "store/store.h"

#include <sys/mman.h>

#include "common/string_util.h"
#include "obs/trace.h"

namespace halk::store {

namespace {

/// EntityTable::release for bounded residency: drops one row group's
/// mapped pages. A segment is a whole group, whose column blocks are
/// contiguous page multiples starting on a page boundary.
void ReleaseRowGroup(const core::EntityTable::Segment& segment,
                     int64_t dim) {
  (void)::madvise(const_cast<float*>(segment.base),
                  static_cast<size_t>(dim * segment.dim_stride) *
                      sizeof(float),
                  MADV_DONTNEED);
}

}  // namespace

Result<std::unique_ptr<EmbeddingStore>> EmbeddingStore::Open(
    const std::string& dir, const OpenOptions& options) {
  const int64_t t0 = obs::NowNs();
  StoreSnapshot snap;
  HALK_RETURN_NOT_OK(LoadManifest(dir, &snap));

  auto store = std::unique_ptr<EmbeddingStore>(
      new EmbeddingStore());  // halk_lint:allow no-raw-new-delete private ctor
  store->dir_ = dir;
  store->snapshot_ = snap;
  store->files_.reserve(snap.shards.size());

  store->table_.num_entities = snap.config.num_entities;
  store->table_.dim = snap.config.dim;
  store->table_.columnar = true;
  if (options.release_scanned_pages) store->table_.release = ReleaseRowGroup;

  MappedShardFile::OpenOptions file_options;
  file_options.verify_checksums = options.verify_checksums;
  for (const SnapshotShardEntry& entry : snap.shards) {
    auto opened =
        MappedShardFile::Open(dir + "/" + entry.file, file_options);
    if (!opened.ok()) {
      if (options.metrics != nullptr &&
          opened.status().code() == StatusCode::kParseError) {
        options.metrics->GetCounter("store.checksum_failures")->Increment();
      }
      return opened.status();
    }
    std::unique_ptr<MappedShardFile> file = std::move(opened).value();
    const ShardFileHeader& h = file->header();
    if (h.entity_begin != entry.entity_begin ||
        h.entity_end != entry.entity_end) {
      return Status::ParseError(StrFormat(
          "%s: entity range [%lld, %lld) disagrees with manifest "
          "[%lld, %lld)",
          entry.file.c_str(), static_cast<long long>(h.entity_begin),
          static_cast<long long>(h.entity_end),
          static_cast<long long>(entry.entity_begin),
          static_cast<long long>(entry.entity_end)));
    }
    if (static_cast<int64_t>(h.dim) != snap.config.dim) {
      return Status::ParseError(
          StrFormat("%s: dim %u disagrees with manifest dim %lld",
                    entry.file.c_str(), h.dim,
                    static_cast<long long>(snap.config.dim)));
    }
    if (h.header_checksum != entry.header_checksum) {
      if (options.metrics != nullptr) {
        options.metrics->GetCounter("store.checksum_failures")->Increment();
      }
      return Status::ParseError(StrFormat(
          "%s: header checksum 0x%llx disagrees with manifest 0x%llx "
          "(file replaced or corrupted since snapshot)",
          entry.file.c_str(),
          static_cast<unsigned long long>(h.header_checksum),
          static_cast<unsigned long long>(entry.header_checksum)));
    }
    // One columnar segment per row group, read in place.
    for (int64_t g = 0; g < static_cast<int64_t>(h.num_groups); ++g) {
      store->table_.segments.push_back(
          {h.entity_begin + g * h.rows_per_group, file->GroupRows(g),
           file->ColumnBlock(g, 0), 1,
           static_cast<int64_t>(GroupBlockBytes(h, g) / sizeof(float))});
    }
    // The two-stage scan's codes are derived here, not stored: the file
    // format is unchanged, and every top-k scan of the store filters.
    store->table_.EncodeCodes(h.entity_begin, h.entity_end);
    if (options.release_scanned_pages) {
      // Bounded-residency serving starts cold: pages faulted while mapping,
      // validating or coding (or left behind by the writer that just
      // produced the file) are dropped so the ceiling holds from the first
      // scan on. Dropping here, per file, also keeps the transient
      // footprint of opening a many-file store at one file rather than the
      // whole table.
      file->DropResidency();
    }
    store->files_.push_back(std::move(file));
  }

  if (options.metrics != nullptr) {
    serving::MetricsRegistry* m = options.metrics;
    m->GetCounter("store.files_mapped")
        ->Increment(static_cast<int64_t>(store->files_.size()));
    m->GetGauge("store.bytes_mapped")
        ->Set(static_cast<double>(store->MappedBytes()));
    m->GetHistogram("store.map_us",
                    serving::Histogram::ExponentialBounds(100.0, 2.0, 20))
        ->Observe(static_cast<double>(obs::NowNs() - t0) / 1e3);
    store->resident_gauge_ = m->GetGauge("store.resident_bytes");
    store->UpdateResidencyMetrics();
    if (options.verify_checksums) {
      // Open already verified; record the (dominant) verify cost so dash-
      // boards can see what full verification costs at this table size.
      m->GetHistogram("store.verify_us",
                      serving::Histogram::ExponentialBounds(100.0, 2.0, 20))
          ->Observe(static_cast<double>(obs::NowNs() - t0) / 1e3);
    }
  }
  return store;
}

size_t EmbeddingStore::MappedBytes() const {
  size_t total = 0;
  for (const auto& f : files_) total += f->mapped_bytes();
  return total;
}

size_t EmbeddingStore::ResidentBytes() const {
  size_t total = 0;
  for (const auto& f : files_) total += f->ResidentBytes();
  return total;
}

void EmbeddingStore::DropResidency() const {
  for (const auto& f : files_) f->DropResidency();
}

Status EmbeddingStore::VerifyChecksums() const {
  for (const auto& f : files_) {
    HALK_RETURN_NOT_OK(f->VerifyChecksums());
  }
  return Status::OK();
}

void EmbeddingStore::UpdateResidencyMetrics() const {
  if (resident_gauge_ != nullptr) {
    resident_gauge_->Set(static_cast<double>(ResidentBytes()));
  }
}

}  // namespace halk::store

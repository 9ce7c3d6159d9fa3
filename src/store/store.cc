#include "store/store.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace halk::store {

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

  MappedShardFile::OpenOptions file_options;
  file_options.verify_checksums = options.verify_checksums;
  file_options.advice = options.advice;
  file_options.residency_window_bytes = options.residency_window_bytes;
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

int64_t EmbeddingStore::FileFor(int64_t entity) const {
  // Files are contiguous and sorted by range; binary-search the begins.
  int64_t lo = 0;
  int64_t hi = static_cast<int64_t>(files_.size()) - 1;
  while (lo < hi) {
    const int64_t mid = (lo + hi + 1) / 2;
    if (files_[mid]->entity_begin() <= entity) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

void EmbeddingStore::CopyRow(int64_t entity, float* out) const {
  HALK_CHECK(entity >= 0 && entity < num_entities());
  files_[FileFor(entity)]->CopyRow(entity, out);
}

void EmbeddingStore::Distances(const core::ArcConstants& arc, int64_t begin,
                               int64_t end, float* out) const {
  HALK_CHECK(begin >= 0 && end <= num_entities());
  if (begin >= end) return;
  for (int64_t f = FileFor(begin);
       f < static_cast<int64_t>(files_.size()) &&
       files_[f]->entity_begin() < end;
       ++f) {
    files_[f]->Distances(arc, begin, end, out);
  }
}

void EmbeddingStore::AccumulateTopKRange(
    const std::vector<core::ArcConstants>& arcs, int64_t begin, int64_t end,
    core::TopKAccumulator* acc, core::ScanStats* stats) const {
  begin = std::max<int64_t>(begin, 0);
  end = std::min<int64_t>(end, num_entities());
  if (begin >= end) return;
  // A range may straddle shard-file boundaries (the serving shard count
  // need not match the file count); split it and let each file scan its
  // slice. Sequential order keeps the accumulator bound tightening across
  // files exactly as the in-RAM entity-major scan would.
  for (int64_t f = FileFor(begin);
       f < static_cast<int64_t>(files_.size()) &&
       files_[f]->entity_begin() < end;
       ++f) {
    files_[f]->Scan(arcs, begin, end, acc, stats);
  }
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

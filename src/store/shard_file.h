#ifndef HALK_STORE_SHARD_FILE_H_
#define HALK_STORE_SHARD_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/format.h"

namespace halk::store {

/// Streams row-major embedding rows into one immutable shard file
/// (store/format.h layout). The file is written to `<path>.tmp` and
/// renamed into place by Finish(), so a crashed or aborted write never
/// leaves a half-written `.halkstore` behind. Rows arrive in entity order
/// and are written where they belong as they arrive, each group's checksum
/// rolling over them, so the writer holds no rows in memory whatever the
/// shard size.
class ShardFileWriter {
 public:
  ShardFileWriter(std::string path, uint32_t dim, int64_t entity_begin,
                  int64_t entity_end,
                  uint32_t rows_per_group = kDefaultRowsPerGroup);
  ~ShardFileWriter();

  ShardFileWriter(const ShardFileWriter&) = delete;
  ShardFileWriter& operator=(const ShardFileWriter&) = delete;

  /// Appends `n` rows (row-major, `n * dim` floats). kInvalidArgument when
  /// more rows arrive than the entity range holds.
  [[nodiscard]] Status Append(const float* rows, int64_t n);

  /// Writes the checksum table and header, fsyncs,
  /// and renames the temp file into place. Requires exactly
  /// entity_end - entity_begin appended rows.
  [[nodiscard]] Status Finish();

  const std::string& path() const { return path_; }
  /// Valid after Finish(): the header checksum, which transitively covers
  /// the checksum table and therefore every row group — the manifest
  /// stores it as the file's identity.
  uint64_t header_checksum() const { return header_.header_checksum; }

 private:
  /// Pads row group `group`, whose last row is in, and records its checksum.
  [[nodiscard]] Status FinishGroup(int64_t group);

  std::string path_;
  std::string tmp_path_;
  ShardFileHeader header_;
  int64_t fd_ = -1;
  int64_t appended_rows_ = 0;
  uint64_t group_hash_ = kFnvSeed;  // rolling FNV of the open group's bytes
  std::vector<uint64_t> group_checksums_;
  bool finished_ = false;
  Status deferred_error_;
};

/// One shard file opened read-only through mmap. The mapping is immutable
/// and shared: any number of threads may read it concurrently. The file is
/// validated on open (magic, version, geometry, header checksum;
/// optionally every row-group checksum) and rejected with a clean Status — a
/// corrupt store never produces silently wrong rankings. Scanning goes
/// through the store's core::EntityTable, whose segments are this file's
/// row groups.
class MappedShardFile {
 public:
  struct OpenOptions {
    /// Reads and verifies every row-group checksum up front. Touches the
    /// whole file (faults in every page), so large out-of-core stores
    /// verify through `halk_store verify` instead of at serve time.
    bool verify_checksums = true;
  };

  [[nodiscard]] static Result<std::unique_ptr<MappedShardFile>> Open(
      const std::string& path, const OpenOptions& options);
  ~MappedShardFile();

  MappedShardFile(const MappedShardFile&) = delete;
  MappedShardFile& operator=(const MappedShardFile&) = delete;

  const ShardFileHeader& header() const { return header_; }
  const std::string& path() const { return path_; }
  int64_t entity_begin() const { return header_.entity_begin; }
  int64_t entity_end() const { return header_.entity_end; }

  /// Row group `group`'s rows, row-major: GroupRows(group) * dim floats,
  /// starting on a page boundary.
  const float* Group(int64_t group) const;
  int64_t GroupRows(int64_t group) const {
    return GroupRowCount(header_, group);
  }

  /// Re-reads every row group against the checksum table.
  [[nodiscard]] Status VerifyChecksums() const;

  size_t mapped_bytes() const { return map_len_; }
  /// Bytes of the mapping currently resident in RAM (mincore).
  size_t ResidentBytes() const;
  /// Drops resident pages (madvise MADV_DONTNEED on the read-only file
  /// mapping); subsequent access faults them back in from the file.
  void DropResidency() const;

 private:
  MappedShardFile() = default;

  std::string path_;
  ShardFileHeader header_;
  const uint8_t* map_ = nullptr;
  size_t map_len_ = 0;
};

}  // namespace halk::store

#endif  // HALK_STORE_SHARD_FILE_H_

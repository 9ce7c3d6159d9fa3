#include "store/shard_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace halk::store {

namespace {

Status WriteAllAt(int fd, const void* data, size_t n, uint64_t offset,
                  const std::string& path) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < n) {
    const ssize_t w = ::pwrite(fd, p + done, n - done,
                               static_cast<off_t>(offset + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("pwrite %s failed: %s", path.c_str(),
                                       std::strerror(errno)));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

ShardFileWriter::ShardFileWriter(std::string path, uint32_t dim,
                                 int64_t entity_begin, int64_t entity_end,
                                 uint32_t rows_per_group)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  HALK_CHECK_GT(dim, 0u);
  HALK_CHECK_GT(rows_per_group, 0u);
  HALK_CHECK_GE(entity_begin, 0);
  HALK_CHECK_GT(entity_end, entity_begin);
  header_.dim = dim;
  header_.rows_per_group = rows_per_group;
  header_.entity_begin = entity_begin;
  header_.entity_end = entity_end;
  header_.num_groups =
      (static_cast<uint64_t>(header_.rows()) + rows_per_group - 1) /
      rows_per_group;
  header_.checksum_table_offset = kPageBytes;
  header_.data_offset = AlignUp(
      kPageBytes + header_.num_groups * sizeof(uint64_t), kPageBytes);
  header_.data_bytes = TotalDataBytes(header_);
  group_checksums_.reserve(static_cast<size_t>(header_.num_groups));

  const int fd = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
  if (fd < 0) {
    deferred_error_ = Status::IOError(StrFormat(
        "cannot create %s: %s", tmp_path_.c_str(), std::strerror(errno)));
  }
  fd_ = fd;
}

ShardFileWriter::~ShardFileWriter() {
  if (fd_ >= 0) ::close(static_cast<int>(fd_));
  // An unfinished writer leaves nothing behind: the temp file is removed
  // and the final path was never created.
  if (!finished_) ::unlink(tmp_path_.c_str());
}

Status ShardFileWriter::Append(const float* rows, int64_t n) {
  HALK_RETURN_NOT_OK(deferred_error_);
  if (finished_) return Status::InvalidArgument("Append after Finish");
  if (appended_rows_ + n > header_.rows()) {
    return Status::InvalidArgument(StrFormat(
        "shard %s overflow: %lld rows appended into a range of %lld",
        path_.c_str(), static_cast<long long>(appended_rows_ + n),
        static_cast<long long>(header_.rows())));
  }
  const uint64_t row_bytes = uint64_t{header_.dim} * sizeof(float);
  while (n > 0) {
    const int64_t group = appended_rows_ / header_.rows_per_group;
    const int64_t row = appended_rows_ % header_.rows_per_group;
    const int64_t group_rows = GroupRowCount(header_, group);
    const int64_t take = std::min(n, group_rows - row);
    const uint64_t bytes = static_cast<uint64_t>(take) * row_bytes;
    const uint64_t offset = GroupExtent(header_, group).offset +
                            static_cast<uint64_t>(row) * row_bytes;
    HALK_RETURN_NOT_OK(WriteAllAt(static_cast<int>(fd_), rows, bytes, offset,
                                  tmp_path_));
    group_hash_ = Fnv1a64(rows, bytes, group_hash_);
    rows += take * header_.dim;
    n -= take;
    appended_rows_ += take;
    if (row + take == group_rows) HALK_RETURN_NOT_OK(FinishGroup(group));
  }
  return Status::OK();
}

Status ShardFileWriter::FinishGroup(int64_t group) {
  // The padding is under a page, and checksummed like the rows.
  static constexpr uint8_t kZeros[kPageBytes] = {};
  const RowGroupExtent extent = GroupExtent(header_, group);
  const uint64_t rows_bytes =
      static_cast<uint64_t>(GroupRowCount(header_, group)) * header_.dim *
      sizeof(float);
  const uint64_t padding = extent.bytes - rows_bytes;
  HALK_RETURN_NOT_OK(WriteAllAt(static_cast<int>(fd_), kZeros, padding,
                                extent.offset + rows_bytes, tmp_path_));
  group_checksums_.push_back(Fnv1a64(kZeros, padding, group_hash_));
  group_hash_ = kFnvSeed;
  return Status::OK();
}

Status ShardFileWriter::Finish() {
  HALK_RETURN_NOT_OK(deferred_error_);
  if (finished_) return Status::InvalidArgument("Finish called twice");
  if (appended_rows_ != header_.rows()) {
    return Status::InvalidArgument(StrFormat(
        "shard %s incomplete: %lld of %lld rows appended", path_.c_str(),
        static_cast<long long>(appended_rows_),
        static_cast<long long>(header_.rows())));
  }
  HALK_CHECK_EQ(group_checksums_.size(), header_.num_groups);

  const uint64_t table_bytes = group_checksums_.size() * sizeof(uint64_t);
  header_.table_checksum = Fnv1a64(group_checksums_.data(), table_bytes);
  HALK_RETURN_NOT_OK(WriteAllAt(static_cast<int>(fd_),
                                group_checksums_.data(), table_bytes,
                                header_.checksum_table_offset, tmp_path_));

  std::vector<uint8_t> header_page(kPageBytes);
  SerializeHeader(header_, header_page.data());
  header_.header_checksum = Fnv1a64(header_page.data(), kHeaderBytes - 8);
  HALK_RETURN_NOT_OK(WriteAllAt(static_cast<int>(fd_), header_page.data(),
                                kPageBytes, 0, tmp_path_));

  // Durability before visibility: data reaches the disk before the rename
  // publishes the file under its final name.
  if (::fsync(static_cast<int>(fd_)) != 0) {
    return Status::IOError(StrFormat("fsync %s failed: %s",
                                     tmp_path_.c_str(),
                                     std::strerror(errno)));
  }
  ::close(static_cast<int>(fd_));
  fd_ = -1;
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    return Status::IOError(StrFormat("rename %s -> %s failed: %s",
                                     tmp_path_.c_str(), path_.c_str(),
                                     std::strerror(errno)));
  }
  finished_ = true;
  return Status::OK();
}

Result<std::unique_ptr<MappedShardFile>> MappedShardFile::Open(
    const std::string& path, const OpenOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(StrFormat("fstat %s failed", path.c_str()));
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes < kPageBytes) {
    ::close(fd);
    return Status::ParseError(StrFormat(
        "%s truncated: %llu bytes is smaller than one header page",
        path.c_str(), static_cast<unsigned long long>(file_bytes)));
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_SHARED, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is no
  // longer needed either way.
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError(StrFormat("mmap %s failed: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  auto file = std::unique_ptr<MappedShardFile>(
      new MappedShardFile());  // halk_lint:allow no-raw-new-delete private ctor
  file->path_ = path;
  file->map_ = static_cast<const uint8_t*>(map);
  file->map_len_ = file_bytes;

  Status parsed =
      ParseHeader(file->map_, file->map_len_, &file->header_);
  if (!parsed.ok()) {
    return Status(parsed.code(), path + ": " + parsed.message());
  }
  const ShardFileHeader& h = file->header_;
  if (file_bytes != h.data_offset + h.data_bytes) {
    return Status::ParseError(StrFormat(
        "%s size mismatch: %llu bytes on disk, header describes %llu",
        path.c_str(), static_cast<unsigned long long>(file_bytes),
        static_cast<unsigned long long>(h.data_offset + h.data_bytes)));
  }
  const uint64_t table_bytes = h.num_groups * sizeof(uint64_t);
  if (Fnv1a64(file->map_ + h.checksum_table_offset, table_bytes) !=
      h.table_checksum) {
    return Status::ParseError(path + ": checksum table corrupt");
  }

  if (options.verify_checksums) {
    HALK_RETURN_NOT_OK(file->VerifyChecksums());
  }
  return file;
}

MappedShardFile::~MappedShardFile() {
  if (map_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(map_), map_len_);
  }
}

const float* MappedShardFile::Group(int64_t group) const {
  return reinterpret_cast<const float*>(
      map_ + GroupExtent(header_, group).offset);
}

Status MappedShardFile::VerifyChecksums() const {
  // No checksum covers the zero padding after the header fields and after
  // the checksum table, so it is checked to be zero instead.
  const uint64_t table_end =
      header_.checksum_table_offset + header_.num_groups * sizeof(uint64_t);
  for (const auto& [begin, end] :
       {std::pair<uint64_t, uint64_t>{kHeaderBytes,
                                      header_.checksum_table_offset},
        std::pair<uint64_t, uint64_t>{table_end, header_.data_offset}}) {
    for (uint64_t offset = begin; offset < end; ++offset) {
      if (map_[offset] != 0) {
        return Status::ParseError(
            StrFormat("%s: non-zero padding byte at offset %llu",
                      path_.c_str(), static_cast<unsigned long long>(offset)));
      }
    }
  }
  const uint64_t* table = reinterpret_cast<const uint64_t*>(
      map_ + header_.checksum_table_offset);
  for (int64_t g = 0; g < static_cast<int64_t>(header_.num_groups); ++g) {
    const RowGroupExtent extent = GroupExtent(header_, g);
    if (Fnv1a64(map_ + extent.offset, extent.bytes) != table[g]) {
      return Status::ParseError(
          StrFormat("%s: checksum mismatch in row group %lld", path_.c_str(),
                    static_cast<long long>(g)));
    }
  }
  return Status::OK();
}

size_t MappedShardFile::ResidentBytes() const {
  const size_t pages = (map_len_ + kPageBytes - 1) / kPageBytes;
  std::vector<unsigned char> resident(pages);
  if (::mincore(const_cast<uint8_t*>(map_), map_len_, resident.data()) != 0) {
    return 0;
  }
  size_t n = 0;
  for (unsigned char r : resident) {
    if (r & 1u) ++n;
  }
  return n * kPageBytes;
}

void MappedShardFile::DropResidency() const {
  // MADV_DONTNEED only drops this mapping's PTEs; the pages of a file-backed
  // mapping also live in the page cache, where mincore (ResidentBytes)
  // still finds them — e.g. right after the snapshot writer produced the
  // file. Evict those too so a post-drop residency measurement reflects
  // what subsequent scans actually touch. Both calls are best-effort.
  (void)::madvise(const_cast<uint8_t*>(map_), map_len_, MADV_DONTNEED);
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
}

}  // namespace halk::store

#include "store/shard_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

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
  const uint64_t table_bytes =
      header_.num_groups * header_.dim * sizeof(uint64_t);
  header_.data_offset = AlignUp(kPageBytes + table_bytes, kPageBytes);
  header_.data_bytes = TotalDataBytes(header_);
  group_rows_.resize(static_cast<size_t>(rows_per_group) * dim);
  block_checksums_.reserve(
      static_cast<size_t>(header_.num_groups * header_.dim));

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
  const int64_t d = header_.dim;
  int64_t consumed = 0;
  while (consumed < n) {
    const int64_t room =
        static_cast<int64_t>(header_.rows_per_group) - buffered_rows_;
    const int64_t take = std::min(room, n - consumed);
    std::memcpy(group_rows_.data() + buffered_rows_ * d,
                rows + consumed * d,
                static_cast<size_t>(take * d) * sizeof(float));
    buffered_rows_ += take;
    consumed += take;
    appended_rows_ += take;
    if (buffered_rows_ == static_cast<int64_t>(header_.rows_per_group)) {
      HALK_RETURN_NOT_OK(FlushGroup());
    }
  }
  return Status::OK();
}

Status ShardFileWriter::FlushGroup() {
  const int64_t d = header_.dim;
  const int64_t rows = buffered_rows_;
  const uint64_t block_bytes = GroupBlockBytes(header_, groups_flushed_);
  HALK_CHECK_EQ(rows, GroupRowCount(header_, groups_flushed_));
  column_block_.assign(block_bytes / sizeof(float), 0.0f);
  for (int64_t j = 0; j < d; ++j) {
    // Transpose: dimension j of every buffered row, padding already zeroed.
    for (int64_t r = 0; r < rows; ++r) {
      column_block_[static_cast<size_t>(r)] =
          group_rows_[static_cast<size_t>(r * d + j)];
    }
    block_checksums_.push_back(
        Fnv1a64(column_block_.data(), block_bytes));
    HALK_RETURN_NOT_OK(WriteAllAt(static_cast<int>(fd_),
                                  column_block_.data(), block_bytes,
                                  BlockOffset(header_, groups_flushed_, j),
                                  tmp_path_));
  }
  ++groups_flushed_;
  buffered_rows_ = 0;
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
  if (buffered_rows_ > 0) HALK_RETURN_NOT_OK(FlushGroup());
  HALK_CHECK_EQ(groups_flushed_, static_cast<int64_t>(header_.num_groups));

  const uint64_t table_bytes = block_checksums_.size() * sizeof(uint64_t);
  header_.table_checksum = Fnv1a64(block_checksums_.data(), table_bytes);
  HALK_RETURN_NOT_OK(WriteAllAt(static_cast<int>(fd_),
                                block_checksums_.data(), table_bytes,
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
  const uint64_t table_bytes = h.num_groups * h.dim * sizeof(uint64_t);
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

const float* MappedShardFile::ColumnBlock(int64_t group,
                                          int64_t dim_index) const {
  return reinterpret_cast<const float*>(
      map_ + BlockOffset(header_, group, dim_index));
}

Status MappedShardFile::VerifyChecksums() const {
  const uint64_t* table = reinterpret_cast<const uint64_t*>(
      map_ + header_.checksum_table_offset);
  for (int64_t g = 0; g < static_cast<int64_t>(header_.num_groups); ++g) {
    const uint64_t block_bytes = GroupBlockBytes(header_, g);
    for (int64_t j = 0; j < static_cast<int64_t>(header_.dim); ++j) {
      const uint64_t expected = table[g * header_.dim + j];
      if (Fnv1a64(ColumnBlock(g, j), block_bytes) != expected) {
        return Status::ParseError(StrFormat(
            "%s: checksum mismatch in column block (group %lld, dim %lld)",
            path_.c_str(), static_cast<long long>(g),
            static_cast<long long>(j)));
      }
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

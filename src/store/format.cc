#include "store/format.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"

namespace halk::store {

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

// Field offsets inside the serialized header. Kept in one place so the
// writer and parser cannot drift.
constexpr uint64_t kOffMagic = 0;
constexpr uint64_t kOffVersion = 8;
constexpr uint64_t kOffDtype = 12;
constexpr uint64_t kOffDim = 16;
constexpr uint64_t kOffRowsPerGroup = 20;
constexpr uint64_t kOffEntityBegin = 24;
constexpr uint64_t kOffEntityEnd = 32;
constexpr uint64_t kOffPageBytes = 40;
constexpr uint64_t kOffNumGroups = 48;
constexpr uint64_t kOffTableOffset = 56;
constexpr uint64_t kOffDataOffset = 64;
constexpr uint64_t kOffDataBytes = 72;
constexpr uint64_t kOffTableChecksum = 80;
constexpr uint64_t kOffHeaderChecksum = 88;
static_assert(kOffHeaderChecksum + 8 == kHeaderBytes);

// Caps that keep all geometry arithmetic below comfortably inside uint64
// even on hostile input: 2^20 dims * 2^20 rows/group * 2^40 rows would
// overflow, so each factor is bounded first.
constexpr uint64_t kMaxDim = 1u << 20;
constexpr uint64_t kMaxRowsPerGroup = 1u << 20;
constexpr int64_t kMaxRows = int64_t{1} << 40;

template <typename T>
void Put(uint8_t* out, uint64_t offset, T value) {
  std::memcpy(out + offset, &value, sizeof(T));
}

template <typename T>
T Get(const uint8_t* data, uint64_t offset) {
  T value;
  std::memcpy(&value, data + offset, sizeof(T));
  return value;
}

}  // namespace

int64_t GroupRowCount(const ShardFileHeader& header, int64_t group) {
  const int64_t rows = header.rows();
  const int64_t begin = group * static_cast<int64_t>(header.rows_per_group);
  const int64_t end =
      std::min<int64_t>(rows, begin + static_cast<int64_t>(header.rows_per_group));
  return end - begin;
}

RowGroupExtent GroupExtent(const ShardFileHeader& header, int64_t group) {
  // Every group but the last is full, so full groups share one stride.
  const uint64_t row_bytes = uint64_t{header.dim} * sizeof(float);
  const uint64_t full_bytes =
      AlignUp(header.rows_per_group * row_bytes, header.page_bytes);
  return {header.data_offset + static_cast<uint64_t>(group) * full_bytes,
          AlignUp(static_cast<uint64_t>(GroupRowCount(header, group)) *
                      row_bytes,
                  header.page_bytes)};
}

uint64_t TotalDataBytes(const ShardFileHeader& header) {
  if (header.num_groups == 0) return 0;
  const RowGroupExtent last =
      GroupExtent(header, static_cast<int64_t>(header.num_groups - 1));
  return last.offset + last.bytes - header.data_offset;
}

void SerializeHeader(const ShardFileHeader& header, uint8_t* out) {
  std::memset(out, 0, kPageBytes);
  std::memcpy(out + kOffMagic, kShardMagic, sizeof(kShardMagic));
  Put(out, kOffVersion, header.version);
  Put(out, kOffDtype, header.dtype);
  Put(out, kOffDim, header.dim);
  Put(out, kOffRowsPerGroup, header.rows_per_group);
  Put(out, kOffEntityBegin, header.entity_begin);
  Put(out, kOffEntityEnd, header.entity_end);
  Put(out, kOffPageBytes, header.page_bytes);
  Put(out, kOffNumGroups, header.num_groups);
  Put(out, kOffTableOffset, header.checksum_table_offset);
  Put(out, kOffDataOffset, header.data_offset);
  Put(out, kOffDataBytes, header.data_bytes);
  Put(out, kOffTableChecksum, header.table_checksum);
  Put(out, kOffHeaderChecksum, Fnv1a64(out, kOffHeaderChecksum));
}

Status ParseHeader(const uint8_t* data, size_t n, ShardFileHeader* out) {
  if (n < kHeaderBytes) {
    return Status::ParseError(
        StrFormat("shard header truncated: %zu of %llu bytes", n,
                  static_cast<unsigned long long>(kHeaderBytes)));
  }
  if (std::memcmp(data + kOffMagic, kShardMagic, sizeof(kShardMagic)) != 0) {
    return Status::ParseError("bad shard-file magic (not a .halkstore file)");
  }
  ShardFileHeader h;
  h.version = Get<uint32_t>(data, kOffVersion);
  h.dtype = Get<uint32_t>(data, kOffDtype);
  h.dim = Get<uint32_t>(data, kOffDim);
  h.rows_per_group = Get<uint32_t>(data, kOffRowsPerGroup);
  h.entity_begin = Get<int64_t>(data, kOffEntityBegin);
  h.entity_end = Get<int64_t>(data, kOffEntityEnd);
  h.page_bytes = Get<uint64_t>(data, kOffPageBytes);
  h.num_groups = Get<uint64_t>(data, kOffNumGroups);
  h.checksum_table_offset = Get<uint64_t>(data, kOffTableOffset);
  h.data_offset = Get<uint64_t>(data, kOffDataOffset);
  h.data_bytes = Get<uint64_t>(data, kOffDataBytes);
  h.table_checksum = Get<uint64_t>(data, kOffTableChecksum);
  h.header_checksum = Get<uint64_t>(data, kOffHeaderChecksum);

  const uint64_t computed = Fnv1a64(data, kOffHeaderChecksum);
  if (computed != h.header_checksum) {
    return Status::ParseError("shard header checksum mismatch");
  }
  if (h.version == 1) {
    return Status::ParseError(
        "shard format version 1 (dimension-major row groups) is no longer "
        "read; rewrite the snapshot with this build (e.g. `halk_store "
        "from-checkpoint`)");
  }
  if (h.version != kShardFormatVersion) {
    return Status::ParseError(
        StrFormat("unsupported shard format version %u", h.version));
  }
  if (h.dtype != kDtypeF32) {
    return Status::ParseError(StrFormat("unsupported dtype %u", h.dtype));
  }
  if (h.page_bytes != kPageBytes) {
    return Status::ParseError(
        StrFormat("unsupported page size %llu",
                  static_cast<unsigned long long>(h.page_bytes)));
  }
  if (h.dim == 0 || h.dim > kMaxDim) {
    return Status::ParseError(StrFormat("bad dim %u", h.dim));
  }
  if (h.rows_per_group == 0 || h.rows_per_group > kMaxRowsPerGroup) {
    return Status::ParseError(
        StrFormat("bad rows_per_group %u", h.rows_per_group));
  }
  if (h.entity_begin < 0 || h.entity_end <= h.entity_begin ||
      h.rows() > kMaxRows) {
    return Status::ParseError("bad entity range");
  }
  const uint64_t expected_groups =
      (static_cast<uint64_t>(h.rows()) + h.rows_per_group - 1) /
      h.rows_per_group;
  if (h.num_groups != expected_groups) {
    return Status::ParseError("group count inconsistent with entity range");
  }
  // Bounds num_groups * dim so every geometry product below stays far from
  // uint64 overflow on adversarial input (a group is at most 2^42 bytes,
  // all groups together under 2^55).
  if (h.num_groups > (uint64_t{1} << 32) / h.dim) {
    return Status::ParseError("shard geometry too large");
  }
  if (h.checksum_table_offset != kPageBytes) {
    return Status::ParseError("bad checksum-table offset");
  }
  const uint64_t table_bytes = h.num_groups * sizeof(uint64_t);
  if (h.data_offset != AlignUp(kPageBytes + table_bytes, h.page_bytes)) {
    return Status::ParseError("bad data offset");
  }
  if (h.data_bytes != TotalDataBytes(h)) {
    return Status::ParseError("data size inconsistent with geometry");
  }
  *out = h;
  return Status::OK();
}

}  // namespace halk::store

#ifndef HALK_STORE_FORMAT_H_
#define HALK_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace halk::store {

// On-disk layout of one immutable shard file (`*.halkstore`), version 2.
// All multi-byte fields are fixed-width little-endian integers (the store
// is written and mapped on the same host class; the magic makes an
// endianness mismatch a clean ParseError, not silent garbage).
//
//   [header page]        kPageBytes, fields at fixed offsets, zero padded,
//                        FNV-1a-64 checksummed.
//   [checksum table]     num_groups uint64 row-group checksums, starting
//                        at kPageBytes, itself covered by
//                        header.table_checksum.
//   [row groups]         starting at the next page boundary. Rows are
//                        batched into groups of `rows_per_group`; a group
//                        is its rows stored row-major and contiguously
//                        (row r's `dim` floats at r * dim), zero-padded to
//                        a page multiple and checksummed as a whole, the
//                        padding included. Only the last group may hold
//                        fewer rows.
//
// Row-major groups suit the two-stage scan (core/scan_filter.h): stage one
// reads only the filter codes, and each survivor of the filter is then one
// contiguous row, one cache line at d = 32 and out of core one page fault
// at most (docs/storage.md). Version 1 stored each group dimension-major;
// its files are rejected and must be rewritten.

inline constexpr char kShardMagic[8] = {'H', 'A', 'L', 'K',
                                        'S', 'H', 'R', 'D'};
inline constexpr uint32_t kShardFormatVersion = 2;
inline constexpr uint32_t kDtypeF32 = 1;
inline constexpr uint32_t kDefaultRowsPerGroup = 4096;
inline constexpr uint64_t kPageBytes = 4096;
inline constexpr uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

/// Rolling FNV-1a-64 — the same hash (seed and multiplier) as the legacy
/// checkpoint format, so tooling needs one checksum implementation.
uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed = kFnvSeed);

/// Parsed shard-file header. Field order matches the serialized layout.
struct ShardFileHeader {
  uint32_t version = kShardFormatVersion;
  uint32_t dtype = kDtypeF32;
  uint32_t dim = 0;
  uint32_t rows_per_group = kDefaultRowsPerGroup;
  int64_t entity_begin = 0;          // global ids [entity_begin, entity_end)
  int64_t entity_end = 0;
  uint64_t page_bytes = kPageBytes;
  uint64_t num_groups = 0;
  uint64_t checksum_table_offset = 0;
  uint64_t data_offset = 0;
  uint64_t data_bytes = 0;
  uint64_t table_checksum = 0;       // FNV over the checksum table bytes
  uint64_t header_checksum = 0;      // FNV over the serialized bytes above

  int64_t rows() const { return entity_end - entity_begin; }
};

/// Serialized header size before zero padding (magic through
/// header_checksum); the header occupies the first kPageBytes of the file.
inline constexpr uint64_t kHeaderBytes = 96;

inline constexpr uint64_t AlignUp(uint64_t n, uint64_t alignment) {
  return (n + alignment - 1) / alignment * alignment;
}

/// Renders `header` into `out` (which must hold kPageBytes), computing and
/// embedding header_checksum; bytes past kHeaderBytes are zeroed.
void SerializeHeader(const ShardFileHeader& header, uint8_t* out);

/// Strict parse of a shard-file header from the first `n` bytes of a file.
/// Validates magic, version, dtype, checksum, and full internal geometry
/// (group count, offsets, data size) with bounded arithmetic, so it is safe
/// on adversarial input — this is the fuzzed surface. Does not check `n`
/// against data_offset + data_bytes; the caller compares the file size.
[[nodiscard]] Status ParseHeader(const uint8_t* data, size_t n,
                                 ShardFileHeader* out);

/// Geometry helpers shared by the writer and the mapped reader. `group` is
/// an index in [0, num_groups); only the last group may be partial.
int64_t GroupRowCount(const ShardFileHeader& header, int64_t group);

/// Where row group `group` lies in the file: its first byte (a page
/// boundary) and its size, the rows' GroupRowCount * dim floats padded to
/// a page multiple.
struct RowGroupExtent {
  uint64_t offset = 0;
  uint64_t bytes = 0;
};
RowGroupExtent GroupExtent(const ShardFileHeader& header, int64_t group);

/// Total bytes of all row groups (== header.data_bytes when valid).
uint64_t TotalDataBytes(const ShardFileHeader& header);

}  // namespace halk::store

#endif  // HALK_STORE_FORMAT_H_

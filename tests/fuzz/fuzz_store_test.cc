#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/fuzz_harness.h"
#include "store/format.h"
#include "store/snapshot.h"

namespace halk::store {
namespace {

/// Adversarial-input suite for the two store parsing surfaces: the text
/// manifest and the binary shard-file header. Both are documented as safe
/// on arbitrary bytes (clean Status, no crash, no OOB) — the property the
/// sanitizer CI jobs check here.

StoreSnapshot SampleSnapshot(int64_t num_entities, int shards,
                             bool with_params) {
  StoreSnapshot snap;
  snap.model_name = "HaLk";
  snap.config.num_entities = num_entities;
  snap.config.num_relations = 11;
  snap.config.dim = 16;
  snap.config.hidden = 32;
  snap.config.seed = 77;
  snap.has_params = with_params;
  snap.params_checksum = with_params ? 0xabcdef0123456789ULL : 0;
  const int64_t per = num_entities / shards;
  for (int i = 0; i < shards; ++i) {
    SnapshotShardEntry entry;
    entry.file = "entities-" + std::to_string(i) + ".halkstore";
    entry.entity_begin = i * per;
    entry.entity_end = (i == shards - 1) ? num_entities : (i + 1) * per;
    entry.header_checksum = 0x1000 + static_cast<uint64_t>(i);
    snap.shards.push_back(entry);
  }
  return snap;
}

TEST(FuzzStoreTest, ManifestParserNeverCrashesAndAcceptsOnlyRoundTrips) {
  const std::vector<std::string> corpus = {
      SerializeManifest(SampleSnapshot(100, 1, false)),
      SerializeManifest(SampleSnapshot(1000, 4, true)),
      SerializeManifest(SampleSnapshot(7, 7, true)),
  };
  const std::vector<std::string> tokens = {
      "halk-store-snapshot", "model", "num_entities", "num_relations",
      "dim", "hidden", "rho", "lambda", "eta", "gamma", "xi", "seed",
      "params", "params.halkblob", "shard", "checksum", "0x",
      ".halkstore", "HaLk", "\n", " 0 ", "-1", "18446744073709551615",
      "1e9999", "nan", "inf", "../", "/",
  };
  fuzz::RunCorpus(
      corpus, tokens, /*seed=*/20260809, /*iterations=*/3000,
      [](const std::string& input, const std::string& tag) {
        StoreSnapshot parsed;
        const Status status = ParseManifest(input, &parsed);
        if (!status.ok()) return;
        // Anything the strict parser accepts must serialize back to the
        // exact input — the manifest grammar has one canonical rendering.
        EXPECT_EQ(SerializeManifest(parsed), input) << tag;
        // And the accepted snapshot satisfies the parser's own contract.
        ASSERT_FALSE(parsed.shards.empty()) << tag;
        int64_t next = 0;
        for (const SnapshotShardEntry& entry : parsed.shards) {
          EXPECT_EQ(entry.entity_begin, next) << tag;
          EXPECT_LT(entry.entity_begin, entry.entity_end) << tag;
          next = entry.entity_end;
        }
        EXPECT_EQ(next, parsed.config.num_entities) << tag;
      });
}

TEST(FuzzStoreTest, HeaderParserNeverCrashesAndAcceptsOnlyValidGeometry) {
  // Corpus: serialized valid v2 headers of varied geometry (partial tail
  // groups, single group, begin offsets, groups of one row) as raw byte
  // strings, plus one of each rewritten as version 1, which must be
  // rejected.
  std::vector<std::string> corpus;
  std::vector<std::string> version_one;
  for (const auto& [dim, rows_per_group, begin, end] :
       std::vector<std::tuple<uint32_t, uint32_t, int64_t, int64_t>>{
           {8, 64, 0, 1000}, {4, 16, 100, 116}, {32, 4096, 0, 1},
           {32, 4096, 25000, 50000}, {3, 1, 7, 70}}) {
    ShardFileHeader h;
    h.dim = dim;
    h.rows_per_group = rows_per_group;
    h.entity_begin = begin;
    h.entity_end = end;
    h.num_groups = static_cast<uint64_t>(
        (h.rows() + rows_per_group - 1) / rows_per_group);
    h.checksum_table_offset = kPageBytes;
    h.data_offset = AlignUp(kPageBytes + h.num_groups * sizeof(uint64_t),
                            kPageBytes);
    h.data_bytes = TotalDataBytes(h);
    std::string page(kPageBytes, '\0');
    SerializeHeader(h, reinterpret_cast<uint8_t*>(page.data()));
    corpus.push_back(page);
    h.version = 1;
    SerializeHeader(h, reinterpret_cast<uint8_t*>(page.data()));
    version_one.push_back(page);
  }
  // Every v2 corpus entry must parse before mutation; every v1 one is
  // refused by name.
  for (const std::string& page : corpus) {
    ShardFileHeader out;
    ASSERT_TRUE(ParseHeader(reinterpret_cast<const uint8_t*>(page.data()),
                            page.size(), &out)
                    .ok());
  }
  for (const std::string& page : version_one) {
    ShardFileHeader out;
    const Status status = ParseHeader(
        reinterpret_cast<const uint8_t*>(page.data()), page.size(), &out);
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.message().find("version 1"), std::string::npos)
        << status.ToString();
  }
  corpus.insert(corpus.end(), version_one.begin(), version_one.end());
  const std::vector<std::string> tokens = {
      std::string("HALKSHRD"), std::string(8, '\xff'), std::string(8, '\0')};
  fuzz::RunCorpus(
      corpus, tokens, /*seed=*/977, /*iterations=*/3000,
      [](const std::string& input, const std::string& tag) {
        ShardFileHeader out;
        const Status status = ParseHeader(
            reinterpret_cast<const uint8_t*>(input.data()), input.size(),
            &out);
        if (!status.ok()) return;
        // Accepted headers carry self-consistent, bounded geometry: every
        // derived quantity the reader trusts re-derives without overflow.
        EXPECT_EQ(out.version, kShardFormatVersion) << tag;
        EXPECT_GT(out.dim, 0u) << tag;
        EXPECT_LT(out.entity_begin, out.entity_end) << tag;
        EXPECT_EQ(out.data_bytes, TotalDataBytes(out)) << tag;
        EXPECT_EQ(out.data_offset,
                  AlignUp(kPageBytes + out.num_groups * sizeof(uint64_t),
                          kPageBytes))
            << tag;
        // Row groups are page-aligned, hold their rows, and tile the data
        // region: the first starts it and the last ends it.
        const int64_t last = static_cast<int64_t>(out.num_groups) - 1;
        for (const int64_t g : {int64_t{0}, last}) {
          const RowGroupExtent extent = GroupExtent(out, g);
          EXPECT_EQ(extent.offset % kPageBytes, 0u) << tag;
          EXPECT_GE(extent.bytes, static_cast<uint64_t>(GroupRowCount(out, g)) *
                                      out.dim * sizeof(float))
              << tag;
        }
        EXPECT_EQ(GroupExtent(out, 0).offset, out.data_offset) << tag;
        EXPECT_EQ(GroupExtent(out, last).offset + GroupExtent(out, last).bytes,
                  out.data_offset + out.data_bytes)
            << tag;
        int64_t rows = 0;
        for (uint64_t g = 0; g < out.num_groups; ++g) {
          rows += GroupRowCount(out, static_cast<int64_t>(g));
        }
        EXPECT_EQ(rows, out.rows()) << tag;
      });
}

}  // namespace
}  // namespace halk::store

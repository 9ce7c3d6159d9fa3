#include "store/store.h"

#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/checkpoint.h"
#include "core/distance.h"
#include "core/evaluator.h"
#include "core/halk_model.h"
#include "core/topk.h"
#include "kg/synthetic.h"
#include "query/sampler.h"
#include "query/structures.h"
#include "serving/metrics.h"
#include "shard/coordinator.h"
#include "store/convert.h"
#include "store/format.h"
#include "store/shard_file.h"
#include "store/snapshot.h"
#include "store/writer.h"

namespace halk::store {
namespace {

using query::StructureId;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Deterministic row value so every test can recompute what any (entity,
/// dimension) cell must hold.
float Cell(int64_t entity, int64_t j) {
  return 0.25f * static_cast<float>(entity) - 0.5f * static_cast<float>(j);
}

/// Writes one shard file of Cell() rows for global ids [begin, end).
void WriteTestShardFile(const std::string& path, uint32_t dim, int64_t begin,
                        int64_t end, uint32_t rows_per_group) {
  ShardFileWriter writer(path, dim, begin, end, rows_per_group);
  std::vector<float> row(dim);
  for (int64_t e = begin; e < end; ++e) {
    for (int64_t j = 0; j < dim; ++j) {
      row[static_cast<size_t>(j)] = Cell(e, j);
    }
    ASSERT_TRUE(writer.Append(row.data(), 1).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
}

void FlipByteAt(const std::string& path, long offset) {
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, offset, SEEK_SET), 0);
  int c = fgetc(f);
  ASSERT_EQ(fseek(f, offset, SEEK_SET), 0);
  fputc(c ^ 0x5a, f);
  fclose(f);
}

TEST(ShardFileTest, RoundTripWithPartialTailGroup) {
  const std::string path = TempPath("roundtrip.halkstore");
  const uint32_t dim = 6;
  const int64_t begin = 100;
  const int64_t end = 1100;  // 1000 rows: 15 full groups of 64 + tail of 40
  WriteTestShardFile(path, dim, begin, end, /*rows_per_group=*/64);

  MappedShardFile::OpenOptions options;
  options.verify_checksums = true;
  auto opened = MappedShardFile::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const MappedShardFile& file = **opened;
  EXPECT_EQ(file.entity_begin(), begin);
  EXPECT_EQ(file.entity_end(), end);
  EXPECT_EQ(file.header().dim, dim);
  EXPECT_EQ(file.header().num_groups, 16u);
  EXPECT_EQ(file.GroupRows(15), 40);

  for (int64_t e = begin; e < end; ++e) {
    const int64_t local = e - begin;
    for (int64_t j = 0; j < dim; ++j) {
      ASSERT_EQ(file.Group(local / 64)[(local % 64) * dim + j], Cell(e, j))
          << "entity " << e << " dim " << j;
    }
  }
  EXPECT_TRUE(file.VerifyChecksums().ok());
  std::remove(path.c_str());
}

TEST(ShardFileTest, RejectsRowCountMismatch) {
  const std::string path = TempPath("rowcount.halkstore");
  std::vector<float> rows(4 * 10, 1.0f);
  {
    ShardFileWriter writer(path, 4, 0, 20, 8);
    ASSERT_TRUE(writer.Append(rows.data(), 10).ok());
    EXPECT_EQ(writer.Finish().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardFileWriter writer(path, 4, 0, 5, 8);
    EXPECT_EQ(writer.Append(rows.data(), 10).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ShardFileTest, MissingFileIsCleanError) {
  auto opened = MappedShardFile::Open(TempPath("no_such.halkstore"), {});
  EXPECT_FALSE(opened.ok());
}

TEST(ShardFileTest, RejectsCorruptHeader) {
  const std::string path = TempPath("badheader.halkstore");
  WriteTestShardFile(path, 4, 0, 100, 16);
  FlipByteAt(path, 0);  // magic
  auto opened = MappedShardFile::Open(path, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(ShardFileTest, RejectsTruncatedFile) {
  const std::string path = TempPath("truncated.halkstore");
  WriteTestShardFile(path, 4, 0, 100, 16);
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(kPageBytes + 64)), 0);
  auto opened = MappedShardFile::Open(path, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(ShardFileTest, BlockCorruptionCaughtByChecksums) {
  const std::string path = TempPath("badblock.halkstore");
  WriteTestShardFile(path, 4, 0, 100, 16);
  // A flipped float in the data region leaves the header valid...
  ShardFileHeader header;
  {
    auto opened = MappedShardFile::Open(path, {});
    ASSERT_TRUE(opened.ok());
    header = (*opened)->header();
  }
  FlipByteAt(path, static_cast<long>(header.data_offset) + 24);
  // ...so an eager open rejects it, and a lazy open defers to
  // VerifyChecksums (the `halk_store verify` path).
  MappedShardFile::OpenOptions eager;
  eager.verify_checksums = true;
  auto rejected = MappedShardFile::Open(path, eager);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kParseError);

  MappedShardFile::OpenOptions lazy;
  lazy.verify_checksums = false;
  auto opened = MappedShardFile::Open(path, lazy);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->VerifyChecksums().code(), StatusCode::kParseError);

  // A group's checksum covers its zero padding too: a flip in the file's
  // last byte, past the last row, is caught the same way.
  const std::string padded = TempPath("badpadding.halkstore");
  WriteTestShardFile(padded, 4, 0, 100, 16);
  const std::string bytes = SlurpFile(padded);
  ASSERT_EQ(bytes.back(), '\0');
  FlipByteAt(padded, static_cast<long>(bytes.size()) - 1);
  EXPECT_EQ(MappedShardFile::Open(padded, eager).status().code(),
            StatusCode::kParseError);
  std::remove(padded.c_str());
  std::remove(path.c_str());
}

TEST(ShardFileTest, ParseHeaderRejectsFieldTampering) {
  const std::string path = TempPath("header_fields.halkstore");
  WriteTestShardFile(path, 4, 0, 100, 16);
  const std::string bytes = SlurpFile(path);
  ASSERT_GE(bytes.size(), kPageBytes);
  ShardFileHeader valid;
  ASSERT_TRUE(ParseHeader(reinterpret_cast<const uint8_t*>(bytes.data()),
                          bytes.size(), &valid)
                  .ok());

  // Each mutation is re-serialized (fresh, self-consistent checksum) so the
  // specific validation branch is exercised, not just the checksum.
  std::vector<uint8_t> page(kPageBytes);
  const auto expect_rejected = [&](ShardFileHeader h, const char* what) {
    SerializeHeader(h, page.data());
    ShardFileHeader out;
    EXPECT_EQ(ParseHeader(page.data(), page.size(), &out).code(),
              StatusCode::kParseError)
        << what;
  };
  {
    ShardFileHeader h = valid;
    h.version = kShardFormatVersion + 1;
    expect_rejected(h, "future version");
  }
  {
    // Version 1's dimension-major groups are no longer read: a clean error
    // that names the version and says to rewrite the snapshot.
    ShardFileHeader h = valid;
    h.version = 1;
    SerializeHeader(h, page.data());
    ShardFileHeader out;
    const Status status = ParseHeader(page.data(), page.size(), &out);
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.message().find("version 1"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("rewrite the snapshot"),
              std::string::npos)
        << status.ToString();
  }
  {
    ShardFileHeader h = valid;
    h.dtype = 99;
    expect_rejected(h, "unknown dtype");
  }
  {
    ShardFileHeader h = valid;
    h.dim = 0;
    expect_rejected(h, "zero dim");
  }
  {
    ShardFileHeader h = valid;
    h.entity_end = h.entity_begin;
    expect_rejected(h, "empty entity range");
  }
  {
    ShardFileHeader h = valid;
    h.num_groups += 1;
    expect_rejected(h, "group count vs rows");
  }
  {
    ShardFileHeader h = valid;
    h.data_bytes += kPageBytes;
    expect_rejected(h, "data size vs geometry");
  }
  {
    // One checksum per row group: the 7 groups' table fits one page, so
    // the data starts on the file's third page and nowhere else.
    ASSERT_EQ(valid.data_offset, 2 * kPageBytes);
    ShardFileHeader h = valid;
    h.data_offset += kPageBytes;
    expect_rejected(h, "data offset vs checksum table");
  }
  {
    ShardFileHeader h = valid;
    h.rows_per_group = 32;
    expect_rejected(h, "rows per group vs group count");
  }
  // Truncated input never reads out of bounds.
  ShardFileHeader out;
  EXPECT_EQ(ParseHeader(reinterpret_cast<const uint8_t*>(bytes.data()),
                        kHeaderBytes - 1, &out)
                .code(),
            StatusCode::kParseError);
  std::remove(path.c_str());
}

StoreSnapshot MakeSnapshot() {
  StoreSnapshot snap;
  snap.model_name = "HaLk";
  snap.config.num_entities = 100;
  snap.config.num_relations = 7;
  snap.config.dim = 8;
  snap.config.hidden = 16;
  snap.config.seed = 11;
  snap.has_params = true;
  snap.params_checksum = 0xdeadbeefULL;
  snap.shards.push_back({"entities-0.halkstore", 0, 50, 0x1111});
  snap.shards.push_back({"entities-1.halkstore", 50, 100, 0x2222});
  return snap;
}

TEST(ManifestTest, RoundTripPreservesEveryField) {
  const StoreSnapshot snap = MakeSnapshot();
  const std::string text = SerializeManifest(snap);
  StoreSnapshot parsed;
  ASSERT_TRUE(ParseManifest(text, &parsed).ok());
  EXPECT_EQ(parsed.model_name, snap.model_name);
  EXPECT_EQ(parsed.config.num_entities, snap.config.num_entities);
  EXPECT_EQ(parsed.config.num_relations, snap.config.num_relations);
  EXPECT_EQ(parsed.config.dim, snap.config.dim);
  EXPECT_EQ(parsed.config.hidden, snap.config.hidden);
  EXPECT_EQ(parsed.config.rho, snap.config.rho);
  EXPECT_EQ(parsed.config.lambda, snap.config.lambda);
  EXPECT_EQ(parsed.config.eta, snap.config.eta);
  EXPECT_EQ(parsed.config.gamma, snap.config.gamma);
  EXPECT_EQ(parsed.config.xi, snap.config.xi);
  EXPECT_EQ(parsed.config.seed, snap.config.seed);
  EXPECT_EQ(parsed.has_params, true);
  EXPECT_EQ(parsed.params_checksum, snap.params_checksum);
  ASSERT_EQ(parsed.shards.size(), 2u);
  EXPECT_EQ(parsed.shards[1].file, "entities-1.halkstore");
  EXPECT_EQ(parsed.shards[1].entity_begin, 50);
  EXPECT_EQ(parsed.shards[1].entity_end, 100);
  EXPECT_EQ(parsed.shards[1].header_checksum, 0x2222u);
  // Serializing the parse reproduces the text byte-for-byte.
  EXPECT_EQ(SerializeManifest(parsed), text);
}

TEST(ManifestTest, TamperedByteFailsChecksum) {
  std::string text = SerializeManifest(MakeSnapshot());
  text[text.size() / 2] ^= 0x01;
  StoreSnapshot parsed;
  EXPECT_EQ(ParseManifest(text, &parsed).code(), StatusCode::kParseError);
}

TEST(ManifestTest, RejectsStructuralDamage) {
  StoreSnapshot parsed;
  // Truncation (checksum line gone).
  std::string text = SerializeManifest(MakeSnapshot());
  text.resize(text.rfind("checksum"));
  EXPECT_FALSE(ParseManifest(text, &parsed).ok());
  // Shard ranges that do not tile [0, num_entities).
  StoreSnapshot gap = MakeSnapshot();
  gap.shards[1].entity_begin = 60;
  EXPECT_EQ(ParseManifest(SerializeManifest(gap), &parsed).code(),
            StatusCode::kParseError);
  StoreSnapshot shortfall = MakeSnapshot();
  shortfall.shards[1].entity_end = 90;
  EXPECT_EQ(ParseManifest(SerializeManifest(shortfall), &parsed).code(),
            StatusCode::kParseError);
  // Path separators in shard file names (directory escape).
  StoreSnapshot escape = MakeSnapshot();
  escape.shards[0].file = "../entities-0.halkstore";
  EXPECT_EQ(ParseManifest(SerializeManifest(escape), &parsed).code(),
            StatusCode::kParseError);
  EXPECT_FALSE(ParseManifest("", &parsed).ok());
}

TEST(SnapshotWriterTest, BalancedFilesAndCrossBoundaryAppends) {
  const std::string dir = TempPath("snap_balanced");
  SnapshotWriterOptions options;
  options.dir = dir;
  options.config.num_entities = 103;
  options.config.num_relations = 3;
  options.config.dim = 5;
  options.num_shards = 4;
  options.rows_per_group = 16;
  auto writer = SnapshotWriter::Create(options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  // Append in odd batch sizes so batches straddle file boundaries.
  std::vector<float> all(103 * 5);
  for (int64_t e = 0; e < 103; ++e) {
    for (int64_t j = 0; j < 5; ++j) {
      all[static_cast<size_t>(e * 5 + j)] = Cell(e, j);
    }
  }
  ASSERT_TRUE((*writer)->AppendEntityRows(all.data(), 50).ok());
  ASSERT_TRUE((*writer)->AppendEntityRows(all.data() + 50 * 5, 30).ok());
  ASSERT_TRUE((*writer)->AppendEntityRows(all.data() + 80 * 5, 23).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  EmbeddingStore::OpenOptions open_options;
  serving::MetricsRegistry metrics;
  open_options.metrics = &metrics;
  auto store = EmbeddingStore::Open(dir, open_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->num_entities(), 103);
  EXPECT_EQ((*store)->dim(), 5);
  ASSERT_EQ((*store)->num_shard_files(), 4);
  // 103 = 26 + 26 + 26 + 25 (first `rem` files take the extra row).
  EXPECT_EQ((*store)->file(0).entity_end(), 26);
  EXPECT_EQ((*store)->file(3).entity_begin(), 78);
  EXPECT_EQ((*store)->file(3).entity_end(), 103);

  // The table has one row-major segment per row group of every file
  // (16 + 10 rows per 26-row file, 16 + 9 for the last), tiling [0, 103),
  // each read in place out of the mapping.
  const core::EntityTable& table = (*store)->table();
  ASSERT_EQ(table.segments.size(), 8u);
  int64_t next = 0;
  for (const core::EntityTable::Segment& segment : table.segments) {
    EXPECT_EQ(segment.first, next);
    for (int64_t r = 0; r < segment.rows; ++r) {
      for (int64_t j = 0; j < 5; ++j) {
        ASSERT_EQ(segment.base[r * 5 + j], Cell(next + r, j))
            << "entity " << next + r;
      }
    }
    next += segment.rows;
  }
  EXPECT_EQ(next, 103);
  EXPECT_EQ(table.segments[1].rows, 10);
  EXPECT_EQ(table.segments[7].rows, 9);

  std::vector<float> row(5);
  for (int64_t e = 0; e < 103; ++e) {
    table.CopyRow(e, row.data());
    for (int64_t j = 0; j < 5; ++j) {
      ASSERT_EQ(row[static_cast<size_t>(j)], Cell(e, j)) << "entity " << e;
    }
  }
  EXPECT_GT((*store)->MappedBytes(), 0u);
  EXPECT_TRUE((*store)->VerifyChecksums().ok());
  EXPECT_EQ(metrics.CounterValue("store.files_mapped"), 4);
  EXPECT_GT(metrics.GaugeValue("store.bytes_mapped"), 0.0);
}

TEST(SnapshotWriterTest, ReplacedShardFileIsRejectedByManifestBinding) {
  const std::string dir = TempPath("snap_replaced");
  SnapshotWriterOptions options;
  options.dir = dir;
  options.config.num_entities = 40;
  options.config.dim = 4;
  options.num_shards = 2;
  options.rows_per_group = 8;
  auto writer = SnapshotWriter::Create(options);
  ASSERT_TRUE(writer.ok());
  std::vector<float> rows(40 * 4, 1.5f);
  ASSERT_TRUE((*writer)->AppendEntityRows(rows.data(), 40).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  // Overwrite shard file 1 with a self-consistent file holding different
  // data: every per-file check passes, but the manifest's header-checksum
  // binding catches the swap.
  WriteTestShardFile(dir + "/entities-1.halkstore", 4, 20, 40, 8);
  auto store = EmbeddingStore::Open(dir, {});
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kParseError);
  EXPECT_NE(store.status().ToString().find("manifest"), std::string::npos)
      << store.status().ToString();
}

TEST(StoreScanTest, BoundAwareScanFiltersEntitiesExactly) {
  const std::string dir = TempPath("snap_scan_skip");
  const int64_t dim = 8;
  SnapshotWriterOptions options;
  options.dir = dir;
  options.config.num_entities = 256;
  options.config.num_relations = 1;
  options.config.dim = dim;
  options.num_shards = 1;
  options.rows_per_group = 32;
  auto writer = SnapshotWriter::Create(options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<float> rows(256 * dim);
  for (int64_t e = 0; e < 256; ++e) {
    for (int64_t j = 0; j < dim; ++j) {
      rows[static_cast<size_t>(e * dim + j)] = Cell(e, j);
    }
  }
  ASSERT_TRUE((*writer)->AppendEntityRows(rows.data(), 256).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto store = EmbeddingStore::Open(dir, {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const core::EntityTable& table = (*store)->table();

  std::vector<float> center(dim, 0.0f);
  std::vector<float> length(dim, 0.1f);
  const std::vector<core::ArcConstants> arcs = {
      core::MakeArcConstants(center.data(), length.data(), dim, 1.0f, 0.9f)};

  // Exactness: the scan's heap equals pushing every exact distance.
  core::TopKAccumulator scanned(10);
  core::ScanStats stats;
  table.AccumulateTopK(arcs, 0, 256, /*prune=*/true, &scanned, &stats);
  core::TopKAccumulator expected(10);
  std::vector<float> row(dim);
  for (int64_t e = 0; e < 256; ++e) {
    table.CopyRow(e, row.data());
    expected.Push(e, core::ArcPointDistance(row.data(), center.data(),
                                            length.data(), dim, 1.0f, 0.9f));
  }
  EXPECT_EQ(scanned.Take(), expected.Take());
  EXPECT_EQ(stats.entities_scanned, 256);
  EXPECT_LE(stats.entities_filtered, stats.entities_pruned);

  // With an already-tight bound every entity is pruned, and the filter
  // drops most of them from their codes alone: rows the scan never reads.
  core::TopKAccumulator tight(1);
  tight.Push(/*entity=*/9999, 0.0f);
  core::ScanStats tight_stats;
  table.AccumulateTopK(arcs, 0, 256, /*prune=*/true, &tight, &tight_stats);
  EXPECT_GT(tight_stats.entities_filtered, 128);
  EXPECT_EQ(tight_stats.entities_pruned, 256);
}

/// End-to-end fixture: a trained-shape model over a small synthetic KG,
/// snapshotted to disk and re-opened as a store-backed serving model.
class StoreServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 160;
    opt.num_relations = 6;
    opt.num_triples = 1000;
    opt.seed = 13;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
    core::ModelConfig config;
    config.num_entities = dataset_->train.num_entities();
    config.num_relations = dataset_->train.num_relations();
    config.dim = 8;
    config.hidden = 16;
    config.seed = 7;
    model_ = new core::HalkModel(config, nullptr);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
  }

  static std::vector<int64_t> Entities(
      const std::vector<core::ScoredEntity>& entries) {
    std::vector<int64_t> out;
    for (const core::ScoredEntity& s : entries) out.push_back(s.entity);
    return out;
  }

  static kg::Dataset* dataset_;
  static core::HalkModel* model_;
};

kg::Dataset* StoreServingTest::dataset_ = nullptr;
core::HalkModel* StoreServingTest::model_ = nullptr;

// Acceptance property: the store-backed model ranks bit-identically to the
// in-RAM model, standalone and under every sharded partition. Inputs: the
// fixture model (η >= 0, pruned scans) and an η < 0 model (unpruned scans),
// each served from a store opened with scanned-page release off and on
// (stores always have codes), plus an in-RAM twin of each with codes
// built, so the two-stage scan is held to the one-stage scan in RAM too.
TEST_F(StoreServingTest, StoreBackedTopKIsBitIdenticalToInRam) {
  core::ModelConfig unpruned_config = model_->config();
  unpruned_config.eta = -0.5f;
  core::HalkModel unpruned(unpruned_config, nullptr);
  EmbeddingStore::OpenOptions release_on;
  release_on.release_scanned_pages = true;

  for (core::HalkModel* in_ram_model : {model_, &unpruned}) {
    const float eta = in_ram_model->config().eta;
    const std::string dir =
        TempPath(eta < 0.0f ? "snap_serving_unpruned" : "snap_serving");
    ASSERT_TRUE(WriteModelSnapshot(*in_ram_model, dir, /*num_shards=*/3).ok());
    core::Evaluator in_ram(in_ram_model);
    ASSERT_TRUE(in_ram_model->entity_table().codes.empty());
    core::HalkModel coded(in_ram_model->config(), nullptr);
    coded.PrepareForServing();
    ASSERT_FALSE(coded.entity_table().codes.empty());
    ASSERT_EQ(std::memcmp(coded.entity_angles().data(),
                          in_ram_model->entity_angles().data(),
                          sizeof(float) * coded.entity_angles().numel()),
              0);
    core::Evaluator in_ram_coded(&coded);
    // The filter runs only where pruning is exact (η >= 0): the η < 0
    // twin's scan prunes nothing, codes or not.
    {
      const int64_t n = coded.config().num_entities;
      const query::GroundedQuery q =
          query::QuerySampler(&dataset_->train, 5)
              .Sample(StructureId::k2i)
              .ValueOrDie();
      const core::EmbeddingBatch embedding = coded.EmbedQueries({&q.graph});
      core::TopKAccumulator acc(10);
      core::ScanStats coded_stats;
      coded.AccumulateTopKRange({{&embedding, 0}}, 0, n, &acc, &coded_stats);
      if (eta < 0.0f) {
        EXPECT_EQ(coded_stats.entities_pruned, 0);
      } else {
        EXPECT_GT(coded_stats.entities_pruned, 0);
      }
    }
    // Per (shard count, query) scan counters of each store, to compare the
    // release-on store against the release-off one.
    std::vector<std::vector<core::ScanStats>> stats_by_store;

    for (const EmbeddingStore::OpenOptions& open_options :
         {EmbeddingStore::OpenOptions{}, release_on}) {
      const std::string label =
          StrFormat("eta %g, release %d", eta,
                    static_cast<int>(open_options.release_scanned_pages));
      auto store = EmbeddingStore::Open(dir, open_options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      auto served = OpenServingModel(**store, nullptr);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_TRUE((*served)->store_backed());

      core::Evaluator out_of_core(served->get());
      query::QuerySampler sampler(&dataset_->train, 3);
      for (StructureId s :
           {StructureId::k1p, StructureId::k2p, StructureId::k2i,
            StructureId::k2u}) {
        auto queries = sampler.SampleMany(s, 3);
        ASSERT_TRUE(queries.ok());
        for (const query::GroundedQuery& q : *queries) {
          EXPECT_EQ(in_ram.TopK(q.graph, 10), out_of_core.TopK(q.graph, 10))
              << query::StructureName(s) << ", " << label;
          EXPECT_EQ(in_ram.TopK(q.graph, 10), in_ram_coded.TopK(q.graph, 10))
              << query::StructureName(s) << ", " << label;
          // Raw distances match bit-exactly, not just the ranking.
          const std::vector<float> a = in_ram.ScoreAllEntities(q.graph);
          const std::vector<float> b = out_of_core.ScoreAllEntities(q.graph);
          ASSERT_EQ(a.size(), b.size());
          for (size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i], b[i]) << "entity " << i << ", " << label;
          }
        }
      }

      // Sharded serving over the store: file count (3) deliberately
      // differs from every shard count so ranges straddle shard-file
      // boundaries.
      const int64_t n = (*served)->config().num_entities;
      std::vector<core::ScanStats>& stats = stats_by_store.emplace_back();
      for (int shards : {1, 2, 4, 8}) {
        shard::ShardOptions options;
        options.num_shards = shards;
        shard::ShardCoordinator coordinator(served->get(), options);
        shard::ShardCoordinator plain_coordinator(in_ram_model, options);
        shard::ShardCoordinator coded_coordinator(&coded, options);
        query::QuerySampler shard_sampler(&dataset_->train, 17);
        for (const query::GroundedQuery& q :
             shard_sampler.SampleMany(StructureId::k2i, 4).ValueOrDie()) {
          shard::ShardedTopK top = coordinator.TopK(q.graph, 10);
          ASSERT_TRUE(top.ok()) << top.status.ToString();
          EXPECT_EQ(Entities(top.entries), in_ram.TopK(q.graph, 10))
              << shards << " shards, " << label;
          // In RAM, with codes and without: the same entities at the same
          // distances, bit for bit.
          shard::ShardedTopK plain = plain_coordinator.TopK(q.graph, 10);
          shard::ShardedTopK with_codes = coded_coordinator.TopK(q.graph, 10);
          ASSERT_TRUE(plain.ok() && with_codes.ok());
          ASSERT_EQ(plain.entries.size(), with_codes.entries.size());
          for (size_t i = 0; i < plain.entries.size(); ++i) {
            EXPECT_EQ(plain.entries[i].entity, with_codes.entries[i].entity);
            EXPECT_EQ(std::bit_cast<uint32_t>(plain.entries[i].distance),
                      std::bit_cast<uint32_t>(with_codes.entries[i].distance))
                << shards << " shards, " << label;
          }
          EXPECT_EQ(top.entries, with_codes.entries)
              << shards << " shards, " << label;
          // The same partition scanned directly, for its counters.
          const core::EmbeddingBatch embedding =
              (*served)->EmbedQueries({&q.graph});
          core::ScanStats& total = stats.emplace_back();
          for (int i = 0; i < shards; ++i) {
            core::TopKAccumulator acc(10);
            (*served)->AccumulateTopKRange({{&embedding, 0}}, n * i / shards,
                                           n * (i + 1) / shards, &acc,
                                           &total);
          }
          EXPECT_EQ(total.entities_scanned, n);
        }
      }
    }

    // Releasing scanned pages changes what stays resident, never what the
    // scan reads or prunes.
    ASSERT_EQ(stats_by_store.size(), 2u);
    ASSERT_EQ(stats_by_store[0].size(), stats_by_store[1].size());
    for (size_t i = 0; i < stats_by_store[0].size(); ++i) {
      const core::ScanStats& off = stats_by_store[0][i];
      const core::ScanStats& on = stats_by_store[1][i];
      EXPECT_EQ(off.entities_scanned, on.entities_scanned) << i;
      EXPECT_EQ(off.entities_pruned, on.entities_pruned) << i;
      EXPECT_EQ(off.entities_filtered, on.entities_filtered) << i;
    }
  }
}

TEST_F(StoreServingTest, BlobToSnapshotToBlobIsByteIdentical) {
  const std::string blob_a = TempPath("legacy_a.bin");
  const std::string dir = TempPath("snap_convert");
  const std::string blob_b = TempPath("legacy_b.bin");
  ASSERT_TRUE(core::SaveCheckpoint(*model_, blob_a).ok());
  ASSERT_TRUE(ConvertCheckpointToSnapshot(blob_a, dir, /*num_shards=*/2).ok());
  ASSERT_TRUE(ConvertSnapshotToCheckpoint(dir, blob_b).ok());

  const std::string a = SlurpFile(blob_a);
  const std::string b = SlurpFile(blob_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  // And the regenerated blob loads through the legacy path.
  core::HalkModel restored(model_->config(), nullptr);
  EXPECT_TRUE(core::LoadCheckpoint(&restored, blob_b).ok());
  std::remove(blob_a.c_str());
  std::remove(blob_b.c_str());
}

TEST_F(StoreServingTest, ServingModelRequiresParams) {
  const std::string dir = TempPath("snap_noparams");
  SnapshotWriterOptions options;
  options.dir = dir;
  options.config = model_->config();
  options.num_shards = 2;
  auto writer = SnapshotWriter::Create(options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)
                  ->AppendEntityRows(model_->entity_angles().data(),
                                     model_->config().num_entities)
                  .ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto store = EmbeddingStore::Open(dir, {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto served = OpenServingModel(**store, nullptr);
  EXPECT_FALSE(served.ok());
}

TEST_F(StoreServingTest, MissingManifestIsCleanError) {
  auto store = EmbeddingStore::Open(TempPath("no_such_snapshot"), {});
  EXPECT_FALSE(store.ok());
}

}  // namespace
}  // namespace halk::store

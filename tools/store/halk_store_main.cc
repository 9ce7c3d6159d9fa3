// halk_store: offline tooling for out-of-core embedding-store snapshots
// (src/store/, docs/storage.md).
//
//   halk_store inspect <snapshot-dir>
//       Print the manifest and per-shard-file geometry. Maps the files but
//       reads only headers — safe on stores far larger than RAM.
//   halk_store verify <snapshot-dir>
//       Re-verify every row-group checksum and the params blob. Faults
//       in the whole table; run offline, not at serve time.
//   halk_store from-checkpoint <ckpt.bin> <snapshot-dir> [--shards N]
//       Convert a legacy --checkpoint blob into a store snapshot.
//   halk_store to-checkpoint <snapshot-dir> <ckpt.bin>
//       Convert a snapshot (with params) back into a legacy blob,
//       byte-identical to what SaveCheckpoint of the same model writes.
//
// Exit codes: 0 success, 1 verification/conversion failure, 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "store/convert.h"
#include "store/format.h"
#include "store/shard_file.h"
#include "store/snapshot.h"
#include "store/store.h"
#include "store/writer.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: halk_store <command> ...\n"
               "  inspect <snapshot-dir>\n"
               "  verify <snapshot-dir>\n"
               "  from-checkpoint <ckpt.bin> <snapshot-dir> [--shards N]\n"
               "  to-checkpoint <snapshot-dir> <ckpt.bin>\n");
  return 2;
}

int Fail(const halk::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Inspect(const std::string& dir) {
  halk::store::EmbeddingStore::OpenOptions options;
  options.verify_checksums = false;  // headers only; stay out of core
  auto store = halk::store::EmbeddingStore::Open(dir, options);
  if (!store.ok()) return Fail(store.status());
  const halk::store::StoreSnapshot& snap = (*store)->snapshot();
  std::printf("snapshot    %s\n", dir.c_str());
  std::printf("model       %s\n", snap.model_name.c_str());
  std::printf("entities    %lld\n",
              static_cast<long long>(snap.config.num_entities));
  std::printf("relations   %lld\n",
              static_cast<long long>(snap.config.num_relations));
  std::printf("dim         %lld\n", static_cast<long long>(snap.config.dim));
  std::printf("params      %s\n", snap.has_params ? "yes" : "no");
  std::printf("table_mib   %.1f\n",
              static_cast<double>((*store)->MappedBytes()) / (1024 * 1024));
  std::printf("shard_files %lld\n",
              static_cast<long long>((*store)->num_shard_files()));
  for (size_t i = 0; i < snap.shards.size(); ++i) {
    const halk::store::SnapshotShardEntry& entry = snap.shards[i];
    std::printf("  %-24s entities [%lld, %lld)  %zu bytes  0x%016llx\n",
                entry.file.c_str(),
                static_cast<long long>(entry.entity_begin),
                static_cast<long long>(entry.entity_end),
                (*store)->file(static_cast<int64_t>(i)).mapped_bytes(),
                static_cast<unsigned long long>(entry.header_checksum));
  }
  return 0;
}

int Verify(const std::string& dir) {
  halk::store::EmbeddingStore::OpenOptions options;
  options.verify_checksums = false;  // VerifyChecksums below reports per file
  auto store = halk::store::EmbeddingStore::Open(dir, options);
  if (!store.ok()) return Fail(store.status());
  if (halk::Status s = (*store)->VerifyChecksums(); !s.ok()) return Fail(s);
  const halk::store::StoreSnapshot& snap = (*store)->snapshot();
  if (snap.has_params) {
    std::string name;
    halk::core::ModelConfig config;
    std::vector<std::vector<float>> tensors;
    uint64_t checksum = 0;
    halk::Status s = halk::store::ReadParamsBlob(
        dir + "/" + halk::store::kParamsFileName, &name, &config, &tensors,
        &checksum);
    if (!s.ok()) return Fail(s);
    if (checksum != snap.params_checksum) {
      return Fail(halk::Status::ParseError(
          "params blob checksum disagrees with manifest"));
    }
  }
  std::printf("ok: %lld shard files, %zu bytes, params %s\n",
              static_cast<long long>((*store)->num_shard_files()),
              (*store)->MappedBytes(), snap.has_params ? "ok" : "absent");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "inspect") {
    if (argc != 3) return Usage();
    return Inspect(argv[2]);
  }
  if (command == "verify") {
    if (argc != 3) return Usage();
    return Verify(argv[2]);
  }
  if (command == "from-checkpoint") {
    if (argc < 4) return Usage();
    long long shards = 1;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
        shards = std::atoll(argv[++i]);
      } else {
        return Usage();
      }
    }
    if (shards <= 0) {
      std::fprintf(stderr, "error: --shards must be > 0\n");
      return 2;
    }
    halk::Status s = halk::store::ConvertCheckpointToSnapshot(
        argv[2], argv[3], static_cast<int64_t>(shards));
    if (!s.ok()) return Fail(s);
    std::printf("wrote snapshot %s (%lld shard files)\n", argv[3], shards);
    return 0;
  }
  if (command == "to-checkpoint") {
    if (argc != 4) return Usage();
    halk::Status s = halk::store::ConvertSnapshotToCheckpoint(argv[2],
                                                              argv[3]);
    if (!s.ok()) return Fail(s);
    std::printf("wrote checkpoint %s\n", argv[3]);
    return 0;
  }
  return Usage();
}

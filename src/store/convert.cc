#include "store/convert.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/string_util.h"
#include "store/format.h"
#include "store/writer.h"

namespace halk::store {

namespace {

constexpr char kCkptMagic[8] = {'H', 'A', 'L', 'K', 'C', 'K', 'P', 'T'};
constexpr uint32_t kCkptVersion = 1;

}  // namespace

Status ReadLegacyCheckpoint(const std::string& path, LegacyCheckpoint* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open " + path);
  }
  uint64_t hash = kFnvSeed;
  auto raw = [&](void* data, size_t n) -> bool {
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (!in.good()) return false;
    hash = Fnv1a64(data, n, hash);
    return true;
  };
  char magic[8];
  if (!raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return Status::ParseError("bad checkpoint magic: " + path);
  }
  uint32_t version = 0;
  if (!raw(&version, sizeof(version)) || version != kCkptVersion) {
    return Status::ParseError(
        StrFormat("unsupported checkpoint version %u", version));
  }
  uint32_t name_len = 0;
  if (!raw(&name_len, sizeof(name_len)) || name_len > 256) {
    return Status::ParseError("bad model name length: " + path);
  }
  LegacyCheckpoint ckpt;
  ckpt.model_name.resize(name_len);
  if (!raw(ckpt.model_name.data(), name_len)) {
    return Status::ParseError("truncated checkpoint: " + path);
  }
  core::ModelConfig& c = ckpt.config;
  if (!(raw(&c.num_entities, sizeof(c.num_entities)) &&
        raw(&c.num_relations, sizeof(c.num_relations)) &&
        raw(&c.dim, sizeof(c.dim)) && raw(&c.hidden, sizeof(c.hidden)) &&
        raw(&c.rho, sizeof(c.rho)) && raw(&c.lambda, sizeof(c.lambda)) &&
        raw(&c.eta, sizeof(c.eta)) && raw(&c.gamma, sizeof(c.gamma)) &&
        raw(&c.xi, sizeof(c.xi)) && raw(&c.seed, sizeof(c.seed)))) {
    return Status::ParseError("truncated checkpoint config: " + path);
  }
  uint64_t num_tensors = 0;
  if (!raw(&num_tensors, sizeof(num_tensors)) || num_tensors > 4096) {
    return Status::ParseError("bad checkpoint tensor count: " + path);
  }
  ckpt.tensors.resize(num_tensors);
  for (uint64_t t = 0; t < num_tensors; ++t) {
    uint64_t numel = 0;
    if (!raw(&numel, sizeof(numel)) || numel > (uint64_t{1} << 34)) {
      return Status::ParseError(
          StrFormat("bad checkpoint tensor %llu size",
                    static_cast<unsigned long long>(t)));
    }
    ckpt.tensors[t].resize(static_cast<size_t>(numel));
    if (!raw(ckpt.tensors[t].data(), sizeof(float) * ckpt.tensors[t].size())) {
      return Status::ParseError("truncated checkpoint tensor data: " + path);
    }
  }
  const uint64_t computed = hash;
  uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in.good() || stored != computed) {
    return Status::ParseError("checkpoint checksum mismatch: " + path);
  }
  *out = std::move(ckpt);
  return Status::OK();
}

Status WriteLegacyCheckpoint(const std::string& path,
                             const LegacyCheckpoint& ckpt) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  uint64_t hash = kFnvSeed;
  auto raw = [&](const void* data, size_t n) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
    hash = Fnv1a64(data, n, hash);
  };
  raw(kCkptMagic, sizeof(kCkptMagic));
  raw(&kCkptVersion, sizeof(kCkptVersion));
  const uint32_t name_len = static_cast<uint32_t>(ckpt.model_name.size());
  raw(&name_len, sizeof(name_len));
  raw(ckpt.model_name.data(), ckpt.model_name.size());
  const core::ModelConfig& c = ckpt.config;
  raw(&c.num_entities, sizeof(c.num_entities));
  raw(&c.num_relations, sizeof(c.num_relations));
  raw(&c.dim, sizeof(c.dim));
  raw(&c.hidden, sizeof(c.hidden));
  raw(&c.rho, sizeof(c.rho));
  raw(&c.lambda, sizeof(c.lambda));
  raw(&c.eta, sizeof(c.eta));
  raw(&c.gamma, sizeof(c.gamma));
  raw(&c.xi, sizeof(c.xi));
  raw(&c.seed, sizeof(c.seed));
  const uint64_t num_tensors = ckpt.tensors.size();
  raw(&num_tensors, sizeof(num_tensors));
  for (const std::vector<float>& t : ckpt.tensors) {
    const uint64_t numel = t.size();
    raw(&numel, sizeof(numel));
    raw(t.data(), sizeof(float) * t.size());
  }
  out.write(reinterpret_cast<const char*>(&hash), sizeof(hash));
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status ConvertCheckpointToSnapshot(const std::string& blob_path,
                                   const std::string& dir,
                                   int64_t num_shards) {
  LegacyCheckpoint ckpt;
  HALK_RETURN_NOT_OK(ReadLegacyCheckpoint(blob_path, &ckpt));
  if (ckpt.tensors.empty()) {
    return Status::InvalidArgument("checkpoint carries no tensors");
  }
  const core::ModelConfig& c = ckpt.config;
  const uint64_t table_numel = static_cast<uint64_t>(c.num_entities) *
                               static_cast<uint64_t>(c.dim);
  if (ckpt.tensors[0].size() != table_numel) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint tensor 0 has %zu floats, expected %llu (the entity "
        "table)",
        ckpt.tensors[0].size(),
        static_cast<unsigned long long>(table_numel)));
  }
  SnapshotWriterOptions options;
  options.dir = dir;
  options.model_name = ckpt.model_name;
  options.config = c;
  options.num_shards = num_shards;
  std::unique_ptr<SnapshotWriter> writer;
  HALK_ASSIGN_OR_RETURN(writer, SnapshotWriter::Create(options));
  HALK_RETURN_NOT_OK(
      writer->AppendEntityRows(ckpt.tensors[0].data(), c.num_entities));
  std::vector<std::vector<float>> params(
      std::make_move_iterator(ckpt.tensors.begin() + 1),
      std::make_move_iterator(ckpt.tensors.end()));
  HALK_RETURN_NOT_OK(writer->SetParams(std::move(params)));
  return writer->Finish();
}

Status ConvertSnapshotToCheckpoint(const std::string& dir,
                                   const std::string& blob_path) {
  EmbeddingStore::OpenOptions options;
  options.verify_checksums = true;
  std::unique_ptr<EmbeddingStore> store;
  HALK_ASSIGN_OR_RETURN(store, EmbeddingStore::Open(dir, options));
  if (!store->snapshot().has_params) {
    return Status::InvalidArgument(
        "snapshot has no params blob; cannot reconstruct a full checkpoint");
  }
  std::string name;
  core::ModelConfig config;
  std::vector<std::vector<float>> params;
  uint64_t checksum = 0;
  HALK_RETURN_NOT_OK(ReadParamsBlob(dir + "/" + kParamsFileName, &name,
                                    &config, &params, &checksum));
  if (checksum != store->snapshot().params_checksum) {
    return Status::ParseError(
        "params blob checksum disagrees with the manifest");
  }
  LegacyCheckpoint ckpt;
  ckpt.model_name = name;
  ckpt.config = config;
  ckpt.tensors.resize(params.size() + 1);
  const int64_t n = store->num_entities();
  const int64_t d = store->dim();
  ckpt.tensors[0].resize(static_cast<size_t>(n * d));
  for (int64_t e = 0; e < n; ++e) {
    store->table().CopyRow(e, ckpt.tensors[0].data() + e * d);
  }
  for (size_t i = 0; i < params.size(); ++i) {
    ckpt.tensors[i + 1] = std::move(params[i]);
  }
  return WriteLegacyCheckpoint(blob_path, ckpt);
}

Result<std::unique_ptr<core::HalkModel>> OpenServingModel(
    const EmbeddingStore& store, const kg::NodeGrouping* grouping) {
  const StoreSnapshot& snap = store.snapshot();
  if (snap.model_name != "HaLk") {
    return Status::InvalidArgument("snapshot is for model '" +
                                   snap.model_name + "', not 'HaLk'");
  }
  if (!snap.has_params) {
    return Status::InvalidArgument(
        "snapshot has no params blob; a serving model needs the operator "
        "weights");
  }
  std::string name;
  core::ModelConfig config;
  std::vector<std::vector<float>> params;
  uint64_t checksum = 0;
  HALK_RETURN_NOT_OK(ReadParamsBlob(store.dir() + "/" + kParamsFileName,
                                    &name, &config, &params, &checksum));
  if (checksum != snap.params_checksum) {
    return Status::ParseError(
        "params blob checksum disagrees with the manifest");
  }
  auto model = std::make_unique<core::HalkModel>(snap.config, grouping,
                                                 &store.table());
  // Store-backed Parameters() excludes the entity table, so blob tensor i
  // maps straight onto parameter i.
  std::vector<tensor::Tensor> dst = model->Parameters();
  if (dst.size() != params.size()) {
    return Status::InvalidArgument(
        StrFormat("params blob has %zu tensors, model expects %zu",
                  params.size(), dst.size()));
  }
  for (size_t i = 0; i < dst.size(); ++i) {
    if (static_cast<size_t>(dst[i].numel()) != params[i].size()) {
      return Status::InvalidArgument(
          StrFormat("params tensor %zu shape mismatch", i));
    }
    std::copy(params[i].begin(), params[i].end(), dst[i].data());
  }
  return model;
}

}  // namespace halk::store

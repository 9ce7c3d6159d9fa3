#ifndef HALK_STORE_WRITER_H_
#define HALK_STORE_WRITER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/halk_model.h"
#include "core/query_model.h"
#include "store/shard_file.h"
#include "store/snapshot.h"

namespace halk::store {

/// Writes the non-entity parameter blob (`params.halkblob`): everything a
/// serving model needs besides the entity table, which lives in the shard
/// files. Same byte conventions as the legacy checkpoint (raw PODs, rolling
/// FNV-1a trailer) with its own magic. `tensors` is flat float data in
/// HalkModel::Parameters() order minus the entity table. On success
/// `*checksum` receives the blob's trailing checksum (what the manifest
/// binds).
[[nodiscard]] Status WriteParamsBlob(
    const std::string& path, const std::string& model_name,
    const core::ModelConfig& config,
    const std::vector<std::vector<float>>& tensors, uint64_t* checksum);

/// Reads a params blob back, verifying the trailing checksum. On success
/// `*checksum` receives it for comparison against the manifest.
[[nodiscard]] Status ReadParamsBlob(const std::string& path,
                                    std::string* model_name,
                                    core::ModelConfig* config,
                                    std::vector<std::vector<float>>* tensors,
                                    uint64_t* checksum);

struct SnapshotWriterOptions {
  std::string dir;
  std::string model_name = "HaLk";
  core::ModelConfig config;
  /// Shard *files* to split the entity table across (independent of the
  /// serving shard count — ranges may straddle file boundaries at scan
  /// time).
  int64_t num_shards = 1;
  uint32_t rows_per_group = kDefaultRowsPerGroup;
};

/// Streams an entity table into a snapshot directory: contiguous balanced
/// `entities-<i>.halkstore` files, optional params blob, and the manifest
/// written last (atomically) so a crashed writer never leaves a loadable
/// half-snapshot. Rows arrive in entity order and go straight to their
/// file, so the writer holds no rows whatever the table size — the writer
/// end of "out of core".
class SnapshotWriter {
 public:
  [[nodiscard]] static Result<std::unique_ptr<SnapshotWriter>> Create(
      const SnapshotWriterOptions& options);
  ~SnapshotWriter() = default;

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Appends `n` row-major rows (`n * config.dim` floats), splitting across
  /// file boundaries as needed.
  [[nodiscard]] Status AppendEntityRows(const float* rows, int64_t n);

  /// Optional non-entity parameters (HalkModel::Parameters() order minus
  /// the entity table). Call before Finish.
  [[nodiscard]] Status SetParams(std::vector<std::vector<float>> tensors);

  /// Finalizes every shard file, writes the params blob (if set) and the
  /// manifest. Requires exactly config.num_entities appended rows.
  [[nodiscard]] Status Finish();

 private:
  explicit SnapshotWriter(const SnapshotWriterOptions& options);

  SnapshotWriterOptions options_;
  StoreSnapshot snapshot_;
  std::vector<std::unique_ptr<ShardFileWriter>> writers_;
  std::vector<std::vector<float>> params_;
  bool has_params_ = false;
  int64_t appended_rows_ = 0;
  int64_t current_file_ = 0;
  bool finished_ = false;
};

/// Convenience: snapshots a trained in-RAM model — streams its entity angle
/// table into `num_shards` shard files and stores the remaining parameters
/// as the params blob.
[[nodiscard]] Status WriteModelSnapshot(const core::HalkModel& model,
                                        const std::string& dir,
                                        int64_t num_shards);

}  // namespace halk::store

#endif  // HALK_STORE_WRITER_H_

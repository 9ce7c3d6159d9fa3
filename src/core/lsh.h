#ifndef HALK_CORE_LSH_H_
#define HALK_CORE_LSH_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace halk::core {

/// Locality-sensitive hashing over entity point embeddings (Sec. III-H:
/// "a range search in the low-dimensional vector space ... can be done in
/// constant time using search algorithms such as LSH").
///
/// Entity angles θ ∈ R^d are mapped to the 2d-dimensional rectangular
/// embedding (cos θ, sin θ) — where the paper's chord distance is the
/// plain Euclidean distance — and hashed with random hyperplanes (sign
/// bits). Candidates are gathered from the query's buckets across several
/// tables and re-ranked exactly, trading a small recall loss for a large
/// reduction in distance evaluations.
class AngularLshIndex {
 public:
  struct Options {
    int num_tables = 8;
    int bits_per_table = 10;
    uint64_t seed = 17;
  };

  /// Builds the index over `angles` (row-major [num_entities, dim]).
  AngularLshIndex(const float* angles, int64_t num_entities, int64_t dim,
                  const Options& options);

  /// Entities sharing at least one bucket with the query arc's center
  /// (deduplicated, unsorted). May be empty for an isolated query.
  std::vector<int64_t> Candidates(const float* center_angles) const;

  /// Top-k entities by exact arc distance, searching LSH candidates first
  /// and falling back to a full scan when candidates < 4k (quality guard).
  /// `scan_fraction` (optional) receives the fraction of entities scored.
  /// Read-only, so one index may serve concurrent callers.
  std::vector<int64_t> TopK(const float* arc_center, const float* arc_length,
                            int64_t k, float rho, float eta,
                            double* scan_fraction = nullptr) const;

  int64_t num_entities() const { return num_entities_; }

 private:
  uint32_t HashPoint(const std::vector<float>& rect, int table) const;
  std::vector<float> ToRect(const float* angles) const;

  int64_t num_entities_;
  int64_t dim_;
  Options options_;
  // Hyperplanes: [table][bit][2*dim] coefficients.
  std::vector<std::vector<std::vector<float>>> planes_;
  // Buckets: per table, hash -> entity list.
  std::vector<std::vector<std::vector<int64_t>>> buckets_;
  const float* angles_;  // not owned; must outlive the index
};

}  // namespace halk::core

#endif  // HALK_CORE_LSH_H_

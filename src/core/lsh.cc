#include "core/lsh.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"
#include "core/distance.h"

namespace halk::core {

AngularLshIndex::AngularLshIndex(const float* angles, int64_t num_entities,
                                 int64_t dim, const Options& options)
    : num_entities_(num_entities),
      dim_(dim),
      options_(options),
      angles_(angles) {
  HALK_CHECK(angles != nullptr);
  HALK_CHECK_GT(num_entities, 0);
  HALK_CHECK_GT(dim, 0);
  HALK_CHECK_GT(options.num_tables, 0);
  HALK_CHECK_GT(options.bits_per_table, 0);
  HALK_CHECK_LE(options.bits_per_table, 20);

  Rng rng(options_.seed);
  planes_.resize(static_cast<size_t>(options_.num_tables));
  buckets_.resize(static_cast<size_t>(options_.num_tables));
  for (int t = 0; t < options_.num_tables; ++t) {
    planes_[static_cast<size_t>(t)].resize(
        static_cast<size_t>(options_.bits_per_table));
    for (auto& plane : planes_[static_cast<size_t>(t)]) {
      plane.resize(static_cast<size_t>(2 * dim_));
      for (float& c : plane) c = static_cast<float>(rng.Normal());
    }
    buckets_[static_cast<size_t>(t)].resize(
        size_t{1} << options_.bits_per_table);
  }
  for (int64_t e = 0; e < num_entities_; ++e) {
    std::vector<float> rect = ToRect(angles_ + e * dim_);
    for (int t = 0; t < options_.num_tables; ++t) {
      buckets_[static_cast<size_t>(t)][HashPoint(rect, t)].push_back(e);
    }
  }
}

std::vector<float> AngularLshIndex::ToRect(const float* angles) const {
  std::vector<float> rect(static_cast<size_t>(2 * dim_));
  for (int64_t i = 0; i < dim_; ++i) {
    rect[static_cast<size_t>(2 * i)] = std::cos(angles[i]);
    rect[static_cast<size_t>(2 * i + 1)] = std::sin(angles[i]);
  }
  return rect;
}

uint32_t AngularLshIndex::HashPoint(const std::vector<float>& rect,
                                    int table) const {
  uint32_t h = 0;
  const auto& planes = planes_[static_cast<size_t>(table)];
  for (size_t b = 0; b < planes.size(); ++b) {
    float dot = 0.0f;
    for (size_t i = 0; i < rect.size(); ++i) dot += planes[b][i] * rect[i];
    h = (h << 1) | (dot >= 0.0f ? 1u : 0u);
  }
  return h;
}

std::vector<int64_t> AngularLshIndex::Candidates(
    const float* center_angles) const {
  std::vector<float> rect = ToRect(center_angles);
  std::unordered_set<int64_t> seen;
  for (int t = 0; t < options_.num_tables; ++t) {
    for (int64_t e : buckets_[static_cast<size_t>(t)][HashPoint(rect, t)]) {
      seen.insert(e);
    }
  }
  return {seen.begin(), seen.end()};
}

std::vector<int64_t> AngularLshIndex::TopK(const float* arc_center,
                                           const float* arc_length,
                                           int64_t k, float rho, float eta,
                                           double* scan_fraction) const {
  k = std::min(k, num_entities_);
  std::vector<int64_t> candidates = Candidates(arc_center);
  if (static_cast<int64_t>(candidates.size()) < 4 * k) {
    // Too few candidates to trust; exact fallback.
    candidates.resize(static_cast<size_t>(num_entities_));
    std::iota(candidates.begin(), candidates.end(), 0);
  }
  if (scan_fraction != nullptr) {
    *scan_fraction = static_cast<double>(candidates.size()) /
                     static_cast<double>(num_entities_);
  }
  // Candidates are scattered, so each is its own one-entity kernel block.
  const ArcConstants arc =
      MakeArcConstants(arc_center, arc_length, dim_, rho, eta);
  const EntityTable table =
      EntityTable::RowMajor(angles_, num_entities_, dim_);
  std::vector<std::pair<float, int64_t>> scored;
  scored.reserve(candidates.size());
  for (int64_t e : candidates) {
    float distance = 0.0f;
    table.Distances(arc, e, e + 1, &distance);
    scored.emplace_back(distance, e);
  }
  const size_t kk = static_cast<size_t>(k);
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<long>(std::min(kk, scored.size())),
                    scored.end());
  std::vector<int64_t> out;
  out.reserve(kk);
  for (size_t i = 0; i < std::min(kk, scored.size()); ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

}  // namespace halk::core

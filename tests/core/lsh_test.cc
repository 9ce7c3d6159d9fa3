#include "core/lsh.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "core/distance.h"

namespace halk::core {
namespace {

constexpr float kTwoPi = 6.2831853f;

std::vector<float> RandomAngles(Rng* rng, int64_t n, int64_t d) {
  std::vector<float> out(static_cast<size_t>(n * d));
  for (auto& x : out) x = static_cast<float>(rng->Uniform(0.0, kTwoPi));
  return out;
}

std::vector<int64_t> ExactTopK(const std::vector<float>& angles, int64_t n,
                               int64_t d, const float* center,
                               const float* length, int64_t k) {
  std::vector<int64_t> ids(static_cast<size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<float> dist(static_cast<size_t>(n));
  for (int64_t e = 0; e < n; ++e) {
    dist[static_cast<size_t>(e)] = ArcPointDistance(
        angles.data() + e * d, center, length, d, 1.0f, 0.9f);
  }
  std::partial_sort(ids.begin(), ids.begin() + k, ids.end(),
                    [&dist](int64_t a, int64_t b) {
                      return dist[static_cast<size_t>(a)] <
                             dist[static_cast<size_t>(b)];
                    });
  ids.resize(static_cast<size_t>(k));
  return ids;
}

TEST(LshTest, CandidatesIncludeTheQueryPointItself) {
  Rng rng(1);
  const int64_t n = 500;
  const int64_t d = 8;
  std::vector<float> angles = RandomAngles(&rng, n, d);
  AngularLshIndex index(angles.data(), n, d, {});
  for (int64_t e = 0; e < n; e += 37) {
    auto cands = index.Candidates(angles.data() + e * d);
    EXPECT_NE(std::find(cands.begin(), cands.end(), e), cands.end())
        << "entity " << e;
  }
}

TEST(LshTest, TopKMatchesExactWhenFallbackTriggers) {
  // With a tiny corpus the candidate set is always < 4k, so TopK is exact.
  Rng rng(2);
  const int64_t n = 60;
  const int64_t d = 8;
  std::vector<float> angles = RandomAngles(&rng, n, d);
  AngularLshIndex index(angles.data(), n, d, {});
  std::vector<float> length(static_cast<size_t>(d), 0.1f);
  auto got = index.TopK(angles.data(), length.data(), 10, 1.0f, 0.9f);
  auto want = ExactTopK(angles, n, d, angles.data(), length.data(), 10);
  EXPECT_EQ(got, want);
}

TEST(LshTest, HighRecallOnClusteredData) {
  // Entities clustered around a few centers; the query sits on one
  // cluster: LSH must recover most of the exact top-20.
  Rng rng(3);
  const int64_t n = 2000;
  const int64_t d = 8;
  std::vector<float> angles(static_cast<size_t>(n * d));
  std::vector<float> centers = RandomAngles(&rng, 10, d);
  for (int64_t e = 0; e < n; ++e) {
    const int64_t c = static_cast<int64_t>(rng.UniformInt(uint64_t{10}));
    for (int64_t i = 0; i < d; ++i) {
      angles[static_cast<size_t>(e * d + i)] =
          centers[static_cast<size_t>(c * d + i)] +
          static_cast<float>(rng.Normal()) * 0.2f;
    }
  }
  AngularLshIndex::Options opt;
  opt.num_tables = 12;
  opt.bits_per_table = 8;
  AngularLshIndex index(angles.data(), n, d, opt);

  std::vector<float> length(static_cast<size_t>(d), 0.05f);
  double recall = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const int64_t probe = static_cast<int64_t>(rng.UniformInt(uint64_t{2000}));
    auto got = index.TopK(angles.data() + probe * d, length.data(), 20,
                          1.0f, 0.9f);
    auto want = ExactTopK(angles, n, d, angles.data() + probe * d,
                          length.data(), 20);
    std::set<int64_t> want_set(want.begin(), want.end());
    int hit = 0;
    for (int64_t e : got) hit += want_set.count(e) > 0;
    recall += hit / 20.0;
  }
  EXPECT_GT(recall / trials, 0.8);
}

TEST(LshTest, ScanFractionIsSublinearOnClusteredData) {
  Rng rng(4);
  const int64_t n = 4000;
  const int64_t d = 8;
  std::vector<float> angles(static_cast<size_t>(n * d));
  std::vector<float> centers = RandomAngles(&rng, 16, d);
  for (int64_t e = 0; e < n; ++e) {
    const int64_t c = static_cast<int64_t>(rng.UniformInt(uint64_t{16}));
    for (int64_t i = 0; i < d; ++i) {
      angles[static_cast<size_t>(e * d + i)] =
          centers[static_cast<size_t>(c * d + i)] +
          static_cast<float>(rng.Normal()) * 0.15f;
    }
  }
  AngularLshIndex::Options opt;
  opt.num_tables = 8;
  opt.bits_per_table = 10;
  AngularLshIndex index(angles.data(), n, d, opt);
  std::vector<float> length(static_cast<size_t>(d), 0.05f);
  double fraction = 0.0;
  for (int t = 0; t < 10; ++t) {
    const int64_t probe = static_cast<int64_t>(rng.UniformInt(uint64_t{4000}));
    double scanned = 0.0;
    index.TopK(angles.data() + probe * d, length.data(), 10, 1.0f, 0.9f,
               &scanned);
    fraction += scanned;
  }
  EXPECT_LT(fraction / 10.0, 0.6);
}

TEST(LshTest, DeterministicForSeed) {
  Rng rng(5);
  const int64_t n = 300;
  const int64_t d = 4;
  std::vector<float> angles = RandomAngles(&rng, n, d);
  AngularLshIndex a(angles.data(), n, d, {});
  AngularLshIndex b(angles.data(), n, d, {});
  auto ca = a.Candidates(angles.data());
  auto cb = b.Candidates(angles.data());
  std::sort(ca.begin(), ca.end());
  std::sort(cb.begin(), cb.end());
  EXPECT_EQ(ca, cb);
}

TEST(LshTest, KLargerThanCorpusIsClamped) {
  Rng rng(6);
  const int64_t n = 25;
  const int64_t d = 4;
  std::vector<float> angles = RandomAngles(&rng, n, d);
  AngularLshIndex index(angles.data(), n, d, {});
  std::vector<float> length(static_cast<size_t>(d), 0.1f);
  auto got = index.TopK(angles.data(), length.data(), 100, 1.0f, 0.9f);
  EXPECT_EQ(got.size(), 25u);
}

}  // namespace
}  // namespace halk::core

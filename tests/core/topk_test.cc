#include "core/topk.h"

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace halk::core {
namespace {

std::vector<int64_t> Entities(const std::vector<ScoredEntity>& ranking) {
  std::vector<int64_t> out;
  for (const ScoredEntity& s : ranking) out.push_back(s.entity);
  return out;
}

TEST(TopKAccumulatorTest, KeepsKSmallestAscending) {
  TopKAccumulator acc(3);
  acc.Push(0, 5.0f);
  acc.Push(1, 1.0f);
  acc.Push(2, 4.0f);
  acc.Push(3, 2.0f);
  acc.Push(4, 3.0f);
  EXPECT_EQ(Entities(acc.Take()), (std::vector<int64_t>{1, 3, 4}));
}

TEST(TopKAccumulatorTest, TiesBreakTowardLowerEntityId) {
  TopKAccumulator acc(4);
  // Push in an order that would expose instability: high ids first.
  acc.Push(9, 1.0f);
  acc.Push(7, 1.0f);
  acc.Push(8, 1.0f);
  acc.Push(1, 2.0f);
  acc.Push(0, 1.0f);  // ties at 1.0 must evict entity 9, not survive it
  EXPECT_EQ(Entities(acc.Take()), (std::vector<int64_t>{0, 7, 8, 9}));
}

TEST(TopKAccumulatorTest, KLargerThanCandidatesReturnsAll) {
  TopKAccumulator acc(10);
  acc.Push(2, 0.5f);
  acc.Push(1, 0.25f);
  EXPECT_EQ(Entities(acc.Take()), (std::vector<int64_t>{1, 2}));
}

TEST(TopKAccumulatorTest, NanDistancesAreNeverRanked) {
  // A NaN admitted into the heap would stick at its front (NaN compares
  // false both ways) and push out the true best entries.
  TopKAccumulator acc(3);
  const float distances[] = {5.0f, std::numeric_limits<float>::quiet_NaN(),
                             4.0f, 3.0f, 1.0f, 2.0f};
  for (int64_t e = 0; e < 6; ++e) acc.Push(e, distances[e]);
  EXPECT_EQ(acc.Take(), (std::vector<ScoredEntity>{{4, 1.0f}, {5, 2.0f},
                                                    {3, 3.0f}}));
  EXPECT_TRUE(TopKFromDistances({std::numeric_limits<float>::quiet_NaN()}, 1)
                  .empty());
}

TEST(TopKAccumulatorTest, NonPositiveKAcceptsNothing) {
  TopKAccumulator acc(0);
  acc.Push(1, 1.0f);
  EXPECT_TRUE(acc.Take().empty());
}

TEST(TopKAccumulatorTest, MatchesFullSortOnRandomStreams) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.Uniform() * 200);
    const int64_t k = 1 + static_cast<int64_t>(rng.Uniform() * 12);
    std::vector<ScoredEntity> all;
    TopKAccumulator acc(k);
    for (int i = 0; i < n; ++i) {
      // Coarse quantization forces plenty of distance ties.
      const float d = static_cast<float>(static_cast<int>(rng.Uniform() * 8));
      all.push_back({i, d});
      acc.Push(i, d);
    }
    std::sort(all.begin(), all.end(), ScoredBefore);
    all.resize(std::min<size_t>(all.size(), static_cast<size_t>(k)));
    EXPECT_EQ(acc.Take(), all) << "trial " << trial;
  }
}

TEST(TopKFromDistancesTest, AppliesEntityOffset) {
  const std::vector<float> dist = {3.0f, 1.0f, 2.0f};
  const std::vector<ScoredEntity> top = TopKFromDistances(dist, 2, 100);
  EXPECT_EQ(Entities(top), (std::vector<int64_t>{101, 102}));
  EXPECT_EQ(top[0].distance, 1.0f);
}

TEST(MergeTopKTest, MergesSortedPartialsWithTies) {
  const std::vector<std::vector<ScoredEntity>> partials = {
      {{0, 1.0f}, {2, 2.0f}},
      {{1, 1.0f}, {3, 1.5f}},
  };
  EXPECT_EQ(Entities(MergeTopK(partials, 3)),
            (std::vector<int64_t>{0, 1, 3}));
}

TEST(MergeTopKTest, EmptyShardContributesNothing) {
  const std::vector<std::vector<ScoredEntity>> partials = {
      {}, {{5, 2.0f}}, {}, {{4, 1.0f}}};
  EXPECT_EQ(Entities(MergeTopK(partials, 10)),
            (std::vector<int64_t>{4, 5}));
}

TEST(MergeTopKTest, KBeyondTotalCandidates) {
  const std::vector<std::vector<ScoredEntity>> partials = {{{1, 1.0f}}};
  EXPECT_EQ(MergeTopK(partials, 99).size(), 1u);
  EXPECT_TRUE(MergeTopK({}, 5).empty());
  EXPECT_TRUE(MergeTopK(partials, 0).empty());
}

TEST(MergeTopKTest, MergeOfPartitionsEqualsGlobalTopK) {
  Rng rng(13);
  std::vector<float> dist;
  for (int i = 0; i < 300; ++i) {
    dist.push_back(static_cast<float>(static_cast<int>(rng.Uniform() * 16)));
  }
  const std::vector<ScoredEntity> global = TopKFromDistances(dist, 17);
  for (int shards : {1, 2, 4, 8}) {
    std::vector<std::vector<ScoredEntity>> partials;
    const size_t per = dist.size() / static_cast<size_t>(shards);
    for (int s = 0; s < shards; ++s) {
      const size_t begin = static_cast<size_t>(s) * per;
      const size_t end = s == shards - 1 ? dist.size() : begin + per;
      std::vector<float> slice(dist.begin() + static_cast<int64_t>(begin),
                               dist.begin() + static_cast<int64_t>(end));
      partials.push_back(
          TopKFromDistances(slice, 17, static_cast<int64_t>(begin)));
    }
    EXPECT_EQ(MergeTopK(partials, 17), global) << shards << " shards";
  }
}

}  // namespace
}  // namespace halk::core

#include "serving/subtree_cache.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

// mallinfo2 (glibc >= 2.33) reports what glibc's own allocator holds; the
// sanitizer runtimes replace that allocator, so the heap-growth case below
// runs only without them.
#if defined(__GLIBC__)
#if __GLIBC_PREREQ(2, 33)
#include <malloc.h>
#define HALK_TEST_GLIBC_MALLINFO2 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#undef HALK_TEST_GLIBC_MALLINFO2
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#undef HALK_TEST_GLIBC_MALLINFO2
#endif
#endif

namespace halk::serving {
namespace {

query::Fingerprint Key(uint64_t n) { return {n, n * 31 + 7}; }

/// An entry of 8 floats, optionally tagged.
SubtreeCache::Entry MakeEntry(float fill,
                              std::vector<int64_t> relations = {}) {
  SubtreeCache::Entry entry;
  entry.row.assign(8, fill);
  entry.relations = std::move(relations);
  return entry;
}

/// Charges of a tag-free and a one-tag MakeEntry; the byte budgets below
/// are multiples of them.
size_t Plain() { return SubtreeCache::ChargedBytes(MakeEntry(0.0f)); }
size_t OneTag() { return SubtreeCache::ChargedBytes(MakeEntry(0.0f, {0})); }

TEST(SubtreeCacheTest, PutGetRoundTrip) {
  SubtreeCache cache(1024);
  cache.Put(Key(1), MakeEntry(0.5f, {2, 4}));
  SubtreeCache::Entry out;
  ASSERT_TRUE(cache.Get(Key(1), &out));
  EXPECT_EQ(out.row, std::vector<float>(8, 0.5f));
  EXPECT_EQ(out.relations, (std::vector<int64_t>{2, 4}));
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_FALSE(cache.Get(Key(2), &out));
  EXPECT_EQ(cache.misses(), 1);
}

TEST(SubtreeCacheTest, TracksByteFootprint) {
  SubtreeCache cache(1024);
  EXPECT_EQ(cache.bytes(), 0u);
  cache.Put(Key(1), MakeEntry(1.0f));
  EXPECT_EQ(cache.bytes(), Plain());
  cache.Put(Key(2), MakeEntry(2.0f, {3}));
  EXPECT_EQ(cache.bytes(), Plain() + OneTag());
  EXPECT_EQ(cache.size(), 2u);
  // Overwriting replaces the old entry's charge, not adds to it.
  cache.Put(Key(2), MakeEntry(3.0f));
  EXPECT_EQ(cache.bytes(), 2 * Plain());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SubtreeCacheTest, EvictsLeastRecentlyUsedOverBudget) {
  SubtreeCache cache(2 * Plain());  // room for exactly two tag-free entries
  cache.Put(Key(1), MakeEntry(1.0f));
  cache.Put(Key(2), MakeEntry(2.0f));
  ASSERT_TRUE(cache.Get(Key(1), nullptr));  // 2 becomes LRU
  cache.Put(Key(3), MakeEntry(3.0f));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_TRUE(cache.Contains(Key(1)));
  EXPECT_FALSE(cache.Contains(Key(2)));
  EXPECT_TRUE(cache.Contains(Key(3)));
  EXPECT_LE(cache.bytes(), cache.capacity_bytes());
}

TEST(SubtreeCacheTest, OversizeEntryIsDropped) {
  SubtreeCache cache(64);  // smaller than any 8-float entry
  cache.Put(Key(1), MakeEntry(1.0f));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.Contains(Key(1)));
}

TEST(SubtreeCacheTest, ContainsHasNoSideEffects) {
  SubtreeCache cache(2 * Plain());
  cache.Put(Key(1), MakeEntry(1.0f));
  cache.Put(Key(2), MakeEntry(2.0f));
  EXPECT_TRUE(cache.Contains(Key(1)));
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  // Contains did not refresh key 1's recency, so it is still the LRU
  // entry and the next insert evicts it.
  cache.Put(Key(3), MakeEntry(3.0f));
  EXPECT_FALSE(cache.Contains(Key(1)));
  EXPECT_TRUE(cache.Contains(Key(2)));
}

TEST(SubtreeCacheTest, InvalidateRelationDropsTaggedEntriesOnly) {
  SubtreeCache cache(4096);
  cache.Put(Key(1), MakeEntry(1.0f, {0, 2}));
  cache.Put(Key(2), MakeEntry(2.0f, {1}));
  cache.Put(Key(3), MakeEntry(3.0f, {2, 5}));
  cache.Put(Key(4), MakeEntry(4.0f));  // no tags: structural only
  EXPECT_EQ(cache.InvalidateRelation(2), 2u);
  EXPECT_EQ(cache.invalidations(), 2);
  EXPECT_FALSE(cache.Contains(Key(1)));
  EXPECT_TRUE(cache.Contains(Key(2)));
  EXPECT_FALSE(cache.Contains(Key(3)));
  EXPECT_TRUE(cache.Contains(Key(4)));
  EXPECT_EQ(cache.InvalidateRelation(2), 0u);
  // Byte accounting survives the evictions.
  EXPECT_EQ(cache.bytes(), OneTag() + Plain());
}

TEST(SubtreeCacheTest, ClearEmptiesEverything) {
  SubtreeCache cache(4096);
  cache.Put(Key(1), MakeEntry(1.0f, {0}));
  cache.Put(Key(2), MakeEntry(2.0f));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.Contains(Key(1)));
  // The cache keeps accepting entries after a Clear.
  cache.Put(Key(3), MakeEntry(3.0f));
  EXPECT_TRUE(cache.Contains(Key(3)));
}

TEST(SubtreeCacheTest, GetWithNullOutOnlyTouchesRecency) {
  SubtreeCache cache(256);
  cache.Put(Key(1), MakeEntry(1.0f));
  EXPECT_TRUE(cache.Get(Key(1), nullptr));
  EXPECT_EQ(cache.hits(), 1);
}

/// A well-mixed fingerprint, as the planner's Merkle digests are.
query::Fingerprint MixedKey(uint64_t n) {
  auto mix = [](uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  return {mix(n), mix(n ^ 0x5555555555555555ULL)};
}

TEST(SubtreeCacheTest, DoorkeeperAdmitsOnTheSecondSighting) {
  SubtreeCache cache(1024);
  // A one-off key is refused; its second sighting is admitted, and so is
  // every later one.
  EXPECT_FALSE(cache.Admit(MixedKey(1)));
  EXPECT_TRUE(cache.Admit(MixedKey(1)));
  EXPECT_TRUE(cache.Admit(MixedKey(1)));
  // Admit records sightings only: the cache itself is untouched.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0);

  // A stream of one-off keys is refused, but for the bit set's rare false
  // positives.
  int admitted = 0;
  for (uint64_t n = 100; n < 1100; ++n) {
    admitted += cache.Admit(MixedKey(n)) ? 1 : 0;
  }
  EXPECT_LT(admitted, 100);
}

TEST(SubtreeCacheTest, DoorkeeperKeepsTheByteBudget) {
  SubtreeCache cache(4 * Plain());  // room for four tag-free entries
  int64_t puts = 0;
  for (uint64_t n = 0; n < 200; ++n) {
    // Every key is seen twice, as a recurring subtree would be; the
    // executor Puts only what Admit lets through.
    for (int sighting = 0; sighting < 2; ++sighting) {
      if (cache.Admit(MixedKey(n))) {
        cache.Put(MixedKey(n), MakeEntry(static_cast<float>(n)));
        ++puts;
      }
      EXPECT_LE(cache.bytes(), cache.capacity_bytes());
    }
  }
  EXPECT_GE(puts, 200);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_TRUE(cache.Contains(MixedKey(199)));
}

TEST(SubtreeCacheTest, ChargeBoundsTheHeapGrowth) {
#if defined(HALK_TEST_GLIBC_MALLINFO2)
  // Served entries at d = 32 (2·d floats) with two relation tags, into a
  // budget that never evicts: the heap in use (arena blocks plus mmapped
  // blocks, which hold the index's bucket array once it is large) must
  // grow by no more than the bytes the cache charged for them.
  constexpr size_t kEntries = 50000;
  SubtreeCache cache(size_t{64} << 20);
  const struct mallinfo2 before = mallinfo2();
  for (uint64_t n = 0; n < kEntries; ++n) {
    SubtreeCache::Entry entry;
    entry.row.assign(64, static_cast<float>(n));
    entry.relations = {static_cast<int64_t>(n % 6), 7};
    cache.Put(MixedKey(n), std::move(entry));
  }
  const struct mallinfo2 after = mallinfo2();
  ASSERT_EQ(cache.size(), kEntries);
  ASSERT_EQ(cache.evictions(), 0);
  const size_t grown =
      (after.uordblks + after.hblkhd) - (before.uordblks + before.hblkhd);
  EXPECT_LE(grown, cache.bytes())
      << "heap bytes per entry " << grown / kEntries << ", charged "
      << cache.bytes() / kEntries;
#else
  GTEST_SKIP() << "needs glibc's own allocator and mallinfo2";
#endif
}

}  // namespace
}  // namespace halk::serving

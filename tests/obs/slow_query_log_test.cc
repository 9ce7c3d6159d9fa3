#include "obs/slow_query_log.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace halk::obs {
namespace {

/// A one-span trace whose root lasts `duration_ns`.
Trace MakeTrace(uint64_t id, int64_t duration_ns) {
  SpanRecord root;
  root.trace_id = id;
  root.id = 1;
  root.parent = 0;
  root.name = "request";
  root.start_ns = 0;
  root.duration_ns = duration_ns;
  return Trace(id, {root});
}

TEST(SlowQueryLogTest, ThresholdGatesAdmission) {
  SlowQueryLog log(4, /*threshold_ns=*/1000);
  EXPECT_EQ(log.threshold_ns(), 1000);
  EXPECT_FALSE(log.Offer("fast", MakeTrace(1, 999)));
  EXPECT_TRUE(log.Offer("slow", MakeTrace(2, 1000)));  // at-threshold counts
  EXPECT_TRUE(log.Offer("slower", MakeTrace(3, 5000)));
  EXPECT_EQ(log.size(), 2u);
}

TEST(SlowQueryLogTest, NonPositiveThresholdRejectsEverything) {
  SlowQueryLog log(4, 0);
  EXPECT_FALSE(log.Offer("q", MakeTrace(1, 1'000'000'000)));
  EXPECT_EQ(log.size(), 0u);
  log.set_threshold_ns(10);
  EXPECT_TRUE(log.Offer("q", MakeTrace(2, 11)));
}

TEST(SlowQueryLogTest, RepeatedFingerprintRefreshesOneEntry) {
  SlowQueryLog log(4, 100);
  EXPECT_TRUE(log.Offer("hot", MakeTrace(1, 2000)));
  EXPECT_TRUE(log.Offer("hot", MakeTrace(2, 1500)));  // faster, still slow
  ASSERT_EQ(log.size(), 1u);
  const std::vector<SlowQueryLog::Entry> entries = log.Entries();
  EXPECT_EQ(entries[0].fingerprint, "hot");
  EXPECT_EQ(entries[0].hits, 2);
  EXPECT_EQ(entries[0].worst_ns, 2000);      // worst sticks
  EXPECT_EQ(entries[0].trace.id(), 2u);      // trace is the latest
  EXPECT_TRUE(log.Offer("hot", MakeTrace(3, 9000)));
  EXPECT_EQ(log.Entries()[0].worst_ns, 9000);
  EXPECT_EQ(log.Entries()[0].hits, 3);
}

TEST(SlowQueryLogTest, EntriesAreMostRecentlySlowFirst) {
  SlowQueryLog log(4, 100);
  log.Offer("a", MakeTrace(1, 200));
  log.Offer("b", MakeTrace(2, 200));
  log.Offer("a", MakeTrace(3, 200));  // refresh moves "a" to the front
  const std::vector<SlowQueryLog::Entry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].fingerprint, "a");
  EXPECT_EQ(entries[1].fingerprint, "b");
}

TEST(SlowQueryLogTest, CapacityEvictsLeastRecentlySlow) {
  SlowQueryLog log(2, 100);
  log.Offer("a", MakeTrace(1, 200));
  log.Offer("b", MakeTrace(2, 200));
  log.Offer("c", MakeTrace(3, 200));  // evicts "a"
  const std::vector<SlowQueryLog::Entry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].fingerprint, "c");
  EXPECT_EQ(entries[1].fingerprint, "b");
  // The evicted fingerprint re-enters as a fresh entry.
  log.Offer("a", MakeTrace(4, 200));
  EXPECT_EQ(log.Entries()[0].fingerprint, "a");
  EXPECT_EQ(log.Entries()[0].hits, 1);
}

TEST(SlowQueryLogTest, PlanShapeColumnsAreStoredAndRefreshed) {
  SlowQueryLog log(4, 100);
  // Without the optional plan columns the entry records a zero shape
  // (whole-answer cache hits).
  EXPECT_TRUE(log.Offer("legacy", MakeTrace(1, 200)));
  EXPECT_EQ(log.Entries()[0].plan_nodes, 0);
  EXPECT_DOUBLE_EQ(log.Entries()[0].dedup_ratio, 0.0);

  EXPECT_TRUE(log.Offer("planned", MakeTrace(2, 300), /*plan_nodes=*/9,
                        /*dedup_ratio=*/0.5));
  const std::vector<SlowQueryLog::Entry> entries = log.Entries();
  EXPECT_EQ(entries[0].fingerprint, "planned");
  EXPECT_EQ(entries[0].plan_nodes, 9);
  EXPECT_DOUBLE_EQ(entries[0].dedup_ratio, 0.5);

  // A refresh carries the *latest* plan shape, like the latest trace: the
  // plan serving a fingerprint changes as caches warm and feedback kicks
  // in, and the log describes the most recent slow occurrence.
  EXPECT_TRUE(log.Offer("planned", MakeTrace(3, 250), /*plan_nodes=*/4,
                        /*dedup_ratio=*/0.25));
  EXPECT_EQ(log.Entries()[0].hits, 2);
  EXPECT_EQ(log.Entries()[0].plan_nodes, 4);
  EXPECT_DOUBLE_EQ(log.Entries()[0].dedup_ratio, 0.25);
}

TEST(SlowQueryLogTest, ClearEmptiesTheLog) {
  SlowQueryLog log(4, 100);
  log.Offer("a", MakeTrace(1, 200));
  log.Offer("b", MakeTrace(2, 200));
  ASSERT_EQ(log.size(), 2u);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.Entries().empty());
  // Still usable after Clear.
  EXPECT_TRUE(log.Offer("a", MakeTrace(3, 200)));
}

}  // namespace
}  // namespace halk::obs

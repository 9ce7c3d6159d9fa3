#include "serving/request_queue.h"

#include <vector>

#include <gtest/gtest.h>

namespace halk::serving {
namespace {

TEST(BoundedQueueTest, TryPushRejectsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1).ok());
  EXPECT_TRUE(q.TryPush(2).ok());
  Status full = q.TryPush(3);
  EXPECT_EQ(full.code(), StatusCode::kUnavailable);
}

TEST(BoundedQueueTest, PopBatchDrainsUpToMax) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.TryPush(i).ok());
  std::vector<int> out;
  ASSERT_TRUE(q.PopBatch(&out, 3));
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  ASSERT_TRUE(q.PopBatch(&out, 3));
  EXPECT_EQ(out, (std::vector<int>{3, 4}));
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsExit) {
  BoundedQueue<int> q(8);
  ASSERT_TRUE(q.TryPush(7).ok());
  q.Close();
  EXPECT_EQ(q.TryPush(8).code(), StatusCode::kUnavailable);
  std::vector<int> out;
  EXPECT_TRUE(q.PopBatch(&out, 4));
  EXPECT_EQ(out, (std::vector<int>{7}));
  EXPECT_FALSE(q.PopBatch(&out, 4));
}

}  // namespace
}  // namespace halk::serving

#include "tensor/shape.h"

#include <gtest/gtest.h>

namespace halk::tensor {
namespace {

TEST(ShapeTest, DefaultIsRankZero) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(ShapeTest, InitializerList) {
  Shape s = {4, 8};
  EXPECT_EQ(s.rank(), 2);
  EXPECT_EQ(s.dim(0), 4);
  EXPECT_EQ(s.dim(1), 8);
  EXPECT_EQ(s.numel(), 32);
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({3}), Shape({3}));
  EXPECT_NE(Shape({3}), Shape({3, 1}));
  EXPECT_NE(Shape({3}), Shape({4}));
}

TEST(ShapeTest, HoldsUpToMaxRankInline) {
  Shape s = {2, 3, 4, 5};
  EXPECT_EQ(s.rank(), Shape::kMaxRank);
  EXPECT_EQ(s.numel(), 120);
  EXPECT_EQ(s.dim(3), 5);
  EXPECT_EQ(s.ToString(), "[2, 3, 4, 5]");
}

TEST(ShapeTest, RankAboveMaxDies) {
  EXPECT_DEATH(
      {
        Shape s({1, 2, 3, 4, 5});
        (void)s;
      },
      "rank");
}

TEST(ShapeTest, ToString) {
  EXPECT_EQ(Shape({2, 5}).ToString(), "[2, 5]");
  EXPECT_EQ(Shape({}).ToString(), "[]");
}

}  // namespace
}  // namespace halk::tensor

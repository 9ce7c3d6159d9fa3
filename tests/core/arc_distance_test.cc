#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/arc.h"
#include "core/distance.h"
#include "tensor/tape.h"

namespace halk::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr float kPi = 3.14159265358979f;

TEST(ArcTest, StartEndPoints) {
  EmbeddingBatch arc{Tensor::FromVector({1, 2}, {1.0f, 2.0f}),
                     Tensor::FromVector({1, 2}, {0.4f, 0.8f})};
  Tensor s = StartPoint(arc, /*rho=*/1.0f);
  Tensor e = EndPoint(arc, 1.0f);
  EXPECT_FLOAT_EQ(s.at(0, 0), 1.0f - 0.2f);
  EXPECT_FLOAT_EQ(e.at(0, 0), 1.0f + 0.2f);
  EXPECT_FLOAT_EQ(s.at(0, 1), 2.0f - 0.4f);
  EXPECT_FLOAT_EQ(e.at(0, 1), 2.0f + 0.4f);
}

TEST(ArcTest, StartEndScaleWithRadius) {
  EmbeddingBatch arc{Tensor::FromVector({1, 1}, {1.0f}),
                     Tensor::FromVector({1, 1}, {1.0f})};
  Tensor s = StartPoint(arc, /*rho=*/2.0f);
  EXPECT_FLOAT_EQ(s.at(0), 1.0f - 1.0f / 4.0f);
}

TEST(ArcTest, StartEndPairConcatenates) {
  EmbeddingBatch arc{Tensor::FromVector({2, 2}, {0, 1, 2, 3}),
                     Tensor::FromVector({2, 2}, {0.2f, 0.2f, 0.2f, 0.2f})};
  Tensor pair = StartEndPair(arc, 1.0f);
  EXPECT_EQ(pair.shape(), Shape({2, 4}));
  EXPECT_FLOAT_EQ(pair.at(0, 0), -0.1f);
  EXPECT_FLOAT_EQ(pair.at(0, 2), 0.1f);
}

TEST(ArcTest, GFunctionRangeIsZeroToTwoPi) {
  Tensor x = Tensor::FromVector({5}, {-100.0f, -1.0f, 0.0f, 1.0f, 100.0f});
  Tensor g = GFunction(x, /*lambda=*/1.0f);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_GE(g.at(i), 0.0f);
    EXPECT_LE(g.at(i), 2.0f * kPi + 1e-5f);
  }
  EXPECT_NEAR(g.at(2), kPi, 1e-5f);           // g(0) = π
  EXPECT_NEAR(g.at(0), 0.0f, 1e-4f);          // saturates low
  EXPECT_NEAR(g.at(4), 2.0f * kPi, 1e-4f);    // saturates high
}

TEST(ArcTest, ChordLengthPeriodic) {
  Tensor a = Tensor::FromVector({2}, {0.3f, 0.3f + 2.0f * kPi});
  Tensor b = Tensor::FromVector({2}, {1.0f, 1.0f});
  Tensor c = ChordLength(a, b, 1.0f);
  EXPECT_NEAR(c.at(0), c.at(1), 1e-4f);
  // Antipodal points have chord 2ρ.
  Tensor p = Tensor::FromVector({1}, {0.0f});
  Tensor q = Tensor::FromVector({1}, {kPi});
  EXPECT_NEAR(ChordLength(p, q, 1.5f).at(0), 3.0f, 1e-5f);
}

TEST(DistanceTest, ZeroAtArcCenterUpToEta) {
  // Point exactly at the arc center: outside term 0, inside term 0.
  EmbeddingBatch arc{Tensor::FromVector({1, 2}, {1.0f, 2.0f}),
                     Tensor::FromVector({1, 2}, {0.5f, 0.5f})};
  Tensor point = Tensor::FromVector({1, 2}, {1.0f, 2.0f});
  Tensor d = ArcDistance(point, arc, 1.0f, 0.02f);
  EXPECT_NEAR(d.at(0), 0.0f, 1e-6f);
}

TEST(DistanceTest, InsideArcOnlyInsidePenalty) {
  // Point inside the arc but off-center: d_o = 0, d_i > 0 (scaled by η).
  EmbeddingBatch arc{Tensor::FromVector({1, 1}, {1.0f}),
                     Tensor::FromVector({1, 1}, {1.0f})};
  Tensor point = Tensor::FromVector({1, 1}, {1.2f});  // within ±0.5 of center
  const float eta = 0.5f;
  Tensor d = ArcDistance(point, arc, 1.0f, eta);
  const float expected_inside = 2.0f * std::fabs(std::sin(0.2f / 2.0f));
  EXPECT_NEAR(d.at(0), eta * expected_inside, 1e-5f);
}

TEST(DistanceTest, OutsideArcDominatedByOutsideTerm) {
  EmbeddingBatch arc{Tensor::FromVector({1, 1}, {0.0f}),
                     Tensor::FromVector({1, 1}, {0.2f})};
  Tensor near_point = Tensor::FromVector({1, 1}, {0.5f});
  Tensor far_point = Tensor::FromVector({1, 1}, {2.5f});
  const float d_near = ArcDistance(near_point, arc, 1.0f, 0.02f).at(0);
  const float d_far = ArcDistance(far_point, arc, 1.0f, 0.02f).at(0);
  EXPECT_GT(d_far, d_near);
  EXPECT_GT(d_near, 0.0f);
}

TEST(DistanceTest, PeriodicInPointAngle) {
  EmbeddingBatch arc{Tensor::FromVector({1, 2}, {0.7f, 5.0f}),
                     Tensor::FromVector({1, 2}, {0.3f, 0.9f})};
  Tensor p1 = Tensor::FromVector({1, 2}, {2.0f, 1.0f});
  Tensor p2 = Tensor::FromVector({1, 2}, {2.0f + 2.0f * kPi, 1.0f - 2.0f * kPi});
  const float d1 = ArcDistance(p1, arc, 1.0f, 0.02f).at(0);
  const float d2 = ArcDistance(p2, arc, 1.0f, 0.02f).at(0);
  EXPECT_NEAR(d1, d2, 1e-4f);
}

TEST(DistanceTest, ScalarVersionMatchesTensorVersion) {
  const int64_t d = 8;
  std::vector<float> center(d), length(d), point(d);
  halk::Rng rng(99);
  for (int64_t i = 0; i < d; ++i) {
    center[static_cast<size_t>(i)] = static_cast<float>(rng.Uniform(0, 6.28));
    length[static_cast<size_t>(i)] = static_cast<float>(rng.Uniform(0, 3.0));
    point[static_cast<size_t>(i)] = static_cast<float>(rng.Uniform(0, 6.28));
  }
  EmbeddingBatch arc{Tensor::FromVector({1, d}, center),
                     Tensor::FromVector({1, d}, length)};
  Tensor p = Tensor::FromVector({1, d}, point);
  const float tensor_d = ArcDistance(p, arc, 1.0f, 0.02f).at(0);
  const float scalar_d = ArcPointDistance(point.data(), center.data(),
                                          length.data(), d, 1.0f, 0.02f);
  EXPECT_NEAR(tensor_d, scalar_d, 1e-4f);
}

TEST(DistanceTest, GradientFlowsToPointAndArc) {
  EmbeddingBatch arc{
      Tensor::FromVector({1, 2}, {0.5f, 1.5f}).set_requires_grad(true),
      Tensor::FromVector({1, 2}, {0.3f, 0.3f}).set_requires_grad(true)};
  Tensor point =
      Tensor::FromVector({1, 2}, {2.0f, 4.0f}).set_requires_grad(true);
  Tensor d = ArcDistance(point, arc, 1.0f, 0.02f);
  tensor::Backward(tensor::SumAll(d));
  bool arc_grad = false;
  for (float g : arc.a.grad_vector()) arc_grad = arc_grad || g != 0.0f;
  bool point_grad = false;
  for (float g : point.grad_vector()) point_grad = point_grad || g != 0.0f;
  EXPECT_TRUE(arc_grad);
  EXPECT_TRUE(point_grad);
}

TEST(DistanceTest, BoundedKernelIsBitIdenticalWhenNotPruned) {
  Rng rng(19);
  const int64_t d = 16;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> point, center, length;
    for (int64_t i = 0; i < d; ++i) {
      point.push_back(static_cast<float>(rng.Uniform()) * 2.0f * kPi);
      center.push_back(static_cast<float>(rng.Uniform()) * 2.0f * kPi);
      length.push_back(static_cast<float>(rng.Uniform()) * 2.0f);
    }
    const float rho = 1.0f;
    const float eta = 0.9f;
    const float exact = ArcPointDistance(point.data(), center.data(),
                                         length.data(), d, rho, eta);
    const ArcConstants arc =
        MakeArcConstants(center.data(), length.data(), d, rho, eta);
    const EntityBlock block{point.data(), 1, d, 1};
    float partial[kScanLanes];
    float out = -1.0f;
    // With an infinite bound the scan never exits early: bit-identical.
    EXPECT_EQ(ScanKernel()(&arc, 1, block,
                           std::numeric_limits<float>::infinity(), partial,
                           &out),
              d);
    EXPECT_EQ(out, exact) << "trial " << trial;
    // Any bound at or above the distance keeps the result exact.
    out = -1.0f;
    EXPECT_EQ(ScanKernel()(&arc, 1, block, exact, partial, &out), d);
    EXPECT_EQ(out, exact);
    // A bound below it either abandons the block before the last
    // dimension (out untouched) — a certificate the entity cannot enter
    // the top-k — or finishes with the exact value, above the bound.
    if (exact > 0.0f) {
      out = -1.0f;
      const int64_t dims =
          ScanKernel()(&arc, 1, block, exact * 0.5f, partial, &out);
      if (dims < d) {
        EXPECT_EQ(out, -1.0f);
      } else {
        EXPECT_EQ(out, exact);
        EXPECT_GT(out, exact * 0.5f);
      }
    }
  }
}

TEST(DistanceTest, WiderArcReducesDistanceToFixedPoint) {
  // Growing the arc toward the point should not increase the distance.
  Tensor point = Tensor::FromVector({1, 1}, {1.0f});
  EmbeddingBatch narrow{Tensor::FromVector({1, 1}, {0.0f}),
                        Tensor::FromVector({1, 1}, {0.1f})};
  EmbeddingBatch wide{Tensor::FromVector({1, 1}, {0.0f}),
                      Tensor::FromVector({1, 1}, {1.8f})};
  const float dn = ArcDistance(point, narrow, 1.0f, 0.02f).at(0);
  const float dw = ArcDistance(point, wide, 1.0f, 0.02f).at(0);
  EXPECT_LE(dw, dn);
}

}  // namespace
}  // namespace halk::core

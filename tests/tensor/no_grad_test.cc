// NoGradGuard: op results under a guard are plain values (no inputs, no
// backward, requires_grad false) computed by the same op code, so they
// equal the recorded graph's values bit for bit; guards nest and restore
// the previous mode; TapeAccounting still sees every op and its FLOPs.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"

namespace halk::tensor {
namespace {

/// A small MLP-like chain over every op family: gather, matmul, binary,
/// unary, concat, slice and reductions.
Tensor Chain(const Tensor& table, const Tensor& weight) {
  Tensor x = Gather(table, {0, 2});
  Tensor h = Tanh(MatMul(x, weight));
  Tensor sin_h = Sin(h);
  Tensor cat = Concat({h, sin_h}, 1);
  Tensor y = Add(SliceCols(cat, 1, 4),
                 MulScalar(Sigmoid(SliceCols(cat, 2, 5)), 0.5f));
  return Add(SumDim(y, 1), MeanDim(Square(y), 1));
}

struct Params {
  Params() {
    std::vector<float> t(20);
    std::vector<float> w(12);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = 0.1f * static_cast<float>(i) - 0.7f;
    }
    for (size_t i = 0; i < w.size(); ++i) {
      w[i] = 0.3f - 0.05f * static_cast<float>(i);
    }
    table = Tensor::FromVector({5, 4}, t).set_requires_grad(true);
    weight = Tensor::FromVector({4, 3}, w).set_requires_grad(true);
  }
  Tensor table;
  Tensor weight;
};

TEST(NoGradTest, ResultsKeepNoInputsUnderAGuard) {
  Params p;
  NoGradGuard guard;
  Tensor a = MulScalar(p.table, 2.0f);
  Tensor c = Add(a, p.table);
  EXPECT_FALSE(a.requires_grad());
  EXPECT_FALSE(c.requires_grad());
  EXPECT_EQ(GraphSize(c), 1);
  EXPECT_TRUE(c.impl()->inputs.empty());
  EXPECT_FALSE(c.impl()->backward);
  EXPECT_EQ(GraphSize(Chain(p.table, p.weight)), 1);
}

TEST(NoGradTest, GuardedValuesEqualTheRecordedGraphBitForBit) {
  Params p;
  const Tensor recorded = Chain(p.table, p.weight);
  ASSERT_TRUE(recorded.requires_grad());
  ASSERT_GT(GraphSize(recorded), 1);
  Tensor guarded;
  {
    NoGradGuard guard;
    guarded = Chain(p.table, p.weight);
  }
  ASSERT_EQ(guarded.numel(), recorded.numel());
  EXPECT_EQ(std::memcmp(guarded.data(), recorded.data(),
                        static_cast<size_t>(recorded.numel()) * sizeof(float)),
            0);
}

TEST(NoGradTest, NestedGuardsRestoreThePreviousMode) {
  Params p;
  ASSERT_TRUE(NoGradGuard::GradEnabled());
  {
    NoGradGuard outer;
    EXPECT_FALSE(NoGradGuard::GradEnabled());
    {
      NoGradGuard inner;
      EXPECT_FALSE(NoGradGuard::GradEnabled());
    }
    // The inner guard restores the outer's mode, not grad mode.
    EXPECT_FALSE(NoGradGuard::GradEnabled());
    EXPECT_FALSE(Add(p.table, p.table).requires_grad());
  }
  EXPECT_TRUE(NoGradGuard::GradEnabled());
  Tensor c = Add(MulScalar(p.table, 2.0f), p.table);
  EXPECT_TRUE(c.requires_grad());
  EXPECT_EQ(GraphSize(c), 3);
  Backward(SumAll(c));
  EXPECT_FLOAT_EQ(p.table.grad()[0], 3.0f);
}

TEST(NoGradTest, AccountingSeesEveryOpUnderAGuard) {
  Params p;
  TapeAccounting recorded_accounting;
  (void)Chain(p.table, p.weight);
  const TapeStats recorded = recorded_accounting.stats();
  TapeAccounting guarded_accounting;
  NoGradGuard guard;
  Tensor out = Chain(p.table, p.weight);
  const TapeStats& guarded = guarded_accounting.stats();
  EXPECT_EQ(GraphSize(out), 1);
  EXPECT_EQ(guarded.forward_nodes, recorded.forward_nodes);
  EXPECT_EQ(guarded.forward_flops, recorded.forward_flops);
  EXPECT_EQ(guarded.forward_bytes, recorded.forward_bytes);
  // matmul FLOPs read the input shapes: 2 * 2 * 4 * 3.
  EXPECT_EQ(guarded.forward.at("matmul").flops, 48);
}

TEST(NoGradTest, LeavesAndFactoriesAreUnaffected) {
  NoGradGuard guard;
  Tensor t = Tensor::Zeros({3}).set_requires_grad(true);
  EXPECT_TRUE(t.requires_grad());
  Tensor f = Tensor::Full({2, 2}, 1.5f);
  EXPECT_EQ(f.at(1, 1), 1.5f);
}

}  // namespace
}  // namespace halk::tensor

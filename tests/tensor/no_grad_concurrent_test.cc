// NoGradGuard is per thread: while one thread holds a guard and runs ops
// on shared parameters, another thread still records a differentiable
// graph over the same parameters and back-propagates through it. Runs
// under TSan in CI (label `concurrent`).

#include <future>
#include <thread>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"

namespace halk::tensor {
namespace {

TEST(NoGradConcurrentTest, GuardIsPerThread) {
  Tensor weight = Tensor::Full({4, 3}, 0.25f).set_requires_grad(true);
  Tensor x = Tensor::Full({2, 4}, 0.5f);

  std::promise<void> guarded;
  std::promise<void> graph_built;
  std::shared_future<void> graph_built_future = graph_built.get_future();
  bool server_grad_enabled = true;
  bool server_result_requires_grad = true;
  int64_t server_graph_size = 0;
  std::thread server([&] {
    NoGradGuard guard;
    guarded.set_value();
    for (int i = 0; i < 200; ++i) {
      Tensor y = Tanh(MatMul(x, weight));
      server_result_requires_grad = y.requires_grad();
      server_graph_size = GraphSize(y);
    }
    graph_built_future.wait();
    server_grad_enabled = NoGradGuard::GradEnabled();
  });

  guarded.get_future().wait();
  // This thread holds no guard: its ops record a graph.
  EXPECT_TRUE(NoGradGuard::GradEnabled());
  Tensor y = Tanh(MatMul(x, weight));
  EXPECT_TRUE(y.requires_grad());
  EXPECT_EQ(GraphSize(y), 4);  // tanh, matmul, x, weight
  Backward(SumAll(y));
  graph_built.set_value();
  server.join();

  EXPECT_FALSE(server_grad_enabled);
  EXPECT_FALSE(server_result_requires_grad);
  EXPECT_EQ(server_graph_size, 1);
  EXPECT_NE(weight.grad()[0], 0.0f);
}

}  // namespace
}  // namespace halk::tensor

#include "tensor/tape.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "common/logging.h"

namespace halk::tensor {

namespace {

// Iterative post-order DFS over the op graph; returns nodes such that every
// node appears after all nodes that consume it when iterated in reverse.
std::vector<TensorImpl*> TopoOrder(TensorImpl* root) {
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    size_t next_input;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_input < top.node->inputs.size()) {
      TensorImpl* child = top.node->inputs[top.next_input++].get();
      if (child->requires_grad && visited.insert(child).second) {
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(top.node);
      stack.pop_back();
    }
  }
  return order;
}

/// The innermost accounting installed on this thread (null = disabled).
thread_local TapeAccounting* t_active_accounting = nullptr;

/// Full-graph footprint (data + gradient buffers), counting every node
/// reachable through recorded inputs once. Only a node that needs a
/// gradient links its inputs, so a result with none (a constant-only
/// subgraph, or any op under a NoGradGuard) is a leaf here: its own
/// buffer counts, the constants it was built from do not.
int64_t GraphBytes(TensorImpl* root) {
  std::unordered_set<TensorImpl*> visited;
  std::vector<TensorImpl*> stack = {root};
  visited.insert(root);
  int64_t bytes = 0;
  while (!stack.empty()) {
    TensorImpl* node = stack.back();
    stack.pop_back();
    bytes += static_cast<int64_t>((node->data.size() + node->grad.size()) *
                                  sizeof(float));
    for (const auto& in : node->inputs) {
      if (visited.insert(in.get()).second) stack.push_back(in.get());
    }
  }
  return bytes;
}

}  // namespace

int64_t EstimateForwardFlops(const TensorImpl& node) {
  const char* op = node.op_name;
  if (std::strcmp(op, "matmul") == 0 && node.inputs.size() == 2) {
    const Shape& a = node.inputs[0]->shape;
    const Shape& b = node.inputs[1]->shape;
    if (a.rank() == 2 && b.rank() == 2) {
      return 2 * a.dim(0) * a.dim(1) * b.dim(1);
    }
  }
  // Pure data movement computes nothing.
  for (const char* mover : {"reshape", "gather", "concat0", "concat1",
                            "slice_cols", "broadcast_row", "leaf", "detach"}) {
    if (std::strcmp(op, mover) == 0) return 0;
  }
  // Reductions touch every *input* element once.
  if (std::strcmp(op, "sum_all") == 0 || std::strcmp(op, "sum_dim") == 0) {
    return node.inputs.empty()
               ? 0
               : static_cast<int64_t>(node.inputs[0]->data.size());
  }
  // Everything else is elementwise over the output.
  return static_cast<int64_t>(node.data.size());
}

TapeAccounting::TapeAccounting() : previous_(t_active_accounting) {
  t_active_accounting = this;
}

TapeAccounting::~TapeAccounting() { t_active_accounting = previous_; }

TapeAccounting* TapeAccounting::Active() { return t_active_accounting; }

void TapeAccounting::RecordForward(const TensorImpl& node) {
  const int64_t flops = EstimateForwardFlops(node);
  const int64_t bytes =
      static_cast<int64_t>(node.data.size() * sizeof(float));
  TapeOpStats& op = stats_.forward[node.op_name];
  ++op.count;
  op.flops += flops;
  op.bytes += bytes;
  ++stats_.forward_nodes;
  stats_.forward_flops += flops;
  stats_.forward_bytes += bytes;
}

void TapeAccounting::RecordBackward(const TensorImpl& node) {
  // Reverse-mode propagates one gradient per input element touched; the
  // standard estimate is ~2x the forward op (one pass per input operand).
  const int64_t flops = 2 * EstimateForwardFlops(node);
  const int64_t bytes =
      static_cast<int64_t>(node.grad.size() * sizeof(float));
  TapeOpStats& op = stats_.backward[node.op_name];
  ++op.count;
  op.flops += flops;
  op.bytes += bytes;
  ++stats_.backward_nodes;
  stats_.backward_flops += flops;
  stats_.backward_bytes += bytes;
}

void TapeAccounting::RecordGraphBytes(int64_t bytes) {
  stats_.peak_graph_bytes = std::max(stats_.peak_graph_bytes, bytes);
}

void Backward(const Tensor& root) {
  HALK_CHECK(root.defined());
  HALK_CHECK_EQ(root.numel(), 1) << "Backward root must be scalar";
  HALK_CHECK(root.requires_grad())
      << "Backward called on a graph with no trainable inputs";

  TensorImpl* r = root.impl().get();
  std::vector<TensorImpl*> order = TopoOrder(r);
  r->EnsureGrad();
  r->grad[0] += 1.0f;
  TapeAccounting* accounting = TapeAccounting::Active();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward) {
      node->EnsureGrad();
      node->backward(node);
      if (accounting != nullptr) accounting->RecordBackward(*node);
    }
  }
  // Footprint is measured after the walk, when every node that will ever
  // hold a gradient buffer for this graph has one.
  if (accounting != nullptr) accounting->RecordGraphBytes(GraphBytes(r));
}

int64_t GraphSize(const Tensor& root) {
  HALK_CHECK(root.defined());
  std::unordered_set<TensorImpl*> visited;
  std::vector<TensorImpl*> stack = {root.impl().get()};
  visited.insert(root.impl().get());
  while (!stack.empty()) {
    TensorImpl* node = stack.back();
    stack.pop_back();
    for (const auto& in : node->inputs) {
      if (visited.insert(in.get()).second) stack.push_back(in.get());
    }
  }
  return static_cast<int64_t>(visited.size());
}

}  // namespace halk::tensor

#ifndef HALK_CORE_OPERATOR_MODEL_H_
#define HALK_CORE_OPERATOR_MODEL_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace halk::kg {
class NodeGrouping;
}  // namespace halk::kg

namespace halk::core {

/// A batch of query embeddings. The semantics of the two components are
/// model-specific: HaLk/ConE use (center angles, arclengths/apertures),
/// NewLook uses (box center, box offset), BetaE uses (α, β), MLPMix uses
/// (vector, zeros).
struct EmbeddingBatch {
  tensor::Tensor a;  // [B, d]
  tensor::Tensor b;  // [B, d]
};

/// Per-operator evaluation interface every query model implements
/// (QueryModel extends it). Whereas QueryModel::EmbedQueries embeds whole
/// query graphs, this surface exposes the individual batched operators,
/// which is what the shared-graph executor (plan/executor.h) needs: it
/// evaluates a deduplicated compute DAG node by node, batching
/// same-operator nodes from many requests into one call, so the operator
/// boundary — not the query boundary — is the unit of work.
///
/// Contract: every method is row-independent (row i of the output depends
/// only on row i of each input), so callers may assemble batches from
/// arbitrary rows of other operator results and the floats match a
/// whole-query evaluation bit for bit.
class OperatorModel {
 public:
  virtual ~OperatorModel() = default;

  /// Anchor entities; one row per entity.
  virtual EmbeddingBatch EmbedAnchors(const std::vector<int64_t>& entities) = 0;

  /// Projection; `relations[i]` applies to row i.
  virtual EmbeddingBatch Projection(const EmbeddingBatch& input,
                                    const std::vector<int64_t>& relations) = 0;

  /// Intersection. `z` holds one [B, d] constant group-similarity tensor
  /// per input (empty = all ones); models without a grouping ignore it.
  virtual EmbeddingBatch Intersection(const std::vector<EmbeddingBatch>& inputs,
                                      const std::vector<tensor::Tensor>& z) = 0;

  /// Difference; `inputs[0]` is the minuend. Only reached when the model
  /// Supports() it; the default fails.
  virtual EmbeddingBatch Difference(const std::vector<EmbeddingBatch>& inputs);

  /// Negation. Only reached when the model Supports() it; the default
  /// fails.
  virtual EmbeddingBatch Negation(const EmbeddingBatch& input);

  /// Grouping behind the intersection z factor; null (the default)
  /// disables it. The executor recomputes per-node group vectors with the
  /// same fold EmbedQueries uses, so z stays bit-identical.
  virtual const kg::NodeGrouping* operator_grouping() const { return nullptr; }
};

}  // namespace halk::core

#endif  // HALK_CORE_OPERATOR_MODEL_H_

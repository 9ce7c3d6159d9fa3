#include "core/query_model.h"

#include "common/logging.h"
#include "core/query_groups.h"

namespace halk::core {

using tensor::Tensor;

EmbeddingBatch OperatorModel::Difference(
    const std::vector<EmbeddingBatch>& /*inputs*/) {
  HALK_CHECK(false) << "model does not support the difference operator";
  return {};
}

EmbeddingBatch OperatorModel::Negation(const EmbeddingBatch& /*input*/) {
  HALK_CHECK(false) << "model does not support the negation operator";
  return {};
}

EmbeddingBatch QueryModel::EmbedQueries(
    const std::vector<const query::QueryGraph*>& queries) {
  std::vector<EmbeddingBatch> nodes =
      EmbedNodes(queries, /*over_approximate_union=*/false);
  return nodes[static_cast<size_t>(queries[0]->target())];
}

std::vector<EmbeddingBatch> QueryModel::EmbedAllNodes(
    const query::QueryGraph& query) {
  return EmbedNodes({&query}, /*over_approximate_union=*/true);
}

std::vector<EmbeddingBatch> QueryModel::EmbedNodes(
    const std::vector<const query::QueryGraph*>& queries,
    bool over_approximate_union) {
  HALK_CHECK(!queries.empty());
  const query::QueryGraph& proto = *queries[0];
  const int64_t batch = static_cast<int64_t>(queries.size());
  for (const query::QueryGraph* q : queries) {
    HALK_CHECK_EQ(q->num_nodes(), proto.num_nodes())
        << "EmbedQueries requires same-structure queries";
  }

  // Group vectors per query per node, for the intersection z factors.
  const kg::NodeGrouping* grouping = operator_grouping();
  std::vector<std::vector<std::vector<float>>> groups;
  if (grouping != nullptr) {
    groups.reserve(queries.size());
    for (const query::QueryGraph* q : queries) {
      groups.push_back(NodeGroupVectors(*q, *grouping));
    }
  }

  std::vector<EmbeddingBatch> nodes(static_cast<size_t>(proto.num_nodes()));
  for (int id : proto.TopologicalOrder()) {
    const query::QueryNode& n = proto.nodes()[static_cast<size_t>(id)];
    std::vector<EmbeddingBatch> inputs;
    inputs.reserve(n.inputs.size());
    for (int in : n.inputs) inputs.push_back(nodes[static_cast<size_t>(in)]);
    EmbeddingBatch& out = nodes[static_cast<size_t>(id)];
    switch (n.op) {
      case query::OpType::kAnchor: {
        std::vector<int64_t> entities;
        entities.reserve(queries.size());
        for (const query::QueryGraph* q : queries) {
          entities.push_back(
              q->nodes()[static_cast<size_t>(id)].anchor_entity);
        }
        out = EmbedAnchors(entities);
        break;
      }
      case query::OpType::kProjection: {
        std::vector<int64_t> relations;
        relations.reserve(queries.size());
        for (const query::QueryGraph* q : queries) {
          relations.push_back(q->nodes()[static_cast<size_t>(id)].relation);
        }
        out = Projection(inputs[0], relations);
        break;
      }
      case query::OpType::kIntersection: {
        std::vector<Tensor> z;
        if (grouping != nullptr) {
          for (int in : n.inputs) {
            std::vector<float> tiled(
                static_cast<size_t>(batch * config_.dim));
            for (int64_t b = 0; b < batch; ++b) {
              const float zi = kg::NodeGrouping::Similarity(
                  groups[static_cast<size_t>(b)][static_cast<size_t>(in)],
                  groups[static_cast<size_t>(b)][static_cast<size_t>(id)]);
              for (int64_t c = 0; c < config_.dim; ++c) {
                tiled[static_cast<size_t>(b * config_.dim + c)] = zi;
              }
            }
            z.push_back(Tensor::FromVector({batch, config_.dim},
                                           std::move(tiled)));
          }
        }
        out = Intersection(inputs, z);
        break;
      }
      case query::OpType::kDifference:
        out = Difference(inputs);
        break;
      case query::OpType::kNegation:
        out = Negation(inputs[0]);
        break;
      case query::OpType::kUnion:
        HALK_CHECK(over_approximate_union)
            << "union must be lifted out by ToDnf before embedding";
        out = inputs[0];
        break;
    }
  }
  return nodes;
}

}  // namespace halk::core

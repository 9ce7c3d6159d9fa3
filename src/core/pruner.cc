#include "core/pruner.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"

namespace halk::core {

Pruner::Pruner(HalkModel* model) : model_(model) {
  HALK_CHECK(model != nullptr);
}

PruneResult Pruner::Prune(const query::QueryGraph& query,
                          const kg::KnowledgeGraph& graph, int64_t top_k) {
  HALK_CHECK(graph.finalized());
  std::vector<EmbeddingBatch> arcs = model_->EmbedAllNodes(query);

  std::unordered_set<int64_t> selected;
  for (int id : query.TopologicalOrder()) {
    const query::QueryNode& node =
        query.nodes()[static_cast<size_t>(id)];
    if (node.op == query::OpType::kAnchor) {
      selected.insert(node.anchor_entity);
      continue;
    }
    // Top-k entities nearest to this variable node's arc.
    std::vector<float> dist;
    model_->DistancesToAll(arcs[static_cast<size_t>(id)], 0, &dist);
    std::vector<int64_t> ids(dist.size());
    std::iota(ids.begin(), ids.end(), 0);
    const int64_t k = std::min<int64_t>(top_k, static_cast<int64_t>(ids.size()));
    std::partial_sort(ids.begin(), ids.begin() + k, ids.end(),
                      [&dist](int64_t a, int64_t b) {
                        return dist[static_cast<size_t>(a)] <
                               dist[static_cast<size_t>(b)];
                      });
    selected.insert(ids.begin(), ids.begin() + k);
  }

  PruneResult result;
  result.candidates.assign(selected.begin(), selected.end());
  std::sort(result.candidates.begin(), result.candidates.end());

  result.induced = kg::KnowledgeGraph::WithSharedVocabulary(graph);
  for (const kg::Triple& t : graph.triples()) {
    if (selected.count(t.head) && selected.count(t.tail)) {
      HALK_CHECK_OK(result.induced.AddTriple(t.head, t.relation, t.tail));
    }
  }
  result.induced.Finalize();
  return result;
}

}  // namespace halk::core

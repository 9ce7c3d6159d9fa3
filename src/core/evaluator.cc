#include "core/evaluator.h"

#include <algorithm>

#include "common/logging.h"
#include "core/topk.h"
#include "obs/profiler.h"
#include "query/dnf.h"

namespace halk::core {

Evaluator::Evaluator(QueryModel* model) : model_(model) {
  HALK_CHECK(model != nullptr);
}

std::vector<float> Evaluator::ScoreAllEntities(
    const query::QueryGraph& query) {
  HALK_PROFILE_SCOPE("eval/score_all");
  std::vector<float> best;
  for (const query::QueryGraph& branch : query::ToDnf(query)) {
    std::vector<const query::QueryGraph*> single = {&branch};
    EmbeddingBatch embedding = model_->EmbedQueries(single);
    std::vector<float> dist;
    model_->DistancesToAll(embedding, 0, &dist);
    if (best.empty()) {
      best = std::move(dist);
    } else {
      for (size_t i = 0; i < best.size(); ++i) {
        best[i] = std::min(best[i], dist[i]);
      }
    }
  }
  return best;
}

std::vector<int64_t> Evaluator::TopK(const query::QueryGraph& query,
                                     int64_t k) {
  HALK_PROFILE_SCOPE("eval/topk");
  std::vector<int64_t> ids;
  for (const ScoredEntity& s : TopKFromDistances(ScoreAllEntities(query), k)) {
    ids.push_back(s.entity);
  }
  return ids;
}

Metrics Evaluator::Evaluate(const std::vector<query::GroundedQuery>& queries) {
  HALK_PROFILE_SCOPE("eval/evaluate");
  Metrics metrics;
  for (const query::GroundedQuery& q : queries) {
    const std::vector<int64_t>& hard =
        q.hard_answers.empty() && q.easy_answers.empty() ? q.answers
                                                         : q.hard_answers;
    if (hard.empty()) continue;
    std::vector<float> dist = ScoreAllEntities(q.graph);

    double mrr = 0.0;
    double h1 = 0.0;
    double h3 = 0.0;
    double h10 = 0.0;
    for (int64_t answer : hard) {
      const float d_answer = dist[static_cast<size_t>(answer)];
      // Filtered rank: other answers (easy or hard) never count as
      // competitors.
      int64_t rank = 1;
      for (int64_t e = 0; e < static_cast<int64_t>(dist.size()); ++e) {
        if (dist[static_cast<size_t>(e)] < d_answer &&
            !std::binary_search(q.answers.begin(), q.answers.end(), e)) {
          ++rank;
        }
      }
      mrr += 1.0 / static_cast<double>(rank);
      h1 += rank <= 1;
      h3 += rank <= 3;
      h10 += rank <= 10;
      ++metrics.num_answers;
    }
    const double n = static_cast<double>(hard.size());
    metrics.mrr += mrr / n;
    metrics.hits1 += h1 / n;
    metrics.hits3 += h3 / n;
    metrics.hits10 += h10 / n;
    ++metrics.num_queries;
  }
  if (metrics.num_queries > 0) {
    const double n = static_cast<double>(metrics.num_queries);
    metrics.mrr /= n;
    metrics.hits1 /= n;
    metrics.hits3 /= n;
    metrics.hits10 /= n;
  }
  return metrics;
}

}  // namespace halk::core

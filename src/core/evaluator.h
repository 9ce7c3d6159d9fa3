#ifndef HALK_CORE_EVALUATOR_H_
#define HALK_CORE_EVALUATOR_H_

#include <vector>

#include "core/query_model.h"
#include "query/sampler.h"

namespace halk::core {

/// Ranking metrics of the paper's evaluation protocol.
struct Metrics {
  double mrr = 0.0;     // Mean Reciprocal Rank (as a fraction, not %)
  double hits1 = 0.0;   // Hits@1
  double hits3 = 0.0;   // Hits@3 (the paper's second headline metric)
  double hits10 = 0.0;  // Hits@10
  int64_t num_queries = 0;
  int64_t num_answers = 0;  // hard answers scored
};

/// Evaluates a trained model on grounded queries with the filtered-ranking
/// protocol: for each *hard* answer, its rank is 1 + the number of
/// non-answer entities scored strictly closer; metrics are averaged per
/// query and then across queries. Union queries are expanded with the DNF
/// rewrite and scored by minimum branch distance (Sec. III-F).
class Evaluator {
 public:
  explicit Evaluator(QueryModel* model);

  /// Scores queries whose easy/hard split has been prepared by
  /// SplitEasyHard (queries with no hard answers are skipped; if the split
  /// was never run, all answers count as hard).
  Metrics Evaluate(const std::vector<query::GroundedQuery>& queries);

  /// Distance from every entity to one grounded query (min over DNF
  /// branches). Exposed for the pruning study and examples.
  std::vector<float> ScoreAllEntities(const query::QueryGraph& query);

  /// The `k` entities closest to the query embedding, ranked by the
  /// model's AccumulateTopKRange over [0, N) — the scan a 1-shard serving
  /// engine runs.
  std::vector<int64_t> TopK(const query::QueryGraph& query, int64_t k);

 private:
  QueryModel* model_;
};

}  // namespace halk::core

#endif  // HALK_CORE_EVALUATOR_H_

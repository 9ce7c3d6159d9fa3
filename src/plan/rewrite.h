#ifndef HALK_PLAN_REWRITE_H_
#define HALK_PLAN_REWRITE_H_

#include "query/dag.h"

namespace halk::plan {

/// Rewrite options for RewriteQuery — the planner's algebraic
/// normalization pass (formerly query/optimizer.h). The defaults encode
/// the paper's empirically validated operator preferences (Sec. II-A: "the
/// order of operator selection should be projection > intersection/
/// difference > negation > union"; Sec. I: the difference operator is
/// better for multi-hop reasoning while negation suits the tail position).
struct RewriteOptions {
  /// ¬¬A → A.
  bool eliminate_double_negation = true;
  /// I(I(a, b), c) → I(a, b, c); same for unions and difference minuends.
  bool flatten_associative = true;
  /// I(a₁..aₖ, ¬b₁..¬bₘ) → D(I(a₁..aₖ), b₁..bₘ) for *intermediate* nodes
  /// (a downstream operator consumes them) — difference produces compact
  /// candidate sets that compound better over further hops.
  bool prefer_difference_for_intermediate = true;
  /// The same rewrite applied at the target node too. Off by default:
  /// negation is the better *tail* operation in the paper's study.
  bool rewrite_tail_negation = false;
};

/// Applies the semantics-preserving rewrites selected in `options` until a
/// fixed point and returns the normalized graph (unreachable nodes are
/// dropped). Every rewrite is an exact set identity — the rewritten query
/// denotes the same answer set — but it swaps which *neural* operators
/// run, so embeddings and rankings may shift. The serving planner therefore
/// never applies it, to stay bit-identical with Evaluator::TopK;
/// training-time and offline pipelines call it before planning.
query::QueryGraph RewriteQuery(const query::QueryGraph& query,
                               const RewriteOptions& options);

/// Rewrite with default options.
query::QueryGraph RewriteQuery(const query::QueryGraph& query);

}  // namespace halk::plan

#endif  // HALK_PLAN_REWRITE_H_

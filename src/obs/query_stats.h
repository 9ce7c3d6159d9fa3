#ifndef HALK_OBS_QUERY_STATS_H_
#define HALK_OBS_QUERY_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "query/fingerprint.h"
#include "query/ops.h"

namespace halk::obs {

/// Number of query::OpType kinds the per-operator time breakdown tracks
/// (anchor, projection, intersection, union, difference, negation).
inline constexpr size_t kNumOpKinds = 6;

/// Welford online mean/variance accumulator — numerically stable across
/// the millions of observations a hot fingerprint can collect.
struct Welford {
  int64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;

  void Add(double x) {
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
  }
  double Variance() const {
    return count > 1 ? m2 / static_cast<double>(count - 1) : 0.0;
  }
};

/// One finished request's analytics, fed by the serving engine. Plan
/// fields are zero for requests answered from the whole-answer cache.
struct QueryObservation {
  /// Structure-fingerprint hex (layout with grounding masked), "" when
  /// the request never reached the planner.
  std::string structure;
  double latency_us = 0.0;
  bool cache_hit = false;
  int64_t plan_nodes = 0;    // plan nodes reachable from the request's roots
  double dedup_ratio = 0.0;  // the owning chunk plan's merged fraction
  /// Worst per-node q-error across the request's measured nodes; 0 when
  /// none were measured.
  double worst_qerror = 0.0;
  /// Attributed operator wall ns, indexed by static_cast<size_t>(OpType).
  std::array<int64_t, kNumOpKinds> op_ns{};
};

/// Bounded fingerprint-keyed aggregate of per-query runtime statistics —
/// the backing store of the `/queryz` telemetry endpoint and the
/// planner's cardinality-feedback source. Keys are canonical query
/// fingerprints (hex), the same join key SlowQueryLog entries and
/// ServeJournal lines carry; eviction is least-recently-served, like
/// SlowQueryLog. A second, independently bounded map keyed by *subtree*
/// fingerprints holds EWMA observed cardinalities for feedback
/// (plan/planner.h consults ObservedRows for schedule ordering only).
/// Thread-safe.
class QueryStatsStore {
 public:
  /// Per-fingerprint aggregate (a snapshot copy; safe to hold).
  struct Stats {
    std::string fingerprint;  // canonical fingerprint hex (the key)
    std::string structure;    // latest structure-fingerprint hex
    int64_t hits = 0;
    int64_t cache_hits = 0;
    Welford latency_us;
    Welford qerror;           // per-request worst node q-error, when measured
    double worst_qerror = 0.0;
    int64_t plan_nodes = 0;    // latest
    double dedup_ratio = 0.0;  // latest
    std::array<int64_t, kNumOpKinds> op_ns{};
    int64_t total_op_ns() const {
      int64_t total = 0;
      for (const int64_t ns : op_ns) total += ns;
      return total;
    }
  };

  /// `capacity` bounds distinct query fingerprints, `feedback_capacity`
  /// distinct subtree fingerprints; `feedback_min_samples` observations
  /// are required before ObservedRows trusts a subtree's EWMA.
  explicit QueryStatsStore(size_t capacity, size_t feedback_capacity = 4096,
                           int64_t feedback_min_samples = 2);

  /// Folds one finished request into its fingerprint's aggregate (created
  /// or LRU-refreshed).
  void Record(const std::string& fingerprint,
              const QueryObservation& observation) HALK_EXCLUDES(mu_);

  /// Folds one sampled subtree cardinality into the feedback EWMA for
  /// `key` (a plan node's evaluation-order-preserving fingerprint).
  void RecordSubtreeRows(const query::Fingerprint& key, double actual_rows)
      HALK_EXCLUDES(feedback_mu_);

  /// True (and `*rows` set to the EWMA) when the subtree has at least
  /// feedback_min_samples observations. Read-only: never reorders the LRU.
  bool ObservedRows(const query::Fingerprint& key, double* rows) const
      HALK_EXCLUDES(feedback_mu_);

  /// Aggregate for one fingerprint, if retained.
  bool Lookup(const std::string& fingerprint, Stats* out) const
      HALK_EXCLUDES(mu_);

  /// Top aggregates by total attributed operator time (ties: hits, then
  /// mean latency, then fingerprint for determinism).
  std::vector<Stats> TopByTime(size_t n) const HALK_EXCLUDES(mu_);

  /// The `/queryz` payload: `{"queries":[{...}, ...]}` with one flat
  /// object per retained fingerprint, TopByTime order, at most `top_n`.
  /// Per-operator times render as `us_<op>` keys (us_projection, ...).
  std::string ToJson(size_t top_n) const HALK_EXCLUDES(mu_);

  size_t size() const HALK_EXCLUDES(mu_);
  size_t feedback_size() const HALK_EXCLUDES(feedback_mu_);
  int64_t feedback_min_samples() const { return feedback_min_samples_; }
  void Clear() HALK_EXCLUDES(mu_) HALK_EXCLUDES(feedback_mu_);

 private:
  struct FeedbackEntry {
    double rows = 0.0;  // EWMA of sampled actual rows
    int64_t samples = 0;
    std::list<query::Fingerprint>::iterator lru;
  };

  const size_t capacity_;
  const size_t feedback_capacity_;
  const int64_t feedback_min_samples_;

  mutable Mutex mu_;
  std::list<Stats> entries_ HALK_GUARDED_BY(mu_);  // MRU at front
  std::unordered_map<std::string, std::list<Stats>::iterator> index_
      HALK_GUARDED_BY(mu_);

  mutable Mutex feedback_mu_;
  std::list<query::Fingerprint> feedback_lru_ HALK_GUARDED_BY(feedback_mu_);
  std::unordered_map<query::Fingerprint, FeedbackEntry,
                     query::FingerprintHash>
      feedback_ HALK_GUARDED_BY(feedback_mu_);
};

}  // namespace halk::obs

#endif  // HALK_OBS_QUERY_STATS_H_

#ifndef HALK_SERVING_METRICS_H_
#define HALK_SERVING_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace halk::serving {

/// Monotonically increasing event count. Increments are lock-free; reads
/// are approximate under concurrency (exact once writers quiesce).
class Counter {
 public:
  void Increment(int64_t n = 1) {
    // order: independent event count; no other data is published with it.
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  // order: monitoring read; staleness by a few increments is acceptable.
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A point-in-time level that can move both ways: queue depth, in-flight
/// requests, cache bytes. Set/Add are lock-free (Add is a CAS loop, so
/// concurrent deltas never lose updates).
class Gauge {
 public:
  // order: the gauge value is self-contained; no release pairing needed.
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    // order: CAS loop on a single word; relaxed suffices because no other
    // memory is published through the gauge.
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  // order: monitoring read; momentary staleness is acceptable.
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus-style quantile interpolation.
/// Observations land in the first bucket whose upper bound is >= x; the
/// last bucket is an implicit +inf overflow. Observe is lock-free
/// (per-bucket atomic counts plus an atomic sum), so hot-path observation
/// never serializes behind readers; concurrent reads see a consistent-
/// enough snapshot (count/sum/buckets may momentarily disagree by the few
/// observations in flight, exact once writers quiesce).
class Histogram {
 public:
  /// A trace exemplar: the last observation of a bucket that carried a
  /// trace id, so a scraped histogram links back to one concrete request.
  /// trace_id 0 means the bucket never saw an exemplified observation.
  struct Exemplar {
    uint64_t trace_id = 0;
    double value = 0.0;
  };

  /// `upper_bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Records `x`. A nonzero `exemplar_trace_id` additionally stamps the
  /// landing bucket's exemplar (last-writer-wins, two relaxed stores; a
  /// reader may momentarily pair a trace id with the previous value, which
  /// is acceptable for monitoring — the id always names a real trace).
  void Observe(double x, uint64_t exemplar_trace_id = 0);

  int64_t count() const;
  double sum() const;
  double mean() const;  // 0 when empty

  /// Linear-interpolated quantile estimate, q in [0, 1] (clamped). Defined
  /// edge behavior, never NaN:
  ///  - empty histogram: 0 for every q;
  ///  - q = 0: the lower edge of the first non-empty bucket;
  ///  - q = 1: the upper bound of the last non-empty bucket;
  ///  - observations in the +inf overflow bucket report the largest finite
  ///    bound (so an all-overflow histogram returns it for every q).
  double Quantile(double q) const;

  /// Snapshot of per-bucket counts; bounds().size() + 1 entries, the last
  /// being the +inf overflow bucket (the exposition format's raw series).
  std::vector<int64_t> BucketCounts() const;
  const std::vector<double>& bounds() const { return bounds_; }

  /// Exemplar of bucket `b` (same indexing as BucketCounts); trace_id 0
  /// when the bucket has none.
  Exemplar BucketExemplar(size_t b) const;

  /// `n` bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               int n);

  /// The Quantile() interpolation over an externally supplied snapshot
  /// (`counts` has bounds.size() + 1 entries, overflow last) — shared with
  /// obs::WindowedHistogram, whose rolling-window snapshots are merged
  /// from ring slots rather than read from one live histogram.
  static double QuantileFromCounts(const std::vector<double>& bounds,
                                   const std::vector<int64_t>& counts,
                                   double q);

 private:
  std::vector<double> bounds_;               // ascending upper bounds
  std::vector<std::atomic<int64_t>> counts_;  // bounds_.size() + 1 (overflow)
  /// Per-bucket exemplar halves; independently relaxed (see Observe).
  std::vector<std::atomic<uint64_t>> exemplar_trace_;
  std::vector<std::atomic<double>> exemplar_value_;
  std::atomic<double> sum_{0.0};
  std::atomic<int64_t> total_{0};
};

/// Instrument labels, e.g. {{"shard", "2"}, {"op", "projection"}}. Order is
/// irrelevant: the registry canonicalizes by sorting on label name, so
/// {a,b} and {b,a} address the same instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Named counters, gauges, and histograms shared by the serving stack,
/// optionally carrying labels — `GetCounter("shard.tasks", {{"shard","2"}})`
/// addresses one child of the `shard.tasks` family. Get* lazily creates on
/// first use and returns stable pointers (instruments are never removed),
/// so hot paths cache the pointer and skip the registry lock.
///
/// A metric name must keep one kind (counter, gauge, or histogram) and,
/// for histograms, one bucket layout across all its labeled children.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name, const Labels& labels = {})
      HALK_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const Labels& labels = {})
      HALK_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds,
                          const Labels& labels = {}) HALK_EXCLUDES(mu_);

  /// Value of a counter, 0 if it was never created.
  int64_t CounterValue(const std::string& name,
                       const Labels& labels = {}) const HALK_EXCLUDES(mu_);
  /// Value of a gauge, 0 if it was never created.
  double GaugeValue(const std::string& name, const Labels& labels = {}) const
      HALK_EXCLUDES(mu_);

  /// Registers a hook run (outside the registry lock, in registration
  /// order) at the start of every DumpText / DumpPrometheus, so derived or
  /// sampled instruments (process.* self-metrics, slo.* burn rates) are
  /// refreshed on each scrape. Hooks may call Get*/Set freely; they must
  /// not call Dump* or AddCollectionHook (self-deadlock by design: the
  /// dump re-enters the registry lock after the hooks finish).
  void AddCollectionHook(std::function<void()> hook) HALK_EXCLUDES(mu_);

  /// Plain-text dump. Ordering is stable and documented: all counters,
  /// then all gauges, then all histograms, each sorted by (name, canonical
  /// label string). Labeled instruments render the canonical labels inline:
  ///   counter serving.submitted 128
  ///   counter shard.tasks{shard="2"} 40
  ///   gauge serving.queue_depth 3
  ///   histogram serving.latency_us count=120 mean=412.5 p50=... p95=... p99=...
  std::string DumpText() const HALK_EXCLUDES(mu_);

  /// Prometheus text exposition (text/plain version 0.0.4): one `# TYPE`
  /// line per family (names sanitized to [a-zA-Z0-9_:], dots become
  /// underscores), counter/gauge sample lines, and the full
  /// `_bucket{le=...}` / `_sum` / `_count` series for histograms with
  /// cumulative bucket counts ending at le="+Inf". Buckets that hold a
  /// trace exemplar append the OpenMetrics-style suffix
  /// ` # {trace_id="<hex>"} <value>` after the sample value.
  std::string DumpPrometheus() const HALK_EXCLUDES(mu_);

 private:
  /// Instrument identity: name plus canonical (sorted, escaped) labels.
  struct Key {
    std::string name;
    std::string labels;  // canonical rendering, "" when unlabeled

    bool operator<(const Key& other) const {
      if (name != other.name) return name < other.name;
      return labels < other.labels;
    }
  };

  /// Copies the hooks out under mu_ and runs them unlocked (hooks call
  /// Get*/Set, which retake mu_).
  void RunCollectionHooks() const HALK_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_ HALK_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ HALK_GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Histogram>> histograms_
      HALK_GUARDED_BY(mu_);
  std::vector<std::function<void()>> hooks_ HALK_GUARDED_BY(mu_);
};

}  // namespace halk::serving

#endif  // HALK_SERVING_METRICS_H_

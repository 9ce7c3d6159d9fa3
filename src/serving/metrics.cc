#include "serving/metrics.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace halk::serving {

namespace {

/// Prometheus label names match [a-zA-Z_][a-zA-Z0-9_]* (no ':', which is
/// reserved for metric names); anything else becomes '_' so adversarial
/// label names can never corrupt the exposition.
std::string SanitizeLabelName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok =
        std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
    if (!ok) c = '_';
  }
  if (out.empty()) return "_";
  if (std::isdigit(static_cast<unsigned char>(out[0]))) out.insert(0, 1, '_');
  return out;
}

/// Renders labels in canonical form: names sanitized then sorted, values
/// escaped, `{a="x",b="y"}`. Empty labels render as "" so unlabeled
/// instruments keep their bare name everywhere.
std::string CanonicalLabels(const Labels& labels) {
  if (labels.empty()) return "";
  Labels sorted;
  sorted.reserve(labels.size());
  for (const auto& [label_name, value] : labels) {
    sorted.emplace_back(SanitizeLabelName(label_name), value);
  }
  std::sort(sorted.begin(), sorted.end());
  // Duplicate names (possible when distinct raw names sanitize to the same
  // string) keep their first value: a sample may carry each label once.
  sorted.erase(std::unique(sorted.begin(), sorted.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               sorted.end());
  std::string out = "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ",";
    out += sorted[i].first;
    out += "=\"";
    out += CEscape(sorted[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Histograms reserve the `le` label for their bucket series; a caller
/// label that sanitizes to `le` is renamed to `exported_le` (the standard
/// Prometheus collision convention) so WithLe never emits two `le` pairs.
Labels RenameReservedHistogramLabels(const Labels& labels) {
  Labels fixed = labels;
  for (auto& [label_name, value] : fixed) {
    if (SanitizeLabelName(label_name) == "le") label_name = "exported_le";
  }
  return fixed;
}

/// Prometheus metric names match [a-zA-Z_:][a-zA-Z0-9_:]*; dots (our
/// internal separator) and anything else invalid become underscores.
std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.empty()) return "_";
  if (std::isdigit(static_cast<unsigned char>(out[0]))) out.insert(0, 1, '_');
  return out;
}

/// Splices an `le` label into an already-canonical label string.
std::string WithLe(const std::string& labels, const std::string& le) {
  if (labels.empty()) return "{le=\"" + le + "\"}";
  return labels.substr(0, labels.size() - 1) + ",le=\"" + le + "\"}";
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1),
      exemplar_trace_(bounds_.size() + 1),
      exemplar_value_(bounds_.size() + 1) {
  HALK_CHECK(!bounds_.empty());
  HALK_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (size_t b = 0; b < counts_.size(); ++b) {
    // order: constructor runs before the histogram is shared.
    counts_[b].store(0, std::memory_order_relaxed);
    exemplar_trace_[b].store(0, std::memory_order_relaxed);
    exemplar_value_[b].store(0.0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double x, uint64_t exemplar_trace_id) {
  const size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  // order: bucket counts, sum, and total are independently-read monitoring
  // words; readers tolerate momentary disagreement, so no release pairing.
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  if (exemplar_trace_id != 0) {
    // order: exemplar halves are last-writer-wins monitoring words; a
    // reader pairing the id with a neighbor write's value is documented.
    exemplar_value_[b].store(x, std::memory_order_relaxed);
    exemplar_trace_[b].store(exemplar_trace_id, std::memory_order_relaxed);
  }
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + x,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
  total_.fetch_add(1, std::memory_order_relaxed);
}

Histogram::Exemplar Histogram::BucketExemplar(size_t b) const {
  Exemplar out;
  if (b >= exemplar_trace_.size()) return out;
  // order: monitoring reads; momentary id/value skew is documented.
  out.trace_id = exemplar_trace_[b].load(std::memory_order_relaxed);
  out.value = exemplar_value_[b].load(std::memory_order_relaxed);
  return out;
}

int64_t Histogram::count() const {
  // order: monitoring read; exact only once writers quiesce (documented).
  return total_.load(std::memory_order_relaxed);
}

// order: monitoring read; exact only once writers quiesce (documented).
double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  // order: both reads are monitoring snapshots; small skew is acceptable.
  const int64_t n = total_.load(std::memory_order_relaxed);
  return n == 0 ? 0.0 : sum_.load(std::memory_order_relaxed) /
                            static_cast<double>(n);
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(counts_.size());
  for (size_t b = 0; b < counts_.size(); ++b) {
    // order: per-bucket snapshot; Quantile derives its total from this
    // same snapshot, so cross-bucket skew cannot strand the target.
    out[b] = counts_[b].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Quantile(double q) const {
  // Work from a snapshot and derive the total from it, so a racing Observe
  // between bucket reads can never leave target unreachable.
  return QuantileFromCounts(bounds_, BucketCounts(), q);
}

double Histogram::QuantileFromCounts(const std::vector<double>& bounds,
                                     const std::vector<int64_t>& counts,
                                     double q) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  int64_t seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;  // empty buckets carry no mass
    seen += counts[b];
    if (static_cast<double>(seen) < target) continue;
    if (b >= bounds.size()) return bounds.back();  // overflow bucket
    const double hi = bounds[b];
    const double lo = b == 0 ? 0.0 : bounds[b - 1];
    // Interpolate within the bucket assuming uniform mass. q=0 lands at the
    // bucket's lower edge (into=0), q=1 at the last non-empty bucket's
    // upper bound (into=1); the clamp keeps rounding from escaping [lo,hi].
    const double into = std::clamp(
        (target - static_cast<double>(seen - counts[b])) /
            static_cast<double>(counts[b]),
        0.0, 1.0);
    return lo + (hi - lo) * into;
  }
  return bounds.back();
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 int n) {
  HALK_CHECK_GT(start, 0.0);
  HALK_CHECK_GT(factor, 1.0);
  HALK_CHECK_GT(n, 0);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(n));
  double b = start;
  for (int i = 0; i < n; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  const Key key{name, CanonicalLabels(labels)};
  MutexLock lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[key];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  const Key key{name, CanonicalLabels(labels)};
  MutexLock lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[key];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds,
                                         const Labels& labels) {
  const Key key{name,
                CanonicalLabels(RenameReservedHistogramLabels(labels))};
  MutexLock lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return slot.get();
}

int64_t MetricsRegistry::CounterValue(const std::string& name,
                                      const Labels& labels) const {
  const Key key{name, CanonicalLabels(labels)};
  MutexLock lock(mu_);
  auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second->value();
}

double MetricsRegistry::GaugeValue(const std::string& name,
                                   const Labels& labels) const {
  const Key key{name, CanonicalLabels(labels)};
  MutexLock lock(mu_);
  auto it = gauges_.find(key);
  return it == gauges_.end() ? 0.0 : it->second->value();
}

void MetricsRegistry::AddCollectionHook(std::function<void()> hook) {
  MutexLock lock(mu_);
  hooks_.push_back(std::move(hook));
}

void MetricsRegistry::RunCollectionHooks() const {
  std::vector<std::function<void()>> hooks;
  {
    MutexLock lock(mu_);
    hooks = hooks_;
  }
  // Outside the lock: hooks refresh instruments via Get*/Set, which retake
  // mu_ themselves.
  for (const std::function<void()>& hook : hooks) hook();
}

std::string MetricsRegistry::DumpText() const {
  RunCollectionHooks();
  MutexLock lock(mu_);
  std::ostringstream out;
  for (const auto& [key, c] : counters_) {
    out << "counter " << key.name << key.labels << " " << c->value() << "\n";
  }
  for (const auto& [key, g] : gauges_) {
    out << "gauge " << key.name << key.labels << " " << g->value() << "\n";
  }
  for (const auto& [key, h] : histograms_) {
    out << "histogram " << key.name << key.labels << " count=" << h->count()
        << " mean=" << h->mean() << " p50=" << h->Quantile(0.50)
        << " p95=" << h->Quantile(0.95) << " p99=" << h->Quantile(0.99)
        << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::DumpPrometheus() const {
  RunCollectionHooks();
  MutexLock lock(mu_);
  std::string out;
  // Sanitized families must be unique per instrument, or two raw names
  // like "x.y" and "x_y" (or a counter and a gauge sharing a name) would
  // emit duplicate `# TYPE` declarations and interleave their series.
  // Each (kind, raw name) claims its sanitized family on first use;
  // later claimants of an already-taken family get a deterministic
  // `_2`, `_3`, ... suffix. Kinds are numbered so a counter and a gauge
  // with the same raw name stay distinct families.
  std::set<std::string> used_families;
  std::map<std::pair<int, std::string>, std::string> family_of;
  const auto family_for = [&](int kind, const std::string& raw_name) {
    auto it = family_of.find({kind, raw_name});
    if (it != family_of.end()) return it->second;
    const std::string base = SanitizeName(raw_name);
    std::string family = base;
    for (int n = 2; !used_families.insert(family).second; ++n) {
      family = base + "_" + StrFormat("%d", n);
    }
    family_of[{kind, raw_name}] = family;
    return family;
  };
  // The maps are ordered by (name, labels), so children of a family are
  // contiguous and each family's # TYPE line precedes all its samples.
  std::string last_family;
  for (const auto& [key, c] : counters_) {
    const std::string family = family_for(0, key.name);
    if (family != last_family) {
      out += "# TYPE " + family + " counter\n";
      last_family = family;
    }
    out += family + key.labels + " " +
           StrFormat("%lld", static_cast<long long>(c->value())) + "\n";
  }
  last_family.clear();
  for (const auto& [key, g] : gauges_) {
    const std::string family = family_for(1, key.name);
    if (family != last_family) {
      out += "# TYPE " + family + " gauge\n";
      last_family = family;
    }
    out += family + key.labels + " " + StrFormat("%g", g->value()) + "\n";
  }
  last_family.clear();
  for (const auto& [key, h] : histograms_) {
    const std::string family = family_for(2, key.name);
    if (family != last_family) {
      out += "# TYPE " + family + " histogram\n";
      last_family = family;
    }
    const std::vector<int64_t> counts = h->BucketCounts();
    const std::vector<double>& bounds = h->bounds();
    // OpenMetrics-style exemplar suffix for buckets that captured one; ""
    // for the (common) exemplar-free bucket, so plain scrapers see the
    // classic 0.0.4 line unchanged.
    const auto exemplar_suffix = [&](size_t b) {
      const Histogram::Exemplar e = h->BucketExemplar(b);
      if (e.trace_id == 0) return std::string();
      return " # {trace_id=\"" +
             StrFormat("%llx", static_cast<unsigned long long>(e.trace_id)) +
             "\"} " + StrFormat("%g", e.value);
    };
    int64_t cumulative = 0;
    for (size_t b = 0; b < bounds.size(); ++b) {
      cumulative += counts[b];
      out += family + "_bucket" +
             WithLe(key.labels, StrFormat("%g", bounds[b])) + " " +
             StrFormat("%lld", static_cast<long long>(cumulative)) +
             exemplar_suffix(b) + "\n";
    }
    cumulative += counts.back();
    out += family + "_bucket" + WithLe(key.labels, "+Inf") + " " +
           StrFormat("%lld", static_cast<long long>(cumulative)) +
           exemplar_suffix(counts.size() - 1) + "\n";
    out += family + "_sum" + key.labels + " " + StrFormat("%g", h->sum()) +
           "\n";
    out += family + "_count" + key.labels + " " +
           StrFormat("%lld", static_cast<long long>(cumulative)) + "\n";
  }
  return out;
}

}  // namespace halk::serving

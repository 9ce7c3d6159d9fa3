#ifndef HALK_OBS_TRACE_H_
#define HALK_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace halk::obs {

/// Upper bound on key/value annotations per span. Spans are fixed-size POD
/// slots in a lock-free ring, so the bound is a compile-time constant; the
/// widest span today (a shard scan) uses six.
inline constexpr int kMaxAnnotations = 8;

/// One numeric key/value annotation. Keys must be string literals (or
/// otherwise outlive the tracer): the ring stores the pointer, not a copy.
struct Annotation {
  const char* key = nullptr;
  double value = 0.0;
};

/// A completed span, as assembled by Tracer::Collect. Times are
/// steady-clock nanoseconds (comparable within a process, not wall-clock).
struct SpanRecord {
  uint64_t trace_id = 0;
  uint32_t id = 0;      // unique within the tracer, never 0
  uint32_t parent = 0;  // 0 = root span of its trace
  const char* name = "";
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  uint32_t thread = 0;  // dense per-tracer thread index
  int num_annotations = 0;
  Annotation annotations[kMaxAnnotations];

  int64_t end_ns() const { return start_ns + duration_ns; }
  /// Value of the named annotation, or `fallback` when absent.
  double annotation(const char* key, double fallback = 0.0) const;
  bool has_annotation(const char* key) const;
};

/// An assembled per-request trace: every span collected for one trace id,
/// sorted by (start time, span id).
class Trace {
 public:
  Trace() = default;
  Trace(uint64_t id, std::vector<SpanRecord> spans);

  uint64_t id() const { return id_; }
  bool empty() const { return spans_.empty(); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// First span (by start time) with the given name, or nullptr.
  const SpanRecord* Find(const char* name) const;
  std::vector<const SpanRecord*> FindAll(const char* name) const;

  /// Duration of the root span (parent == 0); when no root was recorded,
  /// the span-envelope (max end - min start). 0 for an empty trace.
  int64_t duration_ns() const;

  /// chrome://tracing / Perfetto "trace event" JSON: an object with a
  /// `traceEvents` array of complete ("ph":"X") events, timestamps in
  /// microseconds relative to the trace start, annotations under `args`.
  std::string ToChromeJson() const;

 private:
  uint64_t id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// Steady-clock now in nanoseconds (the span timebase).
int64_t NowNs();

/// Produces per-request traces at near-zero cost when disabled. Completed
/// spans are recorded into a lock-free per-thread ring buffer (single
/// writer per ring; seqlock-published fixed-size slots, no allocation on
/// the hot path); Collect scans every ring for a trace id and assembles
/// the spans into a Trace. Rings wrap: a span older than `ring_capacity`
/// newer spans on its thread is silently lost, which bounds memory and
/// makes recording O(1) regardless of uptime.
///
/// Disabled-cost contract: StartTrace does one relaxed atomic load and
/// returns 0; every span helper no-ops on a zero trace id (a pointer/zero
/// check, no clock read, no ring write).
class Tracer {
 public:
  explicit Tracer(size_t ring_capacity = 4096);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) {
    // order: enabling tracing only toggles whether ids are handed out; no
    // other state is published through the flag.
    enabled_.store(on, std::memory_order_relaxed);
  }
  // order: hot-path check; stale reads just delay span capture one request.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// A fresh nonzero trace id when enabled; 0 when disabled (downstream
  /// span calls all no-op on 0).
  uint64_t StartTrace();

  /// Allocates a span id (tracer-unique, never 0).
  uint32_t NextSpanId();

  /// Records a completed span into this thread's ring. `record.id` must be
  /// nonzero (use NextSpanId); no-ops when `record.trace_id` is 0.
  void Record(const SpanRecord& record);

  /// Snapshot of every span currently held for `trace_id`, sorted by start
  /// time. Safe to call while other threads record (seqlock reads skip
  /// slots mid-write); spans lost to ring wrap are absent.
  Trace Collect(uint64_t trace_id) const;

  /// Snapshot of the most recent `max_spans` spans across every thread
  /// ring, regardless of trace id (the /traces endpoint body). The result
  /// is a Trace with id 0 holding spans of many requests; each span keeps
  /// its own trace_id (ToChromeJson emits it under args). Same seqlock
  /// guarantees as Collect.
  Trace CollectRecent(size_t max_spans) const;

  size_t ring_capacity() const { return ring_capacity_; }

 private:
  struct Slot;
  struct Ring;

  Ring* ThisThreadRing() HALK_EXCLUDES(rings_mu_);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_trace_{1};
  std::atomic<uint32_t> next_span_{1};
  const size_t ring_capacity_;
  const uint64_t serial_;  // distinguishes tracers in thread-local caches
  /// Guards growth of `rings_` only; slot access is lock-free by design
  /// (each Ring has one writer thread, readers go through the seqlock).
  mutable Mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_ HALK_GUARDED_BY(rings_mu_);
};

/// The handle threaded through a request path: which tracer, which trace,
/// and the span to parent new children under. Inactive contexts (null
/// tracer or zero trace id) make every span operation a no-op, so
/// call sites never branch on "is tracing on".
struct TraceContext {
  Tracer* tracer = nullptr;
  uint64_t trace_id = 0;
  uint32_t parent = 0;

  bool active() const { return tracer != nullptr && trace_id != 0; }
  /// Same trace, reparented under `parent_span`.
  TraceContext Child(uint32_t parent_span) const {
    return {tracer, trace_id, parent_span};
  }
};

/// Records a span with explicit endpoints — for phases timed after the
/// fact, like queue wait (start stamped at submit, recorded at pickup).
/// Returns the span id (0 when the context is inactive). `explicit_id`
/// nonzero reuses a pre-allocated id (e.g. a root span whose id children
/// already reference).
uint32_t RecordSpan(const TraceContext& ctx, const char* name,
                    int64_t start_ns, int64_t end_ns,
                    std::initializer_list<Annotation> annotations = {},
                    uint32_t explicit_id = 0);

/// Records a zero-duration marker span (e.g. a subtree-cache hit).
uint32_t RecordEvent(const TraceContext& ctx, const char* name,
                     std::initializer_list<Annotation> annotations = {});

/// RAII span: stamps the clock on construction, records on End() or
/// destruction. On an inactive context every method is a cheap no-op.
class SpanGuard {
 public:
  SpanGuard() = default;
  SpanGuard(const TraceContext& ctx, const char* name);
  ~SpanGuard() { End(); }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  bool active() const { return ctx_.active() && !ended_; }
  uint32_t id() const { return id_; }
  /// Context for children of this span.
  TraceContext child_context() const { return ctx_.Child(id_); }

  void Annotate(const char* key, double value);
  /// Records the span now (idempotent).
  void End();

 private:
  TraceContext ctx_;
  const char* name_ = "";
  int64_t start_ns_ = 0;
  uint32_t id_ = 0;
  int num_annotations_ = 0;
  Annotation annotations_[kMaxAnnotations];
  bool ended_ = true;
};

}  // namespace halk::obs

#endif  // HALK_OBS_TRACE_H_

#ifndef HALK_NET_TELEMETRY_H_
#define HALK_NET_TELEMETRY_H_

#include <functional>
#include <string>

#include "net/http_server.h"
#include "obs/profiler.h"
#include "obs/slo_tracker.h"
#include "obs/trace.h"
#include "serving/metrics.h"

namespace halk::net {

/// What the telemetry endpoints read from. Every pointer is optional
/// (null = that endpoint reports the feature as absent) and must outlive
/// the HttpServer. The struct deliberately carries no serving/shard/store
/// types: the higher layers wire themselves in through the registry and
/// the two callbacks, so halk_net stays below them in the link order.
struct TelemetrySources {
  serving::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::Profiler* profiler = nullptr;
  obs::SloTracker* slo = nullptr;
  /// Readiness probe — e.g. the embedding store's snapshot checksum
  /// verification. Return a non-OK message to flip /readyz to 503. Null
  /// means "nothing to check".
  std::function<Status()> ready_check;
  /// Renders the top-N query-stats aggregates as JSON (the /queryz body).
  /// Wired by the serving layer as a thin forward to
  /// obs::QueryStatsStore::ToJson so halk_net needs no query/plan types.
  /// Null answers /queryz with 404.
  std::function<std::string(size_t top_n)> query_stats_json;
};

/// Registers the telemetry endpoint suite on `server`:
///   GET /metrics            Prometheus 0.0.4 text via DumpPrometheus
///   GET /healthz            liveness: always 200 {"status":"ok"}
///   GET /readyz             200, or 503 when the ready_check fails
///   GET /traces?spans=N     recent spans as Chrome trace JSON (default
///                           256 spans)
///   GET /profile?seconds=N  collapsed flamegraph stacks from an N-second
///                           (default 1, capped at 30) profile window
///   GET /slo                SloTracker::Evaluate as flat JSON
///   GET /queryz?top=N       fingerprint-keyed query statistics (default
///                           10 structures, by attributed operator time)
/// Endpoints whose source pointer is null answer 404 (metrics/traces/
/// profile/slo/queryz); a null ready_check makes /readyz always pass.
void RegisterTelemetryEndpoints(HttpServer* server,
                                const TelemetrySources& sources);

}  // namespace halk::net

#endif  // HALK_NET_TELEMETRY_H_

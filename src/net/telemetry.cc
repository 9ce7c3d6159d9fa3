#include "net/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "obs/journal.h"

namespace halk::net {

namespace {

constexpr const char* kTextPlain = "text/plain; charset=utf-8";
constexpr const char* kPrometheusType =
    "text/plain; version=0.0.4; charset=utf-8";
constexpr const char* kJsonType = "application/json; charset=utf-8";

int ParseIntParam(const std::string& query, const std::string& key,
                  int fallback, int lo, int hi) {
  const std::string raw = QueryParam(query, key);
  if (raw.empty()) return fallback;
  const int value = std::atoi(raw.c_str());
  return std::clamp(value, lo, hi);
}

/// The /healthz and /readyz body: `{"status":"ok"}` with 200, or
/// `{"status":"unavailable","reason":...}` with 503.
HttpResponse HealthResponse(const Status& status) {
  obs::JsonLineBuilder body;
  body.Str("status", status.ok() ? "ok" : "unavailable");
  if (!status.ok()) body.Str("reason", status.message());
  return {status.ok() ? 200 : 503, kJsonType, body.Finish() + "\n"};
}

}  // namespace

void RegisterTelemetryEndpoints(HttpServer* server,
                                const TelemetrySources& sources) {
  serving::MetricsRegistry* metrics = sources.metrics;
  obs::Tracer* tracer = sources.tracer;
  obs::Profiler* profiler = sources.profiler;
  obs::SloTracker* slo = sources.slo;
  std::function<Status()> ready_check = sources.ready_check;

  server->Handle("/metrics", [metrics](const HttpRequest&) -> HttpResponse {
    if (metrics == nullptr) {
      return {404, kTextPlain, "no metrics registry attached\n"};
    }
    return {200, kPrometheusType, metrics->DumpPrometheus()};
  });

  server->Handle("/healthz", [](const HttpRequest&) -> HttpResponse {
    return HealthResponse(Status::OK());
  });

  server->Handle("/readyz", [ready_check](const HttpRequest&) -> HttpResponse {
    return HealthResponse(ready_check == nullptr ? Status::OK()
                                                 : ready_check());
  });

  server->Handle("/traces", [tracer](const HttpRequest& request)
                                -> HttpResponse {
    if (tracer == nullptr) {
      return {404, kTextPlain, "no tracer attached\n"};
    }
    const int spans = ParseIntParam(request.query, "spans", 256, 1, 65536);
    return {200, kJsonType,
            tracer->CollectRecent(static_cast<size_t>(spans))
                .ToChromeJson()};
  });

  server->Handle("/profile", [profiler](const HttpRequest& request)
                                 -> HttpResponse {
    if (profiler == nullptr) {
      return {404, kTextPlain, "no profiler attached\n"};
    }
    // Enable + reset, sample for the requested window, restore. The cap
    // bounds how long one request can pin a server thread; concurrent
    // /profile requests share the window (Reset/Snapshot are concurrent-
    // safe, the later reset just shortens the earlier window).
    const int seconds = ParseIntParam(request.query, "seconds", 1, 1, 30);
    const bool was_enabled = profiler->enabled();
    profiler->set_enabled(true);
    profiler->Reset();
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    const obs::ProfileSnapshot snapshot = profiler->Snapshot();
    profiler->set_enabled(was_enabled);
    return {200, kTextPlain, snapshot.ToCollapsed()};
  });

  server->Handle("/slo", [slo](const HttpRequest&) -> HttpResponse {
    if (slo == nullptr) {
      return {404, kTextPlain, "no slo tracker attached\n"};
    }
    return {200, kJsonType, slo->Evaluate().ToJson() + "\n"};
  });

  std::function<std::string(size_t)> query_stats = sources.query_stats_json;
  server->Handle(
      "/queryz", [query_stats](const HttpRequest& request) -> HttpResponse {
        if (query_stats == nullptr) {
          return {404, kTextPlain, "no query stats store attached\n"};
        }
        const int top = ParseIntParam(request.query, "top", 10, 1, 1024);
        return {200, kJsonType,
                query_stats(static_cast<size_t>(top)) + "\n"};
      });
}

}  // namespace halk::net

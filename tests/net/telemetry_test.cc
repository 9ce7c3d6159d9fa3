#include "net/telemetry.h"

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/halk_model.h"
#include "kg/synthetic.h"
#include "net/http_client_for_test.h"
#include "net/http_server.h"
#include "obs/journal.h"
#include "obs/profiler.h"
#include "obs/slo_tracker.h"
#include "obs/trace.h"
#include "query/sampler.h"
#include "serving/metrics.h"
#include "serving/prometheus_grammar.h"
#include "serving/server.h"
#include "shard/slow_range_model.h"
#include "store/shard_file.h"

namespace halk::net {
namespace {

using query::StructureId;

// ------------------------------------------------------------- endpoints

TEST(TelemetryEndpointsTest, NullSourcesAnswer404ButHealthzPasses) {
  HttpServer server;
  RegisterTelemetryEndpoints(&server, TelemetrySources{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(HttpGet(server.port(), "/metrics").status, 404);
  EXPECT_EQ(HttpGet(server.port(), "/traces").status, 404);
  EXPECT_EQ(HttpGet(server.port(), "/profile").status, 404);
  EXPECT_EQ(HttpGet(server.port(), "/slo").status, 404);
  EXPECT_EQ(HttpGet(server.port(), "/queryz").status, 404);
  // Liveness needs no source, and no ready_check means ready.
  const TestHttpResponse healthz = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "{\"status\":\"ok\"}\n");
  EXPECT_EQ(HttpGet(server.port(), "/readyz").status, 200);
  server.Stop();
}

TEST(TelemetryEndpointsTest, MetricsScrapePassesGrammarWithExemplars) {
  serving::MetricsRegistry metrics;
  metrics.GetCounter("serving.completed")->Increment();
  metrics.GetGauge("serving.queue_depth")->Set(3.0);
  serving::Histogram* latency =
      metrics.GetHistogram("serving.latency_us", {10.0, 100.0});
  latency->Observe(5.0);
  latency->Observe(50.0, /*exemplar_trace_id=*/0xabcdef);
  latency->Observe(500.0, /*exemplar_trace_id=*/0x123);

  HttpServer server;
  TelemetrySources sources;
  sources.metrics = &metrics;
  RegisterTelemetryEndpoints(&server, sources);
  ASSERT_TRUE(server.Start().ok());
  const TestHttpResponse response = HttpGet(server.port(), "/metrics");
  server.Stop();

  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4; charset=utf-8");
  serving::ExpectValidPrometheusExposition(response.body);
  // The scraped bucket lines carry the trace exemplars.
  EXPECT_NE(response.body.find("# {trace_id=\"abcdef\"} 50"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("# {trace_id=\"123\"} 500"), std::string::npos);
}

TEST(TelemetryEndpointsTest, QueryzForwardsTopNToTheCallback) {
  // halk_net carries no query/plan types: /queryz is fed through the
  // callback alone, so a fake store suffices to pin the endpoint contract
  // (JSON content type, default top=10, clamped ?top= parsing).
  HttpServer server;
  TelemetrySources sources;
  std::vector<size_t> asked;
  sources.query_stats_json = [&asked](size_t top_n) {
    asked.push_back(top_n);
    return std::string("{\"queries\":[{\"top\":") +
           std::to_string(top_n) + "}]}";
  };
  RegisterTelemetryEndpoints(&server, sources);
  ASSERT_TRUE(server.Start().ok());

  const TestHttpResponse plain = HttpGet(server.port(), "/queryz");
  EXPECT_EQ(plain.status, 200);
  EXPECT_EQ(plain.content_type, "application/json; charset=utf-8");
  EXPECT_NE(plain.body.find("\"queries\":["), std::string::npos);

  EXPECT_EQ(HttpGet(server.port(), "/queryz?top=3").status, 200);
  EXPECT_EQ(HttpGet(server.port(), "/queryz?top=0").status, 200);
  EXPECT_EQ(HttpGet(server.port(), "/queryz?top=junk").status, 200);
  server.Stop();

  ASSERT_EQ(asked.size(), 4u);
  EXPECT_EQ(asked[0], 10u);  // default
  EXPECT_EQ(asked[1], 3u);
  EXPECT_EQ(asked[2], 1u);  // clamped to the [1, 1024] range
  EXPECT_EQ(asked[3], 1u);  // atoi("junk") == 0, clamped up
}

TEST(TelemetryEndpointsTest, SloEndpointReportsBurnRates) {
  obs::SloTracker slo;
  slo.RecordRequest(/*latency_us=*/120.0, /*ok=*/true);
  slo.RecordRequest(/*latency_us=*/80.0, /*ok=*/false);

  HttpServer server;
  TelemetrySources sources;
  sources.slo = &slo;
  RegisterTelemetryEndpoints(&server, sources);
  ASSERT_TRUE(server.Start().ok());
  const TestHttpResponse response = HttpGet(server.port(), "/slo");
  server.Stop();

  EXPECT_EQ(response.status, 200);
  auto parsed = obs::ParseJsonLine(
      response.body.substr(0, response.body.find('\n')));
  ASSERT_TRUE(parsed.ok()) << response.body;
  const obs::JsonValue* requests = obs::FindKey(*parsed, "requests_fast");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->number, 2.0);
  EXPECT_NE(obs::FindKey(*parsed, "latency_burn_fast"), nullptr);
  EXPECT_NE(obs::FindKey(*parsed, "error_burn_slow"), nullptr);
  EXPECT_NE(obs::FindKey(*parsed, "latency_alert"), nullptr);
}

TEST(TelemetryEndpointsTest, TracesEndpointReturnsRecentSpans) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    const obs::TraceContext trace{&tracer, tracer.StartTrace(), 0};
    obs::SpanGuard span(trace, "telemetry_test_span");
    span.End();
  }

  HttpServer server;
  TelemetrySources sources;
  sources.tracer = &tracer;
  RegisterTelemetryEndpoints(&server, sources);
  ASSERT_TRUE(server.Start().ok());
  const TestHttpResponse response = HttpGet(server.port(), "/traces?spans=8");
  server.Stop();

  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("telemetry_test_span"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("trace_id"), std::string::npos);
}

// Shard deadline misses are not outages: a 2-shard server whose requests
// run out of time after pickup answers OK, partially, or with
// kDeadlineExceeded — never kUnavailable — and /healthz over its registry
// stays 200 throughout.
TEST(TelemetryEndpointsTest, HealthzStaysOkWhenShardDeadlinesLapse) {
  kg::SyntheticKgOptions opt;
  opt.num_entities = 120;
  opt.num_relations = 5;
  opt.num_triples = 600;
  opt.seed = 13;
  kg::Dataset dataset = kg::GenerateSyntheticKg(opt);
  core::ModelConfig config;
  config.num_entities = dataset.train.num_entities();
  config.num_relations = dataset.train.num_relations();
  config.dim = 8;
  config.hidden = 16;
  config.seed = 5;
  // Shard 1 stalls for 10x the request deadline.
  constexpr std::chrono::milliseconds kDeadline{100};
  shard::SlowRangeModel model(config, 10 * kDeadline);

  serving::ServerOptions options;
  options.num_workers = 1;
  options.num_shards = 2;
  options.cache_capacity = 0;
  serving::QueryServer query_server(&model, &dataset.train, options);
  model.SlowRange(query_server.coordinator()->shard_range(1).begin);

  HttpServer server;
  TelemetrySources sources;
  sources.metrics = query_server.metrics();
  RegisterTelemetryEndpoints(&server, sources);
  ASSERT_TRUE(server.Start().ok());

  query::QuerySampler sampler(&dataset.train, 7);
  const auto queries = sampler.SampleMany(StructureId::k2i, 24).ValueOrDie();
  std::vector<std::future<Result<serving::TopKAnswer>>> burst;
  for (const auto& q : queries) {
    auto submitted = query_server.Submit(q.graph, 5, kDeadline);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    burst.push_back(std::move(*submitted));
  }
  for (auto& future : burst) {
    const Result<serving::TopKAnswer> answer = future.get();
    if (answer.ok()) {
      EXPECT_TRUE(answer->completeness.ok() ||
                  answer->completeness.code() == StatusCode::kPartialResult)
          << answer->completeness.ToString();
    } else {
      EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
          << answer.status().ToString();
    }
  }
  EXPECT_GT(query_server.metrics()->CounterValue("shard.deadline_misses"), 0);
  const TestHttpResponse after_burst = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(after_burst.status, 200);
  EXPECT_EQ(after_burst.body, "{\"status\":\"ok\"}\n");

  // Once shard 1 is fast again, the next request is exact at full coverage.
  model.Heal();
  const Result<serving::TopKAnswer> healed =
      query_server.Answer(queries[0].graph, 5);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->coverage, 1.0);
  EXPECT_EQ(HttpGet(server.port(), "/healthz").status, 200);
  server.Stop();
}

// The second acceptance scenario: /readyz additionally runs the injected
// readiness probe — here the store's checksum verification over a shard
// file whose bytes were corrupted after it was mapped lazily.
TEST(TelemetryEndpointsTest, ReadyzFlipsOnCorruptedStoreFile) {
  const std::string path = testing::TempDir() + "/telemetry_readyz.halkstore";
  {
    store::ShardFileWriter writer(path, /*dim=*/4, /*entity_begin=*/0,
                                  /*entity_end=*/64, /*rows_per_group=*/16);
    std::vector<float> row(4, 1.5f);
    for (int64_t e = 0; e < 64; ++e) {
      ASSERT_TRUE(writer.Append(row.data(), 1).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  auto serve_readyz = [&](const std::string& file) {
    store::MappedShardFile::OpenOptions lazy;
    lazy.verify_checksums = false;
    auto opened = store::MappedShardFile::Open(file, lazy);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    store::MappedShardFile* mapped = opened->get();
    HttpServer server;
    TelemetrySources sources;
    sources.ready_check = [mapped] { return mapped->VerifyChecksums(); };
    RegisterTelemetryEndpoints(&server, sources);
    EXPECT_TRUE(server.Start().ok());
    const TestHttpResponse response = HttpGet(server.port(), "/readyz");
    server.Stop();
    return response;
  };

  const TestHttpResponse ready = serve_readyz(path);
  EXPECT_EQ(ready.status, 200);

  // Flip a data byte: liveness is untouched, readiness must flip.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }
  const TestHttpResponse not_ready = serve_readyz(path);
  EXPECT_EQ(not_ready.status, 503);
  EXPECT_NE(not_ready.body.find("\"reason\""), std::string::npos)
      << not_ready.body;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace halk::net

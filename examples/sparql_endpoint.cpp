// SPARQL front-end demo (Sec. IV-F, Fig. 7): SPARQL text is compiled by
// the query Adaptor into a HaLk computation graph, then answered both by
// the exact executor and by a trained HaLk model behind the concurrent
// QueryServer — the same serving engine a production endpoint would sit
// on, with planned request chunks, answer caching, sharded ranking, and
// latency metrics.
//
//   $ ./examples/sparql_endpoint
//   $ ./examples/sparql_endpoint --checkpoint /tmp/sparql_model.bin
//   $ ./examples/sparql_endpoint --store /tmp/sparql_snapshot
//   $ ./examples/sparql_endpoint --trace-out /tmp/endpoint_trace.json
//   $ ./examples/sparql_endpoint --journal-out /tmp/train_journal.jsonl \
//                                --profile-out /tmp/endpoint_flame.txt
//   $ ./examples/sparql_endpoint --http-port 0 --serve-journal-out /tmp/s.jsonl
//
// With --checkpoint, the model is restored from the file when it exists
// (skipping training entirely — the restart path of a real endpoint) and
// trained-then-saved there when it does not. A checkpoint that exists but
// cannot be restored (corrupt, wrong model, checksum mismatch) is a fatal
// configuration error: the endpoint prints the diagnostic to stderr and
// exits nonzero rather than silently training a fresh model over it.
//
// --store is the same restart contract against a store snapshot directory
// (docs/storage.md) instead of the monolithic blob: when the directory
// holds a snapshot, the endpoint serves straight out of the mmap'd shard
// files — the entity table is never copied into RAM — and when it does
// not, the endpoint trains and writes a snapshot there. It supersedes
// --checkpoint for new deployments (`halk_store convert` migrates old
// blobs); the two flags are mutually exclusive. With
// --trace-out, the trace of the last served query is written as
// chrome://tracing JSON on exit. With --journal-out, the training loop
// appends one JSONL record per step (loss, grad norm, tape op counts) to
// the given path; with --profile-out, the global CPU profiler is enabled
// for the whole process and a collapsed-stack flamegraph is written on
// exit (feed it to flamegraph.pl or speedscope).
//
// --http-port N starts the embedded telemetry server (docs/observability.md)
// on 127.0.0.1:N — 0 binds an ephemeral port; the bound port is printed as
// "telemetry listening on 127.0.0.1:PORT" so scripts can scrape /metrics,
// /healthz, /readyz, /traces, /profile, /slo, and /queryz (fingerprint-
// keyed query statistics). --serve-journal-out appends one JSONL audit
// record per served request (fingerprint, status, latency, coverage,
// cache hit, trace id, plan shape) to the given path.
//
// After the scripted demo the endpoint drops into a line REPL on stdin
// (EOF exits immediately, so piping from /dev/null is script-safe):
// SPARQL queries are served live; dot-commands inspect the engine:
//   .metrics   plain-text metrics dump
//   .prom      Prometheus text exposition
//   .explain <sparql>   planner schedule for a query, without serving it
//   .analyze <sparql>   EXPLAIN ANALYZE: executes the plan and renders
//                       estimated vs. sampled-actual rows with q-errors
//   .queryz    fingerprint-keyed query statistics (top 10, JSON)
//   .trace     chrome://tracing JSON of the last served query
//   .slow      slow-query log (fingerprint, hits, worst latency)
//   .health    per-replica shard health
//   .profile   collapsed-stack CPU profile (needs --profile-out)
//   .quit      exit

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "halk/halk.h"
#include "net/http_server.h"
#include "net/telemetry.h"
#include "obs/process_metrics.h"
#include "obs/slo_tracker.h"
#include "store/convert.h"
#include "store/store.h"
#include "store/writer.h"

namespace {

// A small academic-domain KG with inverse edges for subject-variable
// patterns.
halk::kg::KnowledgeGraph BuildKg() {
  halk::kg::KnowledgeGraph g;
  auto both = [&g](const std::string& h, const std::string& r,
                   const std::string& t) {
    g.AddTriple(h, r, t);
    g.AddTriple(t, r + "_inv", h);
  };
  both("ACM", "awarded", "alice");
  both("ACM", "awarded", "bob");
  both("IEEE", "awarded", "carol");
  both("alice", "works_at", "MIT");
  both("bob", "works_at", "MIT");
  both("carol", "works_at", "ETH");
  both("alice", "authored", "paper_kg");
  both("alice", "authored", "paper_ml");
  both("bob", "authored", "paper_db");
  both("carol", "authored", "paper_kg");
  both("dave", "authored", "paper_sys");
  both("dave", "works_at", "MIT");
  both("paper_kg", "cites", "paper_db");
  both("paper_ml", "cites", "paper_kg");
  g.Finalize();
  return g;
}

void Run(const halk::kg::KnowledgeGraph& kg, const std::string& title,
         const std::string& sparql) {
  std::printf("\n--- %s ---\n%s\n", title.c_str(), sparql.c_str());
  auto graph = halk::sparql::CompileSparql(sparql, kg);
  if (!graph.ok()) {
    std::printf("adaptor error: %s\n", graph.status().ToString().c_str());
    return;
  }
  std::printf("computation graph: %s\n", graph->ToString().c_str());
  auto answers = halk::query::ExecuteQuery(*graph, kg);
  HALK_CHECK(answers.ok());
  std::printf("answers:");
  for (int64_t e : *answers) {
    std::printf(" %s", kg.entities().Name(e).c_str());
  }
  std::printf("\n");
}

void WriteFileOrWarn(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace halk;
  std::string checkpoint_path;
  std::string store_dir;
  std::string trace_out_path;
  std::string journal_out_path;
  std::string profile_out_path;
  std::string serve_journal_path;
  int http_port = -1;  // -1 = telemetry server off; 0 = ephemeral port
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--checkpoint") == 0) {
      checkpoint_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--store") == 0) {
      store_dir = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--trace-out") == 0) {
      trace_out_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--journal-out") == 0) {
      journal_out_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--profile-out") == 0) {
      profile_out_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--serve-journal-out") == 0) {
      serve_journal_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--http-port") == 0) {
      http_port = std::atoi(argv[i + 1]);
    }
  }
  if (!checkpoint_path.empty() && !store_dir.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint and --store are mutually exclusive "
                 "(use halk_store convert to migrate a blob to a snapshot)\n");
    return 1;
  }
  if (!profile_out_path.empty()) {
    obs::Profiler::Global().set_enabled(true);
    std::printf("CPU profiler enabled, flamegraph -> %s\n",
                profile_out_path.c_str());
  }
  kg::KnowledgeGraph kg = BuildKg();
  std::printf("academic KG: %lld entities, %lld relations, %lld triples\n",
              static_cast<long long>(kg.num_entities()),
              static_cast<long long>(kg.num_relations()),
              static_cast<long long>(kg.num_triples()));

  Run(kg, "projection + intersection (authors at MIT with an ACM award)",
      "SELECT ?a WHERE { ACM awarded ?a . ?a works_at MIT . }");

  Run(kg, "difference via MINUS (papers by award winners, minus cited ones)",
      "SELECT ?p WHERE { ACM awarded ?a . ?a authored ?p . "
      "MINUS { paper_ml cites ?p . } }");

  Run(kg, "negation via FILTER NOT EXISTS",
      "SELECT ?p WHERE { alice authored ?p . "
      "FILTER NOT EXISTS { paper_ml cites ?p . } }");

  Run(kg, "union of branches",
      "SELECT ?a WHERE { { ACM awarded ?a . } UNION { IEEE awarded ?a . } }");

  Run(kg, "multi-hop with inverse traversal (who wrote what MIT people cite)",
      "SELECT ?q WHERE { ?a works_at MIT . ?a authored ?p . ?p cites ?q }");

  // Neural execution of the first query with a briefly trained model.
  std::printf("\n--- neural execution (HaLk as the query executor) ---\n");
  Rng rng(5);
  kg::NodeGrouping grouping =
      kg::NodeGrouping::Random(kg.num_entities(), 4, &rng);
  grouping.BuildAdjacency(kg);
  core::ModelConfig config;
  config.num_entities = kg.num_entities();
  config.num_relations = kg.num_relations();
  config.dim = 8;
  config.hidden = 16;
  config.seed = 17;
  core::HalkModel model(config, &grouping);
  core::HalkModel* serving_model = &model;
  // Store-backed restore: the snapshot's shard files stay mmap'd for the
  // model's whole lifetime, so both outlive the QueryServer below.
  std::unique_ptr<store::EmbeddingStore> embedding_store;
  std::unique_ptr<core::HalkModel> store_model;
  bool restored = false;
  if (!store_dir.empty()) {
    auto opened = store::EmbeddingStore::Open(store_dir, {});
    if (opened.ok()) {
      embedding_store = std::move(*opened);
      auto served = store::OpenServingModel(*embedding_store, &grouping);
      if (!served.ok()) {
        std::fprintf(stderr, "error: cannot serve snapshot %s: %s\n",
                     store_dir.c_str(), served.status().ToString().c_str());
        return 1;
      }
      store_model = std::move(*served);
      serving_model = store_model.get();
      std::printf("serving out of store snapshot %s (%lld entities mapped, "
                  "not loaded), skipping training\n",
                  store_dir.c_str(),
                  static_cast<long long>(embedding_store->num_entities()));
      restored = true;
    } else if (opened.status().code() == StatusCode::kIOError) {
      // No manifest yet (first run): train and snapshot below.
      std::printf("no snapshot at %s (%s), training from scratch\n",
                  store_dir.c_str(), opened.status().ToString().c_str());
    } else {
      // A manifest exists but the snapshot is unusable (corrupt shard
      // file, checksum mismatch, bad manifest). Same contract as a bad
      // --checkpoint: refuse rather than overwrite.
      std::fprintf(stderr,
                   "error: cannot open snapshot %s: %s\n"
                   "(delete the directory or point --store elsewhere to "
                   "train from scratch)\n",
                   store_dir.c_str(), opened.status().ToString().c_str());
      return 1;
    }
  }
  if (!checkpoint_path.empty()) {
    const Status loaded = core::LoadCheckpoint(&model, checkpoint_path);
    if (loaded.ok()) {
      std::printf("restored model from %s, skipping training\n",
                  checkpoint_path.c_str());
      restored = true;
    } else if (loaded.code() == StatusCode::kIOError) {
      // The file is absent (first run): train and save below.
      std::printf("no checkpoint at %s (%s), training from scratch\n",
                  checkpoint_path.c_str(), loaded.ToString().c_str());
    } else {
      // The file exists but is not a usable checkpoint (bad magic,
      // truncation, checksum/config mismatch). Overwriting it with a
      // freshly trained model would destroy whatever it was — refuse.
      std::fprintf(stderr,
                   "error: cannot restore checkpoint %s: %s\n"
                   "(delete the file or point --checkpoint elsewhere to "
                   "train from scratch)\n",
                   checkpoint_path.c_str(), loaded.ToString().c_str());
      return 1;
    }
  }
  if (!restored) {
    core::TrainerOptions topt;
    topt.steps = 300;
    topt.batch_size = 8;
    topt.num_negatives = 6;
    topt.learning_rate = 1e-2f;
    topt.queries_per_structure = 40;
    topt.structures = {query::StructureId::k1p, query::StructureId::k2p,
                       query::StructureId::k2i};
    std::unique_ptr<obs::TrainJournal> journal;
    if (!journal_out_path.empty()) {
      auto opened = obs::TrainJournal::Open(journal_out_path);
      if (opened.ok()) {
        journal = std::move(*opened);
        topt.journal = journal.get();
      } else {
        std::printf("cannot open journal %s: %s\n", journal_out_path.c_str(),
                    opened.status().ToString().c_str());
      }
    }
    core::Trainer trainer(&model, &kg, &grouping, topt);
    HALK_CHECK(trainer.Train().ok());
    if (journal != nullptr) {
      std::printf("training journal: %lld records -> %s\n",
                  static_cast<long long>(journal->records_written()),
                  journal_out_path.c_str());
    }
    if (!checkpoint_path.empty()) {
      const Status saved = core::SaveCheckpoint(model, checkpoint_path);
      if (saved.ok()) {
        std::printf("saved model to %s\n", checkpoint_path.c_str());
      } else {
        std::printf("could not save checkpoint: %s\n",
                    saved.ToString().c_str());
      }
    }
    if (!store_dir.empty()) {
      const Status saved =
          store::WriteModelSnapshot(model, store_dir, /*num_shards=*/2);
      if (saved.ok()) {
        std::printf("wrote store snapshot to %s\n", store_dir.c_str());
      } else {
        std::printf("could not write snapshot: %s\n",
                    saved.ToString().c_str());
      }
    }
  }

  // Serve SPARQL traffic through the QueryServer: compiled queries are
  // submitted from the "frontend" thread and answered by worker threads,
  // with repeated queries short-circuited by the answer cache and ranking
  // scattered over two entity-table shards.
  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::SloTracker slo{obs::SloOptions{}};
  std::unique_ptr<obs::ServeJournal> serve_journal;
  if (!serve_journal_path.empty()) {
    auto opened = obs::ServeJournal::Open(serve_journal_path);
    if (opened.ok()) {
      serve_journal = std::move(*opened);
      std::printf("serving journal -> %s\n", serve_journal_path.c_str());
    } else {
      std::printf("cannot open serving journal %s: %s\n",
                  serve_journal_path.c_str(),
                  opened.status().ToString().c_str());
    }
  }
  serving::ServerOptions sopt;
  sopt.num_workers = 2;
  sopt.max_batch_size = 8;
  sopt.num_shards = 2;
  sopt.tracer = &tracer;
  sopt.slo = &slo;
  sopt.serve_journal = serve_journal.get();
  // A tiny threshold so the demo's slow-query log has entries to show.
  sopt.slow_query_threshold = std::chrono::microseconds(1);
  serving::QueryServer server(serving_model, &kg, sopt);
  slo.RegisterMetrics(server.metrics());
  obs::RegisterProcessMetrics(server.metrics());
  uint64_t last_trace_id = 0;

  // Embedded telemetry plane: /metrics, /healthz, /readyz, /traces,
  // /profile, /slo on loopback. Readiness additionally re-verifies the
  // store snapshot's checksums when serving out of one.
  net::HttpServer http_server{[&] {
    net::HttpServer::Options hopt;
    hopt.port = http_port < 0 ? 0 : http_port;
    return hopt;
  }()};
  if (http_port >= 0) {
    net::TelemetrySources sources;
    sources.metrics = server.metrics();
    sources.tracer = &tracer;
    sources.profiler = &obs::Profiler::Global();
    sources.slo = &slo;
    if (embedding_store != nullptr) {
      store::EmbeddingStore* store_ptr = embedding_store.get();
      sources.ready_check = [store_ptr] {
        return store_ptr->VerifyChecksums();
      };
    }
    if (server.query_stats() != nullptr) {
      obs::QueryStatsStore* stats = server.query_stats();
      sources.query_stats_json = [stats](size_t top_n) {
        return stats->ToJson(top_n);
      };
    }
    net::RegisterTelemetryEndpoints(&http_server, sources);
    const Status started = http_server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "error: cannot start telemetry server: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    // Scripts parse this line to find the ephemeral port.
    std::printf("telemetry listening on 127.0.0.1:%d\n", http_server.port());
    std::fflush(stdout);
  }

  auto serve = [&](const std::string& sparql) {
    auto graph = sparql::CompileSparql(sparql, kg);
    if (!graph.ok()) {
      std::printf("adaptor error: %s\n", graph.status().ToString().c_str());
      return;
    }
    auto answer = server.Answer(*graph, 3);
    if (!answer.ok()) {
      std::printf("serving error: %s\n", answer.status().ToString().c_str());
      return;
    }
    if (answer->trace_id != 0) last_trace_id = answer->trace_id;
    std::printf("top-3%s:", answer->from_cache ? " (cached)" : "");
    for (int64_t e : answer->entities) {
      std::printf(" %s", kg.entities().Name(e).c_str());
    }
    std::printf("   <- %s\n", sparql.c_str());
  };

  const std::vector<std::string> traffic = {
      "SELECT ?a WHERE { ACM awarded ?a . ?a works_at MIT . }",
      "SELECT ?p WHERE { alice authored ?p . }",
      // Repeats below exercise the canonical-fingerprint cache.
      "SELECT ?a WHERE { ACM awarded ?a . ?a works_at MIT . }",
      "SELECT ?p WHERE { alice authored ?p . }",
      "SELECT ?a WHERE { ACM awarded ?a . ?a works_at MIT . }",
  };
  for (const std::string& sparql : traffic) serve(sparql);
  std::printf("\n--- serving metrics ---\n%s", server.DumpMetrics().c_str());

  // Interactive endpoint: SPARQL per line, dot-commands for inspection.
  // fgets returns null at EOF, so non-interactive runs fall straight
  // through.
  std::printf("\n--- interactive endpoint (SPARQL per line; .metrics .prom "
              ".explain <sparql> .analyze <sparql> .queryz .trace .slow "
              ".health .profile .quit) ---\n");
  char line[4096];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    const std::string input(Trim(line));
    if (input.empty()) continue;
    if (input == ".quit") break;
    if (input == ".metrics") {
      std::printf("%s", server.DumpMetrics().c_str());
    } else if (input == ".prom") {
      std::printf("%s", server.metrics()->DumpPrometheus().c_str());
    } else if (input.rfind(".explain", 0) == 0) {
      const std::string sparql(Trim(input.substr(8)));
      if (sparql.empty()) {
        std::printf("usage: .explain SELECT ?x WHERE { ... }\n");
        continue;
      }
      auto graph = sparql::CompileSparql(sparql, kg);
      if (!graph.ok()) {
        std::printf("adaptor error: %s\n", graph.status().ToString().c_str());
        continue;
      }
      auto text = server.Explain(*graph);
      if (!text.ok()) {
        std::printf("explain error: %s\n", text.status().ToString().c_str());
        continue;
      }
      std::printf("%s", text->c_str());
    } else if (input.rfind(".analyze", 0) == 0) {
      const std::string sparql(Trim(input.substr(8)));
      if (sparql.empty()) {
        std::printf("usage: .analyze SELECT ?x WHERE { ... }\n");
        continue;
      }
      auto graph = sparql::CompileSparql(sparql, kg);
      if (!graph.ok()) {
        std::printf("adaptor error: %s\n", graph.status().ToString().c_str());
        continue;
      }
      auto text = server.ExplainAnalyze(*graph);
      if (!text.ok()) {
        std::printf("analyze error: %s\n", text.status().ToString().c_str());
        continue;
      }
      std::printf("%s", text->c_str());
    } else if (input == ".queryz") {
      if (server.query_stats() == nullptr) {
        std::printf("query stats disabled (ServerOptions::analytics off)\n");
      } else {
        std::printf("%s\n", server.query_stats()->ToJson(10).c_str());
      }
    } else if (input == ".trace") {
      if (last_trace_id == 0) {
        std::printf("no trace captured yet\n");
      } else {
        std::printf("%s\n",
                    tracer.Collect(last_trace_id).ToChromeJson().c_str());
      }
    } else if (input == ".slow") {
      const auto entries = server.slow_query_log()->Entries();
      if (entries.empty()) std::printf("slow-query log is empty\n");
      for (const auto& entry : entries) {
        std::printf(
            "fingerprint=%s hits=%lld worst_us=%.1f spans=%zu trace=%llx\n",
            entry.fingerprint.c_str(), static_cast<long long>(entry.hits),
            static_cast<double>(entry.worst_ns) / 1e3,
            entry.trace.spans().size(),
            static_cast<unsigned long long>(entry.trace_id));
      }
    } else if (input == ".profile") {
      if (!obs::Profiler::Global().enabled()) {
        std::printf("profiler disabled (run with --profile-out)\n");
        continue;
      }
      const std::string collapsed =
          obs::Profiler::Global().Snapshot().ToCollapsed();
      if (collapsed.empty()) {
        std::printf("no profile samples yet\n");
      } else {
        std::printf("%s", collapsed.c_str());
      }
    } else if (input == ".health") {
      shard::ShardCoordinator* coordinator = server.coordinator();
      if (coordinator == nullptr) {
        std::printf("unsharded server: no replicas\n");
        continue;
      }
      for (int s = 0; s < coordinator->num_shards(); ++s) {
        for (int r = 0; r < coordinator->replication(); ++r) {
          std::printf("shard=%d replica=%d health=%s tasks=%lld\n", s, r,
                      shard::ReplicaHealthName(
                          coordinator->replica_health(s, r)),
                      static_cast<long long>(
                          coordinator->replica_tasks_served(s, r)));
        }
      }
    } else {
      serve(input);
    }
  }

  if (!trace_out_path.empty() && last_trace_id != 0) {
    WriteFileOrWarn(trace_out_path,
                    tracer.Collect(last_trace_id).ToChromeJson());
  }
  if (!profile_out_path.empty()) {
    WriteFileOrWarn(profile_out_path,
                    obs::Profiler::Global().Snapshot().ToCollapsed());
  }
  return 0;
}

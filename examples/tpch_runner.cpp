// Run any TPC-H query on either engine and print the result — the repository
// as a command-line analytical database.
//
//   $ ./build/examples/tpch_runner <query 1-22> [sf=0.05] [x100|mil|both]
//   $ ./build/examples/tpch_runner 5 0.1 both
//   $ ./build/examples/tpch_runner --explain-analyze 1
//   $ ./build/examples/tpch_runner --sessions 8 6
//   $ ./build/examples/tpch_runner --metrics-out metrics.json 1
//
// --explain-analyze (or env X100_TRACE=1) prints the executed X100 plan
// annotated with per-node Next() calls, batches, tuples, cycles and — when
// the machine grants perf_event access — per-operator IPC and LLC
// misses/tuple (absent, not zero, otherwise). The traced run follows one
// untraced warm-up run of the same query.
// --sessions N additionally runs the query N times concurrently through the
// QueryService (server/query_service.h) and reports per-session latency —
// the serving path over one shared engine.
// --metrics-out <path> (or env X100_METRICS_OUT) dumps the full metrics
// registry snapshot as JSON at exit, so any run can be scraped without a
// bench harness.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/perf_counters.h"
#include "common/profiling.h"
#include "common/thread_pool.h"
#include "exec/trace.h"
#include "server/engine_cache.h"
#include "server/query_service.h"
#include "storage/print.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

using namespace x100;

int main(int argc, char** argv) {
  bool explain = false;
  if (const char* env = std::getenv("X100_TRACE")) {
    explain = *env != '\0' && std::strcmp(env, "0") != 0;
  }
  // env X100_METRICS_OUT; --metrics-out overrides.
  std::string metrics_out = EnvString("X100_METRICS_OUT", "");
  const char* pos[3] = {nullptr, nullptr, nullptr};
  const char* sessions_arg = nullptr;
  int npos = 0;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--explain-analyze") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions_arg = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (npos < 3) {
      pos[npos++] = argv[i];
    }
  }
  auto usage = [&](const char* why, const char* got) {
    std::fprintf(stderr, "%s: %s%s%s\n", argv[0], why, got ? ": " : "",
                 got ? got : "");
    std::fprintf(stderr,
                 "usage: %s [--explain-analyze] [--sessions N] "
                 "[--metrics-out <path>] "
                 "<query 1-22> [sf=0.05] [engine=x100|mil|both]\n",
                 argv[0]);
    return 2;
  };
  if (npos < 1) return usage("missing query number", nullptr);
  char* end = nullptr;
  int sessions = 1;
  if (sessions_arg != nullptr) {
    long sl = std::strtol(sessions_arg, &end, 10);
    if (end == sessions_arg || *end != '\0' || sl < 1 || sl > 256) {
      return usage("--sessions must be 1..256", sessions_arg);
    }
    sessions = static_cast<int>(sl);
  }
  long ql = std::strtol(pos[0], &end, 10);
  if (end == pos[0] || *end != '\0') {
    return usage("query is not a number", pos[0]);
  }
  if (ql < 1 || ql > kNumTpchQueries) {
    return usage("query must be 1..22", pos[0]);
  }
  int q = static_cast<int>(ql);
  double sf = 0.05;
  if (npos > 1) {
    sf = std::strtod(pos[1], &end);
    if (end == pos[1] || *end != '\0' || !(sf > 0.0)) {
      return usage("sf must be a positive number", pos[1]);
    }
  }
  const char* engine = npos > 2 ? pos[2] : "x100";
  if (std::strcmp(engine, "x100") != 0 && std::strcmp(engine, "mil") != 0 &&
      std::strcmp(engine, "both") != 0) {
    return usage("engine must be x100, mil or both", engine);
  }

  std::printf("generating TPC-H SF=%.4g ...\n", sf);
  DbgenOptions opts;
  opts.scale_factor = sf;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);

  if (std::strcmp(engine, "x100") == 0 || std::strcmp(engine, "both") == 0) {
    // Hardware counters for the traced run (absent on perf-less machines;
    // the trace then simply has no IPC/cache columns).
    ScopedPerfThread perf_thread(explain);
    QueryTrace trace;
    ExecContext ctx;
    ctx.num_threads = EnvParallelism();  // X100_THREADS
    if (explain) {
      // One untraced warm-up run first, so the traced run's shares are
      // those of a warm query (as in table4 and perfbench), not of the
      // first touch of the data.
      RunX100Query(q, &ctx, *db);
      ctx.trace = &trace;
    }
    uint64_t t0 = NowNanos();
    std::unique_ptr<Table> r = RunX100Query(q, &ctx, *db);
    double ms = (NowNanos() - t0) / 1e6;
    std::printf("\n=== Q%d on MonetDB/X100: %.1f ms, %lld rows ===\n%s", q, ms,
                static_cast<long long>(r->num_rows()),
                FormatTable(*r, 30).c_str());
    if (explain) {
      std::printf("\n=== EXPLAIN ANALYZE (Q%d) ===\n%s", q,
                  trace.ToString().c_str());
    }

    if (sessions > 1) {
      // The serving path: N concurrent sessions over the one shared catalog,
      // admission-controlled, each with its own cancellation token. Queries
      // go in as QueryRequests — the same schema a network client sends —
      // against the service's engine cache, seeded with the already
      // generated catalog. The serial run above is the latency reference.
      long long serial_rows = static_cast<long long>(r->num_rows());
      QueryService svc({/*max_concurrent=*/sessions, /*max_worker_threads=*/0});
      svc.engines()->Seed(sf, db.get());
      std::vector<std::shared_ptr<QuerySession>> live;
      uint64_t c0 = NowNanos();
      for (int i = 0; i < sessions; i++) {
        QueryRequest req;
        req.query = "q" + std::to_string(q);
        req.scale_factor = sf;
        req.num_threads = EnvParallelism();
        req.collect_trace = explain;
        req.label = "q" + std::to_string(q) + "#" + std::to_string(i);
        live.push_back(svc.Submit(req));
      }
      int mismatches = 0;
      for (auto& s : live) {
        s->Wait();
        std::unique_ptr<Table> res = s->TakeResult();
        if (res == nullptr || static_cast<long long>(res->num_rows()) !=
                                  serial_rows) {
          mismatches++;
        }
      }
      double wall_ms = (NowNanos() - c0) / 1e6;
      std::printf("\n=== Q%d x %d concurrent sessions: %.1f ms wall ===\n", q,
                  sessions, wall_ms);
      for (auto& s : live) {
        std::printf("  %-8s queue %7.2f ms  exec %8.2f ms",
                    s->label().c_str(), s->queue_nanos() / 1e6,
                    s->exec_nanos() / 1e6);
        // Driver-thread hardware counters; omitted when unavailable.
        if (s->perf().HasIpc()) {
          std::printf("  ipc %5.2f", s->perf().Ipc());
        }
        if (s->perf().Has(PerfEvent::kCacheMisses)) {
          std::printf("  llc-miss %9llu",
                      static_cast<unsigned long long>(
                          s->perf().Get(PerfEvent::kCacheMisses)));
        }
        std::printf("\n");
      }
      if (mismatches > 0) {
        std::fprintf(stderr, "error: %d session(s) disagreed with the serial "
                             "result\n", mismatches);
        return 1;
      }
      std::printf("  all %d sessions matched the serial row count\n",
                  sessions);
    }
  }
  if (std::strcmp(engine, "mil") == 0 || std::strcmp(engine, "both") == 0) {
    MilDatabase mil(*db);
    MilSession warm;
    RunMilQuery(q, &warm, &mil);  // materialize BATs outside the timing
    MilSession s;
    uint64_t t0 = NowNanos();
    std::unique_ptr<Table> r = RunMilQuery(q, &s, &mil);
    double ms = (NowNanos() - t0) / 1e6;
    std::printf("\n=== Q%d on MonetDB/MIL: %.1f ms, %lld rows ===\n%s", q, ms,
                static_cast<long long>(r->num_rows()),
                FormatTable(*r, 30).c_str());
  }
  if (!metrics_out.empty()) {
    std::string json = MetricsRegistry::Get().ToJson();
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   metrics_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "[metrics] wrote %s\n", metrics_out.c_str());
  }
  return 0;
}

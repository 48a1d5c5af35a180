// Reproduces Table 5: the X100 per-primitive trace of TPC-H Q1 — for each
// vectorized primitive the tuple count, data volume, time, bandwidth and
// cycles per tuple, plus each operator's own share of the time. The paper's
// shape: map primitives in ~2-3 cycles/tuple, fetch (enum decode) <2,
// aggregates ~6, with in-cache bandwidths far above RAM bandwidth.
//
// On machines with perf access this grows into the full Table-5-style
// evidence the paper argues from: per-primitive instructions, IPC and
// cache-misses/tuple (hardware-counter run, exported as "profiler_hw"), and
// the E15 whole-query IPC / LLC-miss-per-tuple series for Q1/Q3/Q6/Q14.
// Without perf access every counter field is absent — the timed trace below
// is byte-identical to the perf-less build of old.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "tpch/queries.h"

using namespace x100;
using namespace x100::bench;

int main() {
  double sf = ScaleFactor(0.25);
  std::unique_ptr<Catalog> db = MakeTpch(sf);
  uint64_t lineitem_rows =
      static_cast<uint64_t>(db->Find("lineitem")->num_rows());

  // Warm-up untraced run.
  {
    ExecContext ctx;
    ctx.fuse_compound_primitives = false;
    RunX100Query(1, &ctx, *db);
  }
  // The gated timed run stays perf-free: reading the counter group costs two
  // syscalls per primitive invocation, and total_ms must keep measuring the
  // same work the baseline was recorded against. Binder fusion is pinned off
  // for the same reason: this bench reproduces the paper's single-primitive
  // Table 5 trace (the fused pipeline has its own bench, fusion.cc).
  Profiler profiler;
  ExecContext ctx;
  ctx.fuse_compound_primitives = false;
  ctx.profiler = &profiler;
  uint64_t t0 = NowNanos();
  RunX100Query(1, &ctx, *db);
  double total_ms = (NowNanos() - t0) / 1e6;

  std::printf("Table 5 analogue: X100 trace of TPC-H Q1, SF=%.4g\n\n", sf);
  std::printf("%-12s %8s %10s %9s %8s  %s\n", "input count", "MB", "time(us)",
              "MB/s", "cyc/tup", "X100 primitive");
  // Primitive rows first, in pipeline order as in the paper; operator rows
  // after, each the operator's self time net of its primitives.
  for (const auto& [name, s] : profiler.Rows()) {
    bool is_operator = name.find('_') == std::string::npos;
    if (is_operator) continue;
    std::printf("%-12llu %8.1f %10.0f %9.0f %8.1f  %s\n",
                static_cast<unsigned long long>(s->tuples), s->Megabytes(),
                s->Micros(), s->Bandwidth(), s->CyclesPerTuple(), name.c_str());
  }
  std::printf("\n%-12s %10s  %s\n", "tuples", "time(us)", "X100 operator");
  for (const auto& [name, s] : profiler.Rows()) {
    bool is_operator = name.find('_') == std::string::npos;
    if (!is_operator) continue;
    std::printf("%-12llu %10.0f  %s\n",
                static_cast<unsigned long long>(s->tuples), s->Micros(),
                name.c_str());
  }
  std::printf("\ntotal elapsed: %.1f ms\n", total_ms);

  BenchExport ex("table5_x100_trace");
  ex.AddScalar("scale_factor", sf);
  ex.AddScalar("total_ms", total_ms, "ms");
  ex.AddJson("profiler", profiler.ToJson());

  // Hardware-counter run of the same Q1 trace: per-primitive instructions,
  // IPC and cache misses (cycles here include the per-vector counter reads,
  // so the rdtsc columns of this run are NOT comparable with the gated run
  // above — that is why both are exported).
  {
    ScopedPerfThread perf_thread;
    Profiler hw_profiler;
    ExecContext hw_ctx;
    hw_ctx.fuse_compound_primitives = false;
    hw_ctx.profiler = &hw_profiler;
    RunX100Query(1, &hw_ctx, *db);
    bool have_hw = false;
    for (const auto& [name, s] : hw_profiler.Rows()) have_hw |= s->perf.any();
    if (have_hw) {
      std::printf("\nhardware-counter trace (separate run):\n%s",
                  hw_profiler.ToString().c_str());
    } else {
      std::printf("\nhardware counters unavailable: per-primitive IPC and "
                  "cache-miss columns omitted\n");
    }
    ex.AddJson("profiler_hw", hw_profiler.ToJson());
  }

  // E15: whole-query IPC and LLC misses per lineitem tuple for the four
  // hand-translated plans, measured over the entire serial query (driver
  // thread only; num_threads=1 keeps all work there).
  std::printf("\nE15: whole-query counters (per lineitem tuple, %llu rows)\n",
              static_cast<unsigned long long>(lineitem_rows));
  std::printf("%-5s %8s %10s %12s %12s\n", "query", "ipc", "instr/tup",
              "llcmiss/tup", "brmiss/tup");
  for (int q : {1, 3, 6, 14}) {
    {
      ExecContext warm;
      warm.fuse_compound_primitives = false;
      RunX100Query(q, &warm, *db);
    }
    ScopedPerfThread perf_thread;
    PerfCounterValues before = ReadThreadPerfCounters();
    ExecContext qctx;
    qctx.fuse_compound_primitives = false;
    RunX100Query(q, &qctx, *db);
    PerfCounterValues d = ReadThreadPerfCounters().Since(before);
    std::string prefix = "q" + std::to_string(q);
    if (d.HasIpc()) {
      ex.AddScalar(prefix + "_ipc", d.Ipc());
      ex.AddScalar(
          prefix + "_instructions_per_tuple",
          static_cast<double>(d.Get(PerfEvent::kInstructions)) /
              static_cast<double>(lineitem_rows));
    }
    if (d.Has(PerfEvent::kCacheMisses)) {
      ex.AddScalar(
          prefix + "_llc_misses_per_tuple",
          static_cast<double>(d.Get(PerfEvent::kCacheMisses)) /
              static_cast<double>(lineitem_rows));
    }
    if (d.Has(PerfEvent::kBranchMisses)) {
      ex.AddScalar(
          prefix + "_branch_misses_per_tuple",
          static_cast<double>(d.Get(PerfEvent::kBranchMisses)) /
              static_cast<double>(lineitem_rows));
    }
    if (d.any()) {
      std::printf(
          "%-5s %8.2f %10.1f %12.4f %12.4f\n", prefix.c_str(),
          d.HasIpc() ? d.Ipc() : 0.0,
          static_cast<double>(d.Get(PerfEvent::kInstructions)) /
              static_cast<double>(lineitem_rows),
          static_cast<double>(d.Get(PerfEvent::kCacheMisses)) /
              static_cast<double>(lineitem_rows),
          static_cast<double>(d.Get(PerfEvent::kBranchMisses)) /
              static_cast<double>(lineitem_rows));
    } else {
      std::printf("%-5s counters unavailable\n", prefix.c_str());
    }
  }

  ex.Write();
  return 0;
}

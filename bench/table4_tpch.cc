// Reproduces Table 4: all 22 TPC-H queries on MonetDB/MIL vs MonetDB/X100,
// seconds per query, same in-memory database. The paper's shape: X100 beats
// MIL on essentially every query, frequently by 5-50x.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "tpch/queries.h"

using namespace x100;
using namespace x100::bench;

int main() {
  double sf = ScaleFactor(0.25);
  int reps = Reps(2);
  std::unique_ptr<Catalog> db = MakeTpch(sf);
  MilDatabase mil(*db);

  std::printf("Table 4 analogue: TPC-H SF=%.4g, seconds (in-memory, 1 CPU)\n",
              sf);
  std::printf("%3s %14s %14s %10s\n", "Q", "MonetDB/MIL", "MonetDB/X100",
              "MIL/X100");

  BenchExport ex("table4_tpch");
  ex.AddScalar("scale_factor", sf);
  double mil_total = 0, x100_total = 0;
  for (int q = 1; q <= kNumTpchQueries; q++) {
    // Warm both engines once (first MIL touch materializes its BATs).
    {
      MilSession s;
      RunMilQuery(q, &s, &mil);
      ExecContext ctx;
      ctx.num_threads = EnvParallelism();  // X100_THREADS
      RunX100Query(q, &ctx, *db);
    }
    RepSet mil_r = MeasureReps(reps, [&] {
      MilSession s;
      RunMilQuery(q, &s, &mil);
    });
    RepSet x100_r = MeasureReps(reps, [&] {
      ExecContext ctx;
      ctx.num_threads = EnvParallelism();  // X100_THREADS
      RunX100Query(q, &ctx, *db);
    });
    double mil_s = mil_r.Best(), x100_s = x100_r.Best();
    mil_total += mil_s;
    x100_total += x100_s;
    ex.AddReps("q" + std::to_string(q) + "_mil", mil_r);
    ex.AddReps("q" + std::to_string(q) + "_x100", x100_r);
    // Machine-independent ledger entry: both engines ran on the same host.
    ex.AddScalar("q" + std::to_string(q) + "_mil_over_x100", mil_s / x100_s,
                 "x");
    std::printf("%3d %14.4f %14.4f %9.1fx\n", q, mil_s, x100_s, mil_s / x100_s);
  }
  std::printf("%3s %14.4f %14.4f %9.1fx\n", "sum", mil_total, x100_total,
              mil_total / x100_total);
  std::printf("\n(MIL BAT storage resident: %.1f MB)\n",
              mil.resident_bytes() / 1e6);
  ex.AddScalar("mil_total", mil_total, "s");
  ex.AddScalar("x100_total", x100_total, "s");
  ex.Write();
  return 0;
}

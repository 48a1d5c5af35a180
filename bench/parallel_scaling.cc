// Xchg scaling: Q1 and Q6 (scan-bound queries with Exchange-parallel plans) at
// 1/2/4 workers over the same in-memory database. The paper's conclusion
// (§6) names Volcano-style Xchg parallelism as the route to scaling X100;
// this bench records how far the morsel-parallel scan + partial-aggregation
// pipeline gets on one machine. Results are checked equal across worker
// counts before timing.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "tpch/queries.h"

using namespace x100;
using namespace x100::bench;

namespace {

bool ResultsMatch(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); r++) {
    for (int c = 0; c < a.num_columns(); c++) {
      Value va = a.GetValue(r, c), vb = b.GetValue(r, c);
      if (va.type() == TypeId::kF64) {
        double x = va.AsF64(), y = vb.AsF64();
        double tol = 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
        if (std::fabs(x - y) > tol) return false;
      } else if (va.ToString() != vb.ToString()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  double sf = ScaleFactor(0.5);
  int reps = Reps(3);
  std::unique_ptr<Catalog> db = MakeTpch(sf);

  std::printf("Xchg scaling: TPC-H SF=%.4g, seconds (best of %d)\n", sf, reps);
  std::printf("%3s %10s %10s %10s %10s %10s\n", "Q", "serial", "2 wrk",
              "4 wrk", "spd@2", "spd@4");

  int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores <= 1) {
    std::printf("NOTE: 1 hardware thread available — expect ~1.0x "
                "(the bench still verifies result equality)\n");
  }
  BenchExport ex("parallel_scaling");
  ex.AddScalar("scale_factor", sf);
  ex.AddScalar("hardware_concurrency", cores);
  const int kThreads[] = {1, 2, 4};
  for (int q : {1, 6}) {
    double best[3] = {0, 0, 0};
    std::unique_ptr<Table> reference;
    for (int i = 0; i < 3; i++) {
      int threads = kThreads[i];
      {  // warm + verify against the serial result
        ExecContext ctx;
        ctx.num_threads = threads;
        std::unique_ptr<Table> r = RunX100Query(q, &ctx, *db);
        if (reference == nullptr) {
          reference = std::move(r);
        } else if (!ResultsMatch(*reference, *r)) {
          std::fprintf(stderr, "Q%d: %d-worker result differs from serial\n",
                       q, threads);
          return 1;
        }
      }
      RepSet r = MeasureReps(reps, [&] {
        ExecContext ctx;
        ctx.num_threads = threads;
        RunX100Query(q, &ctx, *db);
      });
      best[i] = r.Best();
      ex.AddReps("q" + std::to_string(q) + "_threads" +
                     std::to_string(threads),
                 r);
    }
    ex.AddScalar("q" + std::to_string(q) + "_speedup_2", best[0] / best[1],
                 "x");
    ex.AddScalar("q" + std::to_string(q) + "_speedup_4", best[0] / best[2],
                 "x");
    std::printf("%3d %10.4f %10.4f %10.4f %9.2fx %9.2fx\n", q, best[0],
                best[1], best[2], best[0] / best[1], best[0] / best[2]);
  }
  ex.Write();
  return 0;
}

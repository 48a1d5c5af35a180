// Reproduces Figure 2: the selection micro-benchmark
//     SELECT oid FROM table WHERE col < X
// with X swept over [0,100] on uniform data, comparing the "branch" select
// primitive (data-dependent IF, registered as `..._branch` for this figure)
// against the "predicated" one (boolean cursor arithmetic) that the engine
// binds under the paper-style name. The paper's shape: the branch variant
// peaks around 50% selectivity from mispredictions; the predicated variant is
// flat. Exports branch_vs_pred_sel50, the branch/predicated time ratio at 50%.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "primitives/primitive.h"

using namespace x100;
using namespace x100::bench;

int main() {
  constexpr int kN = 1 << 20;  // 1M tuples per run
  int reps = Reps(5);
  std::vector<int32_t> data(kN);
  Rng rng(1234);
  for (int i = 0; i < kN; i++) data[i] = static_cast<int32_t>(rng.Uniform(0, 99));
  std::vector<int> out(kN);

  const SelectPrimitive* branch =
      PrimitiveRegistry::Get().FindSelect("select_lt_i32_col_i32_val_branch");
  const SelectPrimitive* pred =
      PrimitiveRegistry::Get().FindSelect("select_lt_i32_col_i32_val");

  std::printf("Figure 2 analogue: select_lt on 1M uniform [0,100) tuples\n");
  std::printf("%12s %14s %14s\n", "selectivity%", "branch (ms)", "predicated (ms)");
  BenchExport ex("fig2_predication");
  double branch_at_50 = 0, branch_at_0 = 0, pred_at_50 = 0, pred_sum = 0;
  int pred_n = 0;
  for (int x = 0; x <= 100; x += 10) {
    int32_t v = x;
    const void* args[2] = {data.data(), &v};
    volatile int sink = 0;
    RepSet rb = MeasureReps(reps, [&] { sink = branch->fn(kN, out.data(), args, nullptr); });
    RepSet rp = MeasureReps(reps, [&] { sink = pred->fn(kN, out.data(), args, nullptr); });
    (void)sink;
    double tb = rb.Best(), tp = rp.Best();
    ex.AddReps("branch_sel" + std::to_string(x), rb);
    ex.AddReps("pred_sel" + std::to_string(x), rp);
    std::printf("%12d %14.3f %14.3f\n", x, tb * 1e3, tp * 1e3);
    if (x == 50) {
      branch_at_50 = tb;
      pred_at_50 = tp;
    }
    if (x == 0) branch_at_0 = tb;
    pred_sum += tp;
    pred_n++;
  }
  std::printf("\nbranch 50%% vs 0%% selectivity: %.2fx  (paper: worst-case at "
              "~50%% from mispredictions)\n",
              branch_at_50 / branch_at_0);
  std::printf("predicated mean: %.3f ms, selectivity-independent\n",
              pred_sum / pred_n * 1e3);
  std::printf("branch vs predicated at 50%%: %.2fx\n",
              branch_at_50 / pred_at_50);
  ex.AddScalar("branch_50_vs_0", branch_at_50 / branch_at_0, "x");
  ex.AddScalar("branch_vs_pred_sel50", branch_at_50 / pred_at_50, "x");
  ex.Write();
  return 0;
}

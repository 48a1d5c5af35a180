// Ablation for the §4.2 claim that compound primitives (whole expression
// sub-trees compiled into one loop) run ~2x faster than chains of
// single-function primitives, because intermediates stay in registers
// instead of passing through load/stores. Measured on the paper's own
// example (the Mahalanobis distance) and on Q1's (1-discount)*price; the
// compound side is the generated fused-chain kernel (primitives/fused_gen.h)
// the binder binds for each shape.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "primitives/primitive.h"
#include "tpch/queries.h"

using namespace x100;
using namespace x100::bench;

namespace {

struct Cols {
  std::vector<double> a, b, c, t1, t2, out;
  explicit Cols(int n) : a(n), b(n), c(n), t1(n), t2(n), out(n) {
    Rng rng(7);
    for (int i = 0; i < n; i++) {
      a[i] = rng.NextDouble() * 100;
      b[i] = rng.NextDouble() * 100;
      c[i] = rng.NextDouble() * 9 + 1;
    }
  }
};

}  // namespace

int main() {
  constexpr int kVec = 1024;   // one cache-resident vector
  constexpr int kVecs = 4096;  // total 4M tuples per measurement
  int reps = Reps(5);
  Cols cols(kVec);
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();

  auto run_chained_mahal = [&] {
    const MapPrimitive* sub = r.FindMap("map_sub_f64_col_f64_col");
    const MapPrimitive* sq = r.FindMap("map_square_f64_col");
    const MapPrimitive* div = r.FindMap("map_div_f64_col_f64_col");
    for (int v = 0; v < kVecs; v++) {
      const void* a1[2] = {cols.a.data(), cols.b.data()};
      sub->fn(kVec, cols.t1.data(), a1, nullptr);
      const void* a2[1] = {cols.t1.data()};
      sq->fn(kVec, cols.t2.data(), a2, nullptr);
      const void* a3[2] = {cols.t2.data(), cols.c.data()};
      div->fn(kVec, cols.out.data(), a3, nullptr);
    }
  };
  auto run_fused_mahal = [&] {
    const MapPrimitive* m = r.FindMap("map_fused_sub_cc_square_p_div_pc_f64");
    for (int v = 0; v < kVecs; v++) {
      const void* args[3] = {cols.a.data(), cols.b.data(), cols.c.data()};
      m->fn(kVec, cols.out.data(), args, nullptr);
    }
  };
  auto run_chained_submul = [&] {
    const MapPrimitive* sub = r.FindMap("map_sub_f64_val_f64_col");
    const MapPrimitive* mul = r.FindMap("map_mul_f64_col_f64_col");
    double one = 1.0;
    for (int v = 0; v < kVecs; v++) {
      const void* a1[2] = {&one, cols.a.data()};
      sub->fn(kVec, cols.t1.data(), a1, nullptr);
      const void* a2[2] = {cols.t1.data(), cols.b.data()};
      mul->fn(kVec, cols.out.data(), a2, nullptr);
    }
  };
  auto run_fused_submul = [&] {
    const MapPrimitive* m = r.FindMap("map_fused_sub_vc_mul_pc_f64");
    double one = 1.0;
    for (int v = 0; v < kVecs; v++) {
      const void* args[3] = {&one, cols.a.data(), cols.b.data()};
      m->fn(kVec, cols.out.data(), args, nullptr);
    }
  };

  std::printf("Compound-primitive ablation (4M tuples, vectors of %d)\n\n", kVec);
  std::printf("%-34s %10s %12s\n", "expression", "ms", "vs chained");
  BenchExport ex("ablation_compound");
  RepSet rc1 = MeasureReps(reps, run_chained_mahal);
  RepSet rf1 = MeasureReps(reps, run_fused_mahal);
  ex.AddReps("mahalanobis_chained", rc1);
  ex.AddReps("mahalanobis_compound", rf1);
  double c1 = rc1.Best() * 1e3, f1 = rf1.Best() * 1e3;
  std::printf("%-34s %10.2f %12s\n", "mahalanobis: sub,square,div chain", c1, "1.00x");
  std::printf("%-34s %10.2f %11.2fx\n", "mahalanobis: compound", f1, c1 / f1);
  RepSet rc2 = MeasureReps(reps, run_chained_submul);
  RepSet rf2 = MeasureReps(reps, run_fused_submul);
  ex.AddReps("submul_chained", rc2);
  ex.AddReps("submul_compound", rf2);
  double c2 = rc2.Best() * 1e3, f2 = rf2.Best() * 1e3;
  std::printf("%-34s %10.2f %12s\n", "(1-d)*p: sub,mul chain", c2, "1.00x");
  std::printf("%-34s %10.2f %11.2fx\n", "(1-d)*p: compound", f2, c2 / f2);
  std::printf("\n(paper §4.2: compound primitives often perform twice as fast)\n");

  // End to end: TPC-H Q1 with the binder's compound fusion on vs off.
  std::unique_ptr<Catalog> db = MakeTpch(ScaleFactor(0.25));
  ExecContext plain;
  plain.fuse_compound_primitives = false;
  ExecContext fused;
  fused.fuse_compound_primitives = true;
  RunX100Query(1, &plain, *db);  // warm-up
  RepSet rp = MeasureReps(reps, [&] { RunX100Query(1, &plain, *db); });
  RepSet rf = MeasureReps(reps, [&] { RunX100Query(1, &fused, *db); });
  ex.AddReps("q1_single_primitives", rp);
  ex.AddReps("q1_binder_fusion", rf);
  double t_plain = rp.Best() * 1e3, t_fused = rf.Best() * 1e3;
  std::printf("\nTPC-H Q1 end-to-end: %.1f ms single primitives, %.1f ms with "
              "binder fusion (%.2fx)\n",
              t_plain, t_fused, t_plain / t_fused);
  ex.Write();
  return 0;
}

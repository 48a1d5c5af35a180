// Reproduces Table 1: "TPC-H Query 1 Experiments" — the same query on four
// execution architectures sharing one data set:
//   * tuple-at-a-time Volcano interpreter  (the MySQL / DBMS "X" stand-in)
//   * MonetDB/MIL column-at-a-time          (full materialization)
//   * MonetDB/X100                          (vectorized, this paper)
//   * hard-coded C UDF                      (Figure 4 upper bound)
// The paper's shape: tuple-at-a-time is 1-2 orders of magnitude slower than
// X100; X100 lands within ~2x of hard-coded; MIL sits in between.

#include <cstdio>

#include "bench/bench_util.h"
#include "tpch/queries.h"
#include "tuple/row_store.h"

using namespace x100;
using namespace x100::bench;

int main() {
  double sf = ScaleFactor(0.1);
  int reps = Reps(3);
  std::unique_ptr<Catalog> db = MakeTpch(sf);
  MilDatabase mil(*db);
  mil.Warm("lineitem", {"l_shipdate", "l_returnflag", "l_linestatus",
                        "l_extendedprice", "l_discount", "l_tax", "l_quantity"});

  std::printf("Table 1 analogue: TPC-H Query 1, SF=%.4g (in-memory, 1 CPU)\n", sf);
  std::printf("%-28s %12s %16s\n", "system", "sec", "sec/(SF), norm");

  BenchExport ex("table1_q1_systems");
  ex.AddScalar("scale_factor", sf);
  double base = 0;
  auto report = [&](const char* name, const char* key, const RepSet& r) {
    if (base == 0) base = r.Best();
    std::printf("%-28s %12.4f %16.2f\n", name, r.Best(), r.Best() / base);
    ex.AddReps(key, r);
    return r.Best();
  };

  // Tuple-at-a-time (NSM records, Item interpreter).
  {
    std::unique_ptr<RowStore> store = MakeTupleQ1Store(*db);
    TupleProfile prof;  // timing off: pure run
    report("tuple-at-a-time (MySQL-ish)", "tuple_at_a_time",
           MeasureReps(reps, [&] { RunTupleQ1(*store, &prof); }));
  }
  // MonetDB/MIL.
  {
    MilSession s;
    report("MonetDB/MIL", "mil",
           MeasureReps(reps, [&] { RunMilQuery(1, &s, &mil); }));
  }
  // MonetDB/X100.
  double x100 = 0;
  {
    ExecContext ctx;
    x100 = report("MonetDB/X100", "x100",
                  MeasureReps(reps, [&] { RunX100Query(1, &ctx, *db); }));
  }
  // Hard-coded UDF (Figure 4).
  double hardcoded = report("hard-coded", "hardcoded",
                            MeasureReps(reps, [&] { RunHardcodedQ1(&mil); }));
  // The paper's gap (0.50 s / 0.22 s = 2.3x at SF=1): both bests come from
  // this one process, so the ratio does not depend on the host's speed.
  ex.AddScalar("x100_over_hardcoded", x100 / hardcoded);
  std::printf("\nX100 / hard-coded: %.2fx\n", x100 / hardcoded);

  std::printf("\n(normalized column: 1.00 = tuple-at-a-time; the paper reports"
              "\n ~26s MySQL vs 3.7s MIL vs 0.50s X100 vs 0.22s hard-coded at SF=1)\n");
  ex.Write();
  return 0;
}

// Data mining on the query engine — the paper's §4 goal of extending X100
// "to other application domains like data mining" with the same vectorized
// efficiency. One k-means iteration is nothing but relational algebra:
//
//   assign:  CartProd(points, centroids) -> distance Project ->
//            per-point min-distance (Aggr) -> join back = assignment
//   update:  Aggr(points by cluster) -> mean Project = new centroids
//
// Every arithmetic step runs through the vectorized map primitives.
//
//   $ ./build/examples/kmeans_clustering

#include <cstdio>

#include "common/rng.h"
#include "exec/plan.h"
#include "storage/catalog.h"
#include "storage/print.h"

using namespace x100;
using namespace x100::exprs;

namespace {

template <typename... Ts>
std::vector<NamedExpr> NE(Ts&&... ts) {
  std::vector<NamedExpr> v;
  (v.push_back(std::move(ts)), ...);
  return v;
}
template <typename... Ts>
std::vector<AggrSpec> AG(Ts&&... ts) {
  std::vector<AggrSpec> v;
  (v.push_back(std::move(ts)), ...);
  return v;
}

/// One Lloyd iteration: returns the new centroid table and prints inertia.
std::unique_ptr<Table> Iterate(ExecContext* ctx, const Table& points,
                               const Table& centroids) {
  // distance(point, centroid) for every pair.
  auto pairs =
      plan::CartProd(ctx, plan::Scan(ctx, points, {"pid", "x", "y"}),
                     plan::Scan(ctx, centroids, {"cid", "cx", "cy"}),
                     {"pid", "x", "y"}, {"cid", "cx", "cy"});
  pairs = plan::Project(
      ctx, std::move(pairs),
      NE(Pass("pid"), Pass("cid"), Pass("x"), Pass("y"),
         As("d", Add(Square(Sub(Col("x"), Col("cx"))),
                     Square(Sub(Col("y"), Col("cy")))))));
  std::unique_ptr<Table> dist = RunPlan(std::move(pairs), "dist");

  // Nearest centroid per point: min distance, then join back on (pid, d).
  auto best = plan::Aggr(ctx, plan::Scan(ctx, *dist, {"pid", "d"}),
                         {"pid"}, AG(Min("dmin", Col("d"))));
  auto assign =
      plan::Join(ctx, plan::Scan(ctx, *dist, {"pid", "cid", "x", "y", "d"}),
                 std::move(best),
                 {.probe_keys = {"pid", "d"},
                  .build_keys = {"pid", "dmin"},
                  .probe_out = {"pid", "cid", "x", "y", "d"}});
  // Ties (equidistant centroids) would duplicate a point; keep the first.
  auto dedup = plan::Aggr(ctx, std::move(assign), {"pid"},
                          AG(Min("cid", Col("cid")), Min("x", Col("x")),
                             Min("y", Col("y")), Min("d", Col("d"))));
  std::unique_ptr<Table> assigned = RunPlan(std::move(dedup), "assigned");

  // New centroids = per-cluster means; inertia = sum of distances.
  auto upd = plan::Aggr(
      ctx, plan::Scan(ctx, *assigned, {"cid", "x", "y", "d"}), {"cid"},
      AG(Sum("sx", Col("x")), Sum("sy", Col("y")), CountAll("n"),
         Sum("inertia", Col("d"))));
  upd = plan::Project(
      ctx, std::move(upd),
      NE(Pass("cid"), As("cx", Div(Col("sx"), Call1("dbl", Col("n")))),
         As("cy", Div(Col("sy"), Call1("dbl", Col("n")))), Pass("n"),
         Pass("inertia")));
  upd = plan::Order(ctx, std::move(upd), {Asc("cid")});
  std::unique_ptr<Table> next = RunPlan(std::move(upd), "centroids");

  double inertia = 0;
  for (int64_t r = 0; r < next->num_rows(); r++) {
    inertia += next->GetValue(r, 4).AsF64();
  }
  std::printf("  inertia = %.1f\n", inertia);
  return next;
}

}  // namespace

int main() {
  // Three gaussian-ish blobs of points.
  Catalog catalog;
  Table* points = catalog.AddTable("points", {{"pid", TypeId::kI32, false},
                                              {"x", TypeId::kF64, false},
                                              {"y", TypeId::kF64, false}});
  Rng rng(99);
  const double blobs[3][2] = {{0, 0}, {10, 2}, {5, 9}};
  for (int i = 0; i < 30000; i++) {
    const double* b = blobs[i % 3];
    double jx = (rng.NextDouble() + rng.NextDouble() - 1.0) * 2.0;
    double jy = (rng.NextDouble() + rng.NextDouble() - 1.0) * 2.0;
    points->AppendRow(
        {Value::I32(i), Value::F64(b[0] + jx), Value::F64(b[1] + jy)});
  }
  points->Freeze();

  // Rough initial centroids (k-means drops a cluster if a centroid starts
  // so far out that it captures no points).
  auto centroids = std::make_unique<Table>(
      "centroids", std::vector<Table::ColumnSpec>{{"cid", TypeId::kI32, false},
                                                  {"cx", TypeId::kF64, false},
                                                  {"cy", TypeId::kF64, false}});
  centroids->AppendRow({Value::I32(0), Value::F64(1), Value::F64(-1)});
  centroids->AppendRow({Value::I32(1), Value::F64(8), Value::F64(1)});
  centroids->AppendRow({Value::I32(2), Value::F64(4), Value::F64(6)});
  centroids->Freeze();

  ExecContext ctx;
  std::printf("k-means on %lld points, k=3, 6 iterations:\n",
              static_cast<long long>(points->num_rows()));
  std::unique_ptr<Table> current = std::move(centroids);
  for (int it = 0; it < 6; it++) {
    std::printf("iteration %d:\n", it + 1);
    std::unique_ptr<Table> next = Iterate(&ctx, *points, *current);
    // Re-shape to the (cid, cx, cy) input schema for the next round.
    ExecContext c2;
    auto proj = plan::Project(
        &c2, plan::Scan(&c2, *next, {"cid", "cx", "cy"}),
        NE(Pass("cid"), Pass("cx"), Pass("cy")));
    current = RunPlan(std::move(proj), "centroids");
  }
  std::printf("\nfinal centroids (true blob centers: (0,0) (10,2) (5,9)):\n%s",
              FormatTable(*current).c_str());
  return 0;
}

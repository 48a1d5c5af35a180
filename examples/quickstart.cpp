// Quickstart: build a small table, run a vectorized select-project-aggregate
// pipeline through the public X100 API, and print the result.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "exec/plan.h"
#include "storage/catalog.h"

using namespace x100;
using namespace x100::exprs;

int main() {
  // 1. Create a table of orders: (city [enum-compressed], amount, discount).
  Catalog catalog;
  Table* sales = catalog.AddTable(
      "sales", {{"city", TypeId::kStr, /*enum_encoded=*/true},
                {"amount", TypeId::kF64, false},
                {"discount", TypeId::kF64, false}});
  const char* cities[4] = {"amsterdam", "berlin", "paris", "rome"};
  for (int i = 0; i < 100000; i++) {
    sales->AppendRow({Value::Str(cities[i % 4]),
                      Value::F64(10.0 + (i % 97)),
                      Value::F64((i % 10) / 100.0)});
  }
  sales->Freeze();

  // 2. Build an X100 algebra plan:
  //      Aggr(
  //        Project(
  //          Select(Scan(sales), amount > 50),
  //          [city, net = amount * (1 - discount)]),
  //        [city], [total = sum(net), n = count()])
  ExecContext ctx;  // vector size 1024, the paper's sweet spot
  auto plan = plan::Scan(&ctx, *sales, {"city", "amount", "discount"});
  plan = plan::Select(&ctx, std::move(plan), Gt(Col("amount"), LitF64(50.0)));
  plan = plan::Project(
      &ctx, std::move(plan),
      [] {
        std::vector<NamedExpr> e;
        e.push_back(Pass("city"));
        e.push_back(As("net", Mul(Col("amount"),
                                  Sub(LitF64(1.0), Col("discount")))));
        return e;
      }());
  {
    std::vector<AggrSpec> aggrs;
    aggrs.push_back(Sum("total", Col("net")));
    aggrs.push_back(CountAll("n"));
    plan = plan::Aggr(&ctx, std::move(plan), {"city"}, std::move(aggrs));
  }
  plan = plan::Order(&ctx, std::move(plan), {Asc("city")});

  // 3. Run it and print.
  std::unique_ptr<Table> result = RunPlan(std::move(plan), "result");
  std::printf("%-12s %14s %8s\n", "city", "total", "n");
  for (int64_t r = 0; r < result->num_rows(); r++) {
    std::printf("%-12s %14.2f %8lld\n", result->GetValue(r, 0).AsStr().c_str(),
                result->GetValue(r, 1).AsF64(),
                static_cast<long long>(result->GetValue(r, 2).AsI64()));
  }
  return 0;
}

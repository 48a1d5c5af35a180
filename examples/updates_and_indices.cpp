// Demonstrates the §4.3 storage design: immutable vertical fragments with
// delta-based updates (deletion list + uncompressed-code insert deltas),
// summary indices for range pruning on clustered columns, and enumeration
// compression with automatic decode — all visible through ordinary queries.
//
//   $ ./build/examples/updates_and_indices

#include <cstdio>

#include "common/date.h"
#include "exec/plan.h"
#include "storage/catalog.h"

using namespace x100;
using namespace x100::exprs;

namespace {

double TotalAmount(ExecContext* ctx, const Table& t, const char* lo,
                   const char* hi) {
  auto plan = plan::Scan(
      ctx, t,
      {.cols = {"day", "amount"},
       .range = ScanSpec::Range{"day", double(ParseDate(lo)),
                                double(ParseDate(hi))}});
  plan = plan::Select(ctx, std::move(plan),
                      And(Ge(Col("day"), LitDate(lo)),
                          Le(Col("day"), LitDate(hi))));
  std::vector<AggrSpec> aggrs;
  aggrs.push_back(Sum("total", Col("amount")));
  aggrs.push_back(CountAll("n"));
  plan = plan::Aggr(ctx, std::move(plan), {}, std::move(aggrs));
  std::unique_ptr<Table> r = RunPlan(std::move(plan), "total");
  std::printf("  [%s .. %s]  total=%.2f over %lld rows\n", lo, hi,
              r->GetValue(0, 0).AsF64(),
              static_cast<long long>(r->GetValue(0, 1).AsI64()));
  return r->GetValue(0, 0).AsF64();
}

}  // namespace

int main() {
  Catalog catalog;
  // An event log clustered on date, with an enum-compressed category.
  Table* events = catalog.AddTable(
      "events", {{"day", TypeId::kDate, false},
                 {"category", TypeId::kStr, /*enum_encoded=*/true},
                 {"amount", TypeId::kF64, false}});
  const char* cats[3] = {"ads", "sales", "support"};
  int32_t day0 = ParseDate("2004-01-01");
  for (int i = 0; i < 300000; i++) {
    events->AppendRow({Value::Date(day0 + i / 1000),  // clustered: ~1000/day
                       Value::Str(cats[i % 3]), Value::F64(1.0 + i % 7)});
  }
  events->Freeze();
  events->BuildSummaryIndex("day");

  ExecContext ctx;
  std::printf("after bulk load (%lld rows):\n",
              static_cast<long long>(events->num_rows()));
  double before = TotalAmount(&ctx, *events, "2004-02-01", "2004-02-07");

  // Updates go to delta structures; the fragments stay immutable (Figure 8).
  std::printf("\ndeleting rows 0..999, inserting 500 new February rows...\n");
  for (int64_t r = 0; r < 1000; r++) X100_CHECK_OK(events->Delete(r));
  for (int i = 0; i < 500; i++) {
    events->Insert({Value::Date(ParseDate("2004-02-03")), Value::Str("sales"),
                    Value::F64(100.0)});
  }
  std::printf("fragment rows: %lld, delta rows: %lld, deleted: %lld\n",
              static_cast<long long>(events->fragment_rows()),
              static_cast<long long>(events->delta_rows()),
              static_cast<long long>(events->num_deleted()));
  double after = TotalAmount(&ctx, *events, "2004-02-01", "2004-02-07");
  std::printf("  delta visible through scans: +%.2f\n", after - before);

  // An Update is delete + re-insert.
  X100_CHECK_OK(events->Update(5000, "amount", Value::F64(9999.0)));
  TotalAmount(&ctx, *events, "2004-01-01", "2004-12-31");

  // Reorganize folds deltas back into fresh immutable fragments and rebuilds
  // the summary index.
  std::printf("\nreorganizing...\n");
  events->Reorganize();
  std::printf("fragment rows: %lld, delta rows: %lld, deleted: %lld\n",
              static_cast<long long>(events->fragment_rows()),
              static_cast<long long>(events->delta_rows()),
              static_cast<long long>(events->num_deleted()));
  TotalAmount(&ctx, *events, "2004-01-01", "2004-12-31");
  return 0;
}

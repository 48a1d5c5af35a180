// Integration tests: all 22 TPC-H queries run on both engines and must agree;
// Q1/Q6 additionally check against the hard-coded and tuple-at-a-time
// baselines. This is the repository's correctness oracle (DESIGN.md).

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/date.h"
#include "common/rng.h"
#include "exec/operator.h"
#include "exec/plan.h"
#include "exec/trace.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/queries_x100_internal.h"
#include "tuple/row_store.h"

namespace x100 {
namespace {

using testing::ExpectTablesEqual;

class TpchQueryTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    DbgenOptions opts;
    opts.scale_factor = 0.01;
    db_ = GenerateTpch(opts).release();
    mil_ = new MilDatabase(*db_);
  }

  static Catalog* db_;
  static MilDatabase* mil_;
};

Catalog* TpchQueryTest::db_ = nullptr;
MilDatabase* TpchQueryTest::mil_ = nullptr;

TEST_P(TpchQueryTest, X100MatchesMil) {
  int q = GetParam();
  ExecContext ctx;
  std::unique_ptr<Table> x100 = RunX100Query(q, &ctx, *db_);
  MilSession session;
  std::unique_ptr<Table> mil = RunMilQuery(q, &session, mil_);
  ASSERT_GT(x100->num_rows() + 1, 0);
  ExpectTablesEqual(*x100, *mil, 1e-8);
}

TEST_P(TpchQueryTest, VectorSizeInvariance) {
  // The paper sweeps vector size from 1 to 4M (Figure 10); results must not
  // depend on it. Check a few sizes on every query.
  int q = GetParam();
  ExecContext ref_ctx;
  std::unique_ptr<Table> ref = RunX100Query(q, &ref_ctx, *db_);
  for (int vs : {1, 7, 64, 4096}) {
    ExecContext ctx;
    ctx.vector_size = vs;
    std::unique_ptr<Table> got = RunX100Query(q, &ctx, *db_);
    ExpectTablesEqual(*ref, *got, 1e-8);
  }
}

TEST_P(TpchQueryTest, CompoundFusionSameResult) {
  int q = GetParam();
  ExecContext a;
  a.fuse_compound_primitives = false;
  ExecContext b;
  b.fuse_compound_primitives = true;
  std::unique_ptr<Table> ra = RunX100Query(q, &a, *db_);
  std::unique_ptr<Table> rb = RunX100Query(q, &b, *db_);
  // Fused kernels reorder no operations; results must be bit-identical.
  ExpectTablesEqual(*ra, *rb, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryTest,
                         ::testing::Range(1, kNumTpchQueries + 1));

TEST(TpchBaselines, HardcodedQ1MatchesX100) {
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  MilDatabase mil(*db);
  ExecContext ctx;
  std::unique_ptr<Table> x100 = RunX100Query(1, &ctx, *db);
  std::unique_ptr<Table> hard = RunHardcodedQ1(&mil);
  ExpectTablesEqual(*x100, *hard, 1e-8);
}

TEST(TpchBaselines, TupleQ1MatchesX100) {
  DbgenOptions opts;
  opts.scale_factor = 0.005;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  ExecContext ctx;
  std::unique_ptr<Table> x100 = RunX100Query(1, &ctx, *db);
  TupleProfile prof;
  std::unique_ptr<RowStore> store = MakeTupleQ1Store(*db);
  std::unique_ptr<Table> tup = RunTupleQ1(*store, &prof);
  ExpectTablesEqual(*x100, *tup, 1e-8);
  // The profile must show the real work dwarfed by interpretation overhead.
  EXPECT_GT(prof.rec_get_nth_field.calls, store->num_rows());
}

TEST(TpchBaselines, TupleQ6MatchesX100) {
  DbgenOptions opts;
  opts.scale_factor = 0.005;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  ExecContext ctx;
  std::unique_ptr<Table> x100 = RunX100Query(6, &ctx, *db);
  TupleProfile prof;
  std::unique_ptr<RowStore> store = MakeTupleQ6Store(*db);
  std::unique_ptr<Table> tup = RunTupleQ6(*store, &prof);
  ExpectTablesEqual(*x100, *tup, 1e-8);
}

TEST(TpchUpdates, QueriesSeeDeltasAndDeletes) {
  // §4.3 end to end: delete, insert and update lineitem rows, then run Q1 and
  // Q6 on both engines — scans must merge the delta columns, skip the
  // deletion list, and still agree across engines.
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  opts.build_join_indices = false;  // Q1/Q6 need none; deltas invalidate them
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  Table& li = db->Get("lineitem");

  ExecContext ctx;
  std::unique_ptr<Table> q1_before = RunX100Query(1, &ctx, *db);
  double count_before =
      static_cast<double>(q1_before->GetValue(0, 9).AsI64());

  Rng rng(5);
  for (int i = 0; i < 500; i++) {
    // Duplicate deletes of the same row id return an error; ignore them.
    (void)li.Delete(rng.Uniform(0, li.fragment_rows() - 1));
  }
  for (int i = 0; i < 300; i++) {
    li.Insert({Value::I32(1), Value::I32(1), Value::I32(1), Value::I32(9),
               Value::F64(10), Value::F64(1000.0), Value::F64(0.05),
               Value::F64(0.02), Value::I8('A'), Value::I8('F'),
               Value::Date(ParseDate("1994-06-01")),
               Value::Date(ParseDate("1994-06-15")),
               Value::Date(ParseDate("1994-06-20")), Value::Str("NONE"),
               Value::Str("MAIL"), Value::Str("delta row")});
  }
  (void)li.Update(li.fragment_rows() / 2, "l_quantity", Value::F64(33));

  std::unique_ptr<Table> q1_x100 = RunX100Query(1, &ctx, *db);
  MilDatabase mil(*db);  // BATs materialized after the updates
  MilSession s;
  std::unique_ptr<Table> q1_mil = RunMilQuery(1, &s, &mil);
  ExpectTablesEqual(*q1_x100, *q1_mil, 1e-8);

  std::unique_ptr<Table> q6_x100 = RunX100Query(6, &ctx, *db);
  std::unique_ptr<Table> q6_mil = RunMilQuery(6, &s, &mil);
  ExpectTablesEqual(*q6_x100, *q6_mil, 1e-8);

  // The A/F group must have grown by the 300 inserted rows minus deletions.
  double count_after = 0;
  for (int64_t r = 0; r < q1_x100->num_rows(); r++) {
    count_after += static_cast<double>(q1_x100->GetValue(r, 9).AsI64());
  }
  EXPECT_NE(count_after, count_before);

  // Reorganize folds everything back; queries still agree.
  li.Reorganize();
  std::unique_ptr<Table> q1_reorg = RunX100Query(1, &ctx, *db);
  ExpectTablesEqual(*q1_x100, *q1_reorg, 1e-8);
}

TEST(TpchFetchNJoin, OrdersRangeFetchMatchesHashJoin) {
  // lineitem is clustered with orders, so o_l_start/o_l_count address each
  // order's lines as a dense #rowId range — FetchNJoin (§4.1.2) must produce
  // exactly the rows a hash join on the key produces.
  DbgenOptions opts;
  opts.scale_factor = 0.005;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  ExecContext ctx;
  using namespace x100::exprs;

  auto ord = [&] {
    auto op = plan::Scan(&ctx, db->Get("orders"),
                         {"o_orderkey", "o_orderdate", "o_l_start",
                          "o_l_count"});
    return plan::Select(&ctx, std::move(op),
                        Lt(Col("o_orderdate"), LitDate("1992-03-01")));
  };
  plan::OpPtr fetchn = std::make_unique<FetchNJoinOp>(
      &ctx, ord(), db->Get("lineitem"), "o_l_start", "o_l_count",
      std::vector<std::pair<std::string, std::string>>{
          {"l_orderkey", "l_orderkey"}, {"l_extendedprice", "l_extendedprice"}});
  std::unique_ptr<Table> via_range = RunPlan(
      plan::Order(&ctx, std::move(fetchn),
                  {Asc("o_orderkey"), Asc("l_extendedprice")}),
      "range");

  auto hash = plan::Join(
      &ctx,
      plan::Scan(&ctx, db->Get("lineitem"), {"l_orderkey", "l_extendedprice"}),
      ord(),
      {.probe_keys = {"l_orderkey"},
       .build_keys = {"o_orderkey"},
       .probe_out = {"l_orderkey", "l_extendedprice"},
       .build_out = {"o_orderkey", "o_orderdate"}});
  std::unique_ptr<Table> via_hash = RunPlan(
      plan::Order(&ctx, std::move(hash),
                  {Asc("o_orderkey"), Asc("l_extendedprice")}),
      "hash");

  ASSERT_GT(via_range->num_rows(), 0);
  ASSERT_EQ(via_range->num_rows(), via_hash->num_rows());
  for (int64_t r = 0; r < via_range->num_rows(); r++) {
    // FetchNJoin emits fetched l_orderkey; it must match the driving order.
    EXPECT_EQ(via_range->GetValue(r, 0).AsI64(),
              via_range->GetValue(r, 4).AsI64());
    EXPECT_EQ(via_range->GetValue(r, 5).AsF64(),
              via_hash->GetValue(r, 1).AsF64());
  }
}

TEST(TpchPlans, Q9PartFirstFilterBitIdenticalToLineitemSideFilter) {
  // Q9 filters p_name on part and semi-joins lineitem against the survivors.
  // The plan it replaced fetched p_name into every lineitem row and filtered
  // there; both feed Aggr in lineitem scan order, so the sums must agree
  // exactly.
  DbgenOptions opts;
  opts.scale_factor = 0.02;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  ExecContext ctx;
  using namespace x100::exprs;
  const std::string ji_part = Table::JoinIndexName("part");
  const std::string ji_supp = Table::JoinIndexName("supplier");
  const std::string ji_ord = Table::JoinIndexName("orders");
  const std::string ji_ps = Table::JoinIndexName("partsupp");

  auto li = plan::Scan(&ctx, db->Get("lineitem"),
                       {"l_quantity", "l_extendedprice", "l_discount", ji_part,
                        ji_supp, ji_ord, ji_ps});
  li = plan::Fetch1Join(&ctx, std::move(li), db->Get("part"), ji_part,
                        {{"p_name", "p_name"}});
  li = plan::Select(&ctx, std::move(li), Like(Col("p_name"), "%green%"));
  li = plan::Fetch1Join(&ctx, std::move(li), db->Get("supplier"), ji_supp,
                        {{Table::JoinIndexName("nation"), "ji_sn"}});
  li = plan::Fetch1Join(&ctx, std::move(li), db->Get("nation"), "ji_sn",
                        {{"n_name", "nation"}});
  li = plan::Fetch1Join(&ctx, std::move(li), db->Get("orders"), ji_ord,
                        {{"o_orderdate", "o_orderdate"}});
  li = plan::Fetch1Join(&ctx, std::move(li), db->Get("partsupp"), ji_ps,
                        {{"ps_supplycost", "ps_supplycost"}});
  std::vector<NamedExpr> proj;
  proj.push_back(Pass("nation"));
  proj.push_back(As("o_year", Call1("year", Col("o_orderdate"))));
  proj.push_back(As(
      "amount",
      Sub(Mul(Sub(LitF64(1.0), Col("l_discount")), Col("l_extendedprice")),
          Mul(Col("ps_supplycost"), Col("l_quantity")))));
  li = plan::Project(&ctx, std::move(li), std::move(proj));
  std::vector<AggrSpec> aggrs;
  aggrs.push_back(Sum("sum_profit", Col("amount")));
  li = plan::Aggr(&ctx, std::move(li), {"nation", "o_year"},
                  std::move(aggrs));
  li = plan::Order(&ctx, std::move(li), {Asc("nation"), Desc("o_year")});
  std::unique_ptr<Table> lineitem_side = RunPlan(std::move(li), "q9_old");

  std::unique_ptr<Table> part_first = RunX100Query(9, &ctx, *db);
  ASSERT_GT(part_first->num_rows(), 0);
  ExpectTablesEqual(*part_first, *lineitem_side, 0.0);
}

// Labels of every node under the trace root named `plan`.
std::vector<std::string> PlanLabels(const QueryTrace& trace,
                                    const std::string& plan) {
  std::vector<std::string> labels;
  for (const TraceNode* root : trace.roots()) {
    if (root->plan_name != plan) continue;
    std::vector<const TraceNode*> stack = {root};
    while (!stack.empty()) {
      const TraceNode* n = stack.back();
      stack.pop_back();
      labels.push_back(n->label);
      for (const TraceNode* c : n->children) stack.push_back(c);
    }
  }
  return labels;
}

bool Has(const std::vector<std::string>& v, const std::string& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// Which aggregation ran the per-order sub-plans of Q18 and Q21.
void ExpectPerOrderAggr(ExecContext ctx, const Catalog& db,
                        const std::string& expected) {
  const std::string other = expected == "OrdAggr" ? "Aggr" : "OrdAggr";
  QueryTrace trace;
  ctx.trace = &trace;
  RunX100Query(18, &ctx, db);
  RunX100Query(21, &ctx, db);
  for (const char* plan : {"q18_big", "q21_multi", "q21_single"}) {
    std::vector<std::string> labels = PlanLabels(trace, plan);
    ASSERT_FALSE(labels.empty()) << plan;
    EXPECT_TRUE(Has(labels, expected)) << plan << "\n" << trace.ToString();
    EXPECT_FALSE(Has(labels, other)) << plan << "\n" << trace.ToString();
  }
}

void ExpectQ18Q21MatchMil(const Catalog& db) {
  MilDatabase mil(db);  // BATs materialized after the appends
  for (int q : {18, 21}) {
    ExecContext ctx;
    std::unique_ptr<Table> x100 = RunX100Query(q, &ctx, db);
    MilSession s;
    std::unique_ptr<Table> m = RunMilQuery(q, &s, &mil);
    SCOPED_TRACE("Q" + std::to_string(q));
    ExpectTablesEqual(*x100, *m, 1e-8);
  }
}

// Copies lineitem row `r` as a list of insertable values, join-index
// columns included (neither engine's Q18/Q21 reads lineitem's).
std::vector<Value> LineitemRow(const Table& li, int64_t r) {
  std::vector<Value> row;
  for (int c = 0; c < li.num_columns(); c++) {
    row.push_back(li.GetValue(r, c));
  }
  return row;
}

TEST(TpchUpdates, PerOrderQueriesMatchMilAfterOutOfOrderAppend) {
  // A second line for order 29 lands in the delta, far from the order's
  // fragment lines: lineitem is no longer clustered on l_orderkey, so the
  // per-order aggregations must not split order 29 into two groups.
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  Table& li = db->Get("lineitem");
  const int ok = li.ColumnIndex("l_orderkey");
  const int qty = li.ColumnIndex("l_quantity");
  int64_t first = -1;
  double sum_qty = 0;
  for (int64_t r = 0; r < li.num_rows(); r++) {
    if (li.GetValue(r, ok).AsI64() != 29) continue;
    if (first < 0) first = r;
    sum_qty += li.GetValue(r, qty).AsF64();
  }
  ASSERT_GE(first, 0);
  ASSERT_LE(sum_qty, 300.0);  // order 29 is not in Q18's answer yet
  std::vector<Value> row = LineitemRow(li, first);
  row[qty] = Value::F64(50);
  li.Insert(row);

  ExpectQ18Q21MatchMil(*db);
  ExecContext ctx;
  std::unique_ptr<Table> q18 = RunX100Query(18, &ctx, *db);
  bool found = false;
  for (int64_t r = 0; r < q18->num_rows(); r++) {
    if (q18->GetValue(r, q18->ColumnIndex("o_orderkey")).AsI64() != 29) {
      continue;
    }
    found = true;
    EXPECT_EQ(q18->GetValue(r, q18->ColumnIndex("sum_qty")).AsF64(),
              sum_qty + 50);
  }
  EXPECT_EQ(found, sum_qty + 50 > 300.0);
  ExpectPerOrderAggr(ExecContext(), *db, "Aggr");
}

TEST(TpchUpdates, PerOrderQueriesMatchMilAfterAppendAboveMaxKey) {
  // A new order above every existing key keeps lineitem clustered: the
  // per-order aggregations stay ordered and still see the new lines. The
  // order is built to qualify for both queries: 7 x 50 units (Q18's
  // threshold is 300), status F, two suppliers, and only the Saudi one late.
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  Table& orders = db->Get("orders");
  Table& li = db->Get("lineitem");
  const int ok = li.ColumnIndex("l_orderkey");
  const int64_t last = li.num_rows() - 1;
  const int32_t new_key = static_cast<int32_t>(orders.num_rows() + 1);
  ASSERT_EQ(li.GetValue(last, ok).AsI64() + 1, new_key);

  const Table& supplier = db->Get("supplier");
  const Table& nation = db->Get("nation");
  int32_t saudi = -1;
  for (int64_t r = 0; r < supplier.num_rows() && saudi < 0; r++) {
    int64_t n = supplier.GetValue(
        r, supplier.ColumnIndex(Table::JoinIndexName("nation"))).AsI64();
    if (nation.GetValue(n, nation.ColumnIndex("n_name")).AsStr() ==
        "SAUDI ARABIA") {
      saudi = static_cast<int32_t>(
          supplier.GetValue(r, supplier.ColumnIndex("s_suppkey")).AsI64());
    }
  }
  ASSERT_GT(saudi, 0);

  std::vector<Value> order;
  for (int c = 0; c < orders.num_columns(); c++) {
    order.push_back(orders.GetValue(orders.num_rows() - 1, c));
  }
  order[orders.ColumnIndex("o_orderkey")] = Value::I32(new_key);
  order[orders.ColumnIndex("o_orderstatus")] = Value::I8('F');
  orders.Insert(order);

  const int commit = li.ColumnIndex("l_commitdate");
  const int receipt = li.ColumnIndex("l_receiptdate");
  for (int i = 0; i < 7; i++) {
    std::vector<Value> row = LineitemRow(li, last);
    row[ok] = Value::I32(new_key);
    row[li.ColumnIndex("l_quantity")] = Value::F64(50);
    row[li.ColumnIndex("l_suppkey")] = Value::I32(i == 0 ? saudi : saudi % 10 + 1);
    int32_t c = static_cast<int32_t>(row[commit].AsI64());
    row[receipt] = Value::Date(i == 0 ? c + 5 : c - 1);
    li.Insert(row);
  }

  ExpectQ18Q21MatchMil(*db);
  ExecContext ctx;
  std::unique_ptr<Table> q18 = RunX100Query(18, &ctx, *db);
  bool found = false;
  for (int64_t r = 0; r < q18->num_rows(); r++) {
    found |= q18->GetValue(r, q18->ColumnIndex("o_orderkey")).AsI64() == new_key;
  }
  EXPECT_TRUE(found);
  ExpectPerOrderAggr(ExecContext(), *db, "OrdAggr");
}

TEST(TpchPlans, PerOrderSubPlansRunOnOrderedAggregation) {
  // dbgen data is clustered on l_orderkey: a silent fallback to Aggr
  // (the clustering check failing) must fail here, not just run slower.
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  ExpectPerOrderAggr(ExecContext(), *db, "OrdAggr");
  ExecContext small;
  small.vector_size = 7;
  ExpectPerOrderAggr(small, *db, "OrdAggr");
}

TEST(TpchPlans, Q21MinMaxPlanBitIdenticalToDistinctCountPlan) {
  // The plan Q21 replaced: distinct (l_orderkey, l_suppkey) pairs, then a
  // count per order, each through Aggr. Min/max per order must select
  // exactly the same orders, in the same order.
  DbgenOptions opts;
  opts.scale_factor = 0.02;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  ExecContext ctx;
  using namespace x100::exprs;
  using tpch_x100::AG;
  using tpch_x100::NE;
  const Table& lineitem = db->Get("lineitem");

  auto distinct_count = [&](plan::OpPtr pairs, const char* cnt) {
    pairs = plan::Aggr(&ctx, std::move(pairs), {"l_orderkey", "l_suppkey"},
                       {});
    return plan::Aggr(&ctx, std::move(pairs), {"l_orderkey"},
                      AG(CountAll(cnt)));
  };
  auto multi = distinct_count(
      plan::Scan(&ctx, lineitem, {"l_orderkey", "l_suppkey"}), "nsupp");
  multi = plan::Select(&ctx, std::move(multi), Ge(Col("nsupp"), LitI64(2)));
  std::unique_ptr<Table> multi_old = RunPlan(
      plan::Project(&ctx, std::move(multi), NE(Pass("l_orderkey"))), "multi");

  auto late = plan::Scan(&ctx, lineitem,
                         {"l_orderkey", "l_suppkey", "l_commitdate",
                          "l_receiptdate"});
  late = plan::Select(&ctx, std::move(late),
                      Gt(Col("l_receiptdate"), Col("l_commitdate")));
  std::unique_ptr<Table> latet = RunPlan(
      plan::Project(&ctx, std::move(late),
                    NE(Pass("l_orderkey"), Pass("l_suppkey"))),
      "late");
  auto single = distinct_count(
      plan::Scan(&ctx, *latet, {"l_orderkey", "l_suppkey"}), "nlate");
  single = plan::Select(&ctx, std::move(single), Eq(Col("nlate"), LitI64(1)));
  std::unique_ptr<Table> single_old = RunPlan(
      plan::Project(&ctx, std::move(single), NE(Pass("l_orderkey"))),
      "single");

  std::unique_ptr<Table> multi_new =
      tpch_x100::Q21MultiSupplierOrders(&ctx, *db);
  std::unique_ptr<Table> single_new =
      tpch_x100::Q21SingleSupplierOrders(&ctx, *latet);
  ASSERT_GT(multi_new->num_rows(), 0);
  ASSERT_GT(single_new->num_rows(), 0);
  ExpectTablesEqual(*multi_old, *multi_new, 0.0);
  ExpectTablesEqual(*single_old, *single_new, 0.0);

  auto saudi = plan::Scan(&ctx, db->Get("supplier"),
                          {"s_suppkey", "s_name",
                           Table::JoinIndexName("nation")});
  saudi = plan::Fetch1Join(&ctx, std::move(saudi), db->Get("nation"),
                           Table::JoinIndexName("nation"),
                           {{"n_name", "n_name"}});
  saudi = plan::Select(&ctx, std::move(saudi),
                       Eq(Col("n_name"), LitStr("SAUDI ARABIA")));
  std::unique_ptr<Table> saudit = RunPlan(
      plan::Project(&ctx, std::move(saudi),
                    NE(Pass("s_suppkey"), Pass("s_name"))),
      "saudi");
  auto fo = plan::Scan(&ctx, db->Get("orders"), {"o_orderkey", "o_orderstatus"});
  fo = plan::Select(&ctx, std::move(fo), Eq(Col("o_orderstatus"), LitChar('F')));
  fo = plan::Project(&ctx, std::move(fo), NE(Pass("o_orderkey")));
  auto l1 = plan::Join(&ctx, plan::Scan(&ctx, *latet, {"l_orderkey", "l_suppkey"}),
                       plan::Scan(&ctx, *saudit, {"s_suppkey", "s_name"}),
                       {.probe_keys = {"l_suppkey"},
                        .build_keys = {"s_suppkey"},
                        .probe_out = {"l_orderkey"},
                        .build_out = {"s_name"}});
  l1 = plan::SemiJoin(&ctx, std::move(l1), std::move(fo),
                      {.probe_keys = {"l_orderkey"},
                       .build_keys = {"o_orderkey"},
                       .probe_out = {"l_orderkey", "s_name"}});
  l1 = plan::SemiJoin(&ctx, std::move(l1),
                      plan::Scan(&ctx, *multi_old, {"l_orderkey"}),
                      {.probe_keys = {"l_orderkey"},
                       .build_keys = {"l_orderkey"},
                       .probe_out = {"l_orderkey", "s_name"}});
  l1 = plan::SemiJoin(&ctx, std::move(l1),
                      plan::Scan(&ctx, *single_old, {"l_orderkey"}),
                      {.probe_keys = {"l_orderkey"},
                       .build_keys = {"l_orderkey"},
                       .probe_out = {"s_name"}});
  l1 = plan::Aggr(&ctx, std::move(l1), {"s_name"},
                  AG(CountAll("numwait")));
  l1 = plan::TopN(&ctx, std::move(l1), {Desc("numwait"), Asc("s_name")}, 100);
  std::unique_ptr<Table> old_q21 = RunPlan(std::move(l1), "q21_old");

  std::unique_ptr<Table> new_q21 = RunX100Query(21, &ctx, *db);
  ASSERT_GT(new_q21->num_rows(), 0);
  ExpectTablesEqual(*old_q21, *new_q21, 0.0);
}

TEST(TpchTrace, MilQ1TraceHasTwentyStatements) {
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  MilDatabase mil(*db);
  MilSession session;
  session.trace = true;
  RunMilQuery(1, &session, &mil);
  // Table 3 lists 20 MIL statements; ours adds the avg and sort epilogue.
  EXPECT_GE(session.stmts.size(), 20u);
  double mb = 0;
  for (const MilStmt& s : session.stmts) mb += s.megabytes;
  EXPECT_GT(mb, 0.0);
}

TEST(TpchTrace, X100Q1TraceShowsVectorizedPrimitives) {
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  for (bool fuse : {false, true}) {
    SCOPED_TRACE(fuse ? "fused" : "interpreted");
    Profiler profiler;
    ExecContext ctx;
    ctx.fuse_compound_primitives = fuse;
    ctx.profiler = &profiler;
    RunX100Query(1, &ctx, *db);
    bool saw_fetch = false, saw_select = false, saw_sum = false;
    bool saw_rows = false;
    for (const auto& [name, stats] : profiler.Rows()) {
      if (name.find("map_fetch_") == 0) saw_fetch = true;
      if (name.find("select_le_i32") == 0) saw_select = true;
      if (name.find("aggr_sum_f64") == 0 && stats->tuples > 0) saw_sum = true;
      if (name == "aggr_rows" && stats->tuples > 0) saw_rows = true;
    }
    EXPECT_TRUE(saw_fetch);   // automatic enum-decode Fetch1Joins (Table 5)
    EXPECT_TRUE(saw_select);  // the shipdate select primitive
    // Direct aggregation: one typed primitive per aggregate (Table 5), or
    // with fusion on one row pass over all six of them.
    EXPECT_EQ(saw_sum, !fuse);
    EXPECT_EQ(saw_rows, fuse);
  }
}

// Primitive rows (lower-case names) of a Profiler, in row order.
std::vector<std::pair<std::string, uint64_t>> PrimitiveRows(const Profiler& p) {
  std::vector<std::pair<std::string, uint64_t>> rows;
  for (const auto& [name, s] : p.Rows()) {
    if (name[0] >= 'a' && name[0] <= 'z') rows.emplace_back(name, s->tuples);
  }
  return rows;
}

TEST(TpchTrace, X100Q1ProfilerRowsFollowThePipeline) {
  // Table 5's order: the select, then the maps feeding the aggregates, the
  // group ids, the updates, and the top Project's maps. Construction-time
  // binds leave no rows, so none of them comes first.
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  Profiler profiler;
  ExecContext ctx;
  ctx.fuse_compound_primitives = false;
  ctx.profiler = &profiler;
  RunX100Query(1, &ctx, *db);
  std::vector<std::pair<std::string, uint64_t>> want = {
      {"select_le_i32_col_i32_val", 60142},
      {"map_fetch_f64_col_u8_col", 177945},
      {"map_sub_f64_val_f64_col", 59315},
      {"map_mul_f64_col_f64_col", 118630},
      {"map_add_f64_val_f64_col", 59315},
      {"map_directgrp_i8_col_i8_col", 61366},
      {"aggr_sum_f64_col", 296575},
      {"aggr_count", 59315},
      {"map_cast_f64_i64_col", 4},
      {"map_div_f64_col_f64_col", 12}};
  EXPECT_EQ(PrimitiveRows(profiler), want);
  // Operator rows follow, one per label, and count output tuples.
  std::vector<std::string> ops;
  for (const auto& [name, s] : profiler.Rows()) {
    if (name[0] >= 'A' && name[0] <= 'Z') ops.push_back(name);
  }
  EXPECT_EQ(ops, (std::vector<std::string>{"Scan", "Select", "Aggr",
                                           "Project", "Order"}));
}

TEST(TpchTrace, X100Q21ProfilerRowsPartitionTheTrace) {
  // Every operator has a row, OrdAggr included, and the rows split the
  // traced cycles: primitive rows plus operator self rows sum to the roots'
  // inclusive cycles (self cycles clamp at 0, so allow 1%).
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  Profiler profiler;
  ExecContext ctx;
  ctx.profiler = &profiler;
  RunX100Query(21, &ctx, *db);
  bool saw_ord = false;
  double rows = 0;
  for (const auto& [name, s] : profiler.Rows()) {
    saw_ord |= name == "OrdAggr" && s->tuples > 0;
    rows += static_cast<double>(s->cycles);
  }
  EXPECT_TRUE(saw_ord);
  double roots = 0;
  for (const TraceNode* r : profiler.tree()->roots()) {
    roots += static_cast<double>(r->cycles);
  }
  ASSERT_GT(roots, 0.0);
  EXPECT_NEAR(rows / roots, 1.0, 0.01);
}

TEST(TpchTrace, X100Q6ProfilerRowsMatchAcrossThreadCounts) {
  // Exchange workers trace into trees of their own, merged node-wise under
  // the Exchange: the primitive rows equal the serial plan's, plus the merge
  // Aggr's updates over one partial row per worker.
  DbgenOptions opts;
  opts.scale_factor = 0.01;
  std::unique_ptr<Catalog> db = GenerateTpch(opts);
  auto profile = [&](int threads, Profiler* p) {
    ExecContext ctx;
    ctx.num_threads = threads;
    ctx.profiler = p;
    RunX100Query(6, &ctx, *db);
  };
  Profiler serial, parallel;
  profile(1, &serial);
  profile(2, &parallel);
  // Leaves of the merge Aggr: the node whose children include the Exchange.
  std::map<std::string, uint64_t> merge_tuples;
  std::vector<const TraceNode*> stack(parallel.tree()->roots().begin(),
                                      parallel.tree()->roots().end());
  while (!stack.empty()) {
    const TraceNode* n = stack.back();
    stack.pop_back();
    bool above_exchange = false;
    for (const TraceNode* c : n->children) {
      above_exchange |= c->label == "Exchange";
      stack.push_back(c);
    }
    if (!above_exchange) continue;
    for (const TraceNode* c : n->children) {
      if (c->primitive) merge_tuples[c->label] += c->tuples;
    }
  }
  ASSERT_FALSE(merge_tuples.empty());
  std::vector<std::pair<std::string, uint64_t>> want = PrimitiveRows(serial);
  for (auto& [name, tuples] : want) tuples += merge_tuples[name];
  EXPECT_EQ(PrimitiveRows(parallel), want);
}

}  // namespace
}  // namespace x100

// Integration tests: all 22 TPC-H queries run on both engines and must agree;
// Q1/Q6 additionally check against the hard-coded and tuple-at-a-time
// baselines. This is the repository's correctness oracle (DESIGN.md).

#include <memory>

#include <gtest/gtest.h>

#include "common/date.h"
#include "common/rng.h"
#include "exec/operator.h"
#include "exec/plan.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
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

TEST_P(TpchQueryTest, PredicatedSelectsSameResult) {
  int q = GetParam();
  ExecContext a;
  ExecContext b;
  b.predicated_selects = true;
  std::unique_ptr<Table> ra = RunX100Query(q, &a, *db_);
  std::unique_ptr<Table> rb = RunX100Query(q, &b, *db_);
  ExpectTablesEqual(*ra, *rb, 0.0);
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
  // there; both feed HashAggr in lineitem scan order, so the sums must agree
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
  li = plan::HashAggr(&ctx, std::move(li), {"nation", "o_year"},
                      std::move(aggrs));
  li = plan::Order(&ctx, std::move(li), {Asc("nation"), Desc("o_year")});
  std::unique_ptr<Table> lineitem_side = RunPlan(std::move(li), "q9_old");

  std::unique_ptr<Table> part_first = RunX100Query(9, &ctx, *db);
  ASSERT_GT(part_first->num_rows(), 0);
  ExpectTablesEqual(*part_first, *lineitem_side, 0.0);
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
  Profiler profiler;
  ExecContext ctx;
  ctx.profiler = &profiler;
  RunX100Query(1, &ctx, *db);
  bool saw_fetch = false, saw_select = false, saw_aggr = false;
  for (const auto& [name, stats] : profiler.Rows()) {
    if (name.find("map_fetch_") == 0) saw_fetch = true;
    if (name.find("select_le_i32") == 0) saw_select = true;
    if (name.find("aggr_sum_f64") == 0) saw_aggr = true;
  }
  EXPECT_TRUE(saw_fetch);   // automatic enum-decode Fetch1Joins (Table 5)
  EXPECT_TRUE(saw_select);  // the shipdate select primitive
  EXPECT_TRUE(saw_aggr);    // direct-aggregation sums
}

}  // namespace
}  // namespace x100

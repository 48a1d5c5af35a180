// Hand-translated X100 algebra plans for TPC-H Q12-Q22 + the dispatcher.

#include <stdexcept>

#include "common/date.h"
#include "tpch/queries.h"
#include "tpch/queries_x100_internal.h"

namespace x100::tpch_x100 {

using namespace x100::exprs;
using namespace x100::plan;

namespace {
const std::string kJiOrders = Table::JoinIndexName("orders");
const std::string kJiPart = Table::JoinIndexName("part");
const std::string kJiSupplier = Table::JoinIndexName("supplier");
const std::string kJiCustomer = Table::JoinIndexName("customer");
const std::string kJiNation = Table::JoinIndexName("nation");
}  // namespace

// ---- Q12: shipping modes and order priority ---------------------------------
TablePtr Q12(ExecContext* ctx, const Catalog& db) {
  double lo = ParseDate("1994-01-01"), hi = ParseDate("1995-01-01") - 1;
  auto li = Scan(ctx, db.Get("lineitem"),
                 {.cols = {"l_shipmode", "l_shipdate", "l_commitdate",
                           "l_receiptdate", kJiOrders},
                  .range = ScanSpec::Range{"l_receiptdate", lo, hi}});
  li = Select(
      ctx, std::move(li),
      And(In(Col("l_shipmode"),
             {Value::Str("MAIL"), Value::Str("SHIP")}),
          And(Lt(Col("l_commitdate"), Col("l_receiptdate")),
              And(Lt(Col("l_shipdate"), Col("l_commitdate")),
                  And(Ge(Col("l_receiptdate"), LitDate("1994-01-01")),
                      Lt(Col("l_receiptdate"), LitDate("1995-01-01")))))));
  li = Fetch1Join(ctx, std::move(li), db.Get("orders"), kJiOrders,
                  {{"o_orderpriority", "o_orderpriority"}});
  TablePtr base = RunPlan(
      Project(ctx, std::move(li),
              NE(Pass("l_shipmode"), Pass("o_orderpriority"))),
      "q12_base");

  auto tot = Aggr(ctx, Scan(ctx, *base, {"l_shipmode"}), {"l_shipmode"},
                  AG(CountAll("total")));
  auto high = Select(ctx, Scan(ctx, *base, {"l_shipmode", "o_orderpriority"}),
                     In(Col("o_orderpriority"),
                        {Value::Str("1-URGENT"), Value::Str("2-HIGH")}));
  high = Aggr(ctx, std::move(high), {"l_shipmode"},
              AG(CountAll("high_line_count")));
  auto fin = Join(ctx, std::move(tot), std::move(high),
                  {.probe_keys = {"l_shipmode"},
                   .build_keys = {"l_shipmode"},
                   .probe_out = {"l_shipmode", "total"},
                   .build_out = {"high_line_count"},
                   .type = JoinType::kLeftOuterDefault});
  fin = Project(ctx, std::move(fin),
                NE(Pass("l_shipmode"), Pass("high_line_count"),
                   As("low_line_count",
                      Sub(Col("total"), Col("high_line_count")))));
  fin = Order(ctx, std::move(fin), {Asc("l_shipmode")});
  return RunPlan(std::move(fin), "q12");
}

// ---- Q13: customer order-count distribution ----------------------------------
TablePtr Q13(ExecContext* ctx, const Catalog& db) {
  auto ord = Scan(ctx, db.Get("orders"), {"o_custkey", "o_comment"});
  ord = Select(ctx, std::move(ord),
               NotLike(Col("o_comment"), "%special%requests%"));
  ord = Aggr(ctx, std::move(ord), {"o_custkey"}, AG(CountAll("c_count")));

  auto cust = Scan(ctx, db.Get("customer"), {"c_custkey"});
  auto j = Join(ctx, std::move(cust), std::move(ord),
                {.probe_keys = {"c_custkey"},
                 .build_keys = {"o_custkey"},
                 .probe_out = {"c_custkey"},
                 .build_out = {"c_count"},
                 .type = JoinType::kLeftOuterDefault});
  j = Aggr(ctx, std::move(j), {"c_count"}, AG(CountAll("custdist")));
  j = Order(ctx, std::move(j), {Desc("custdist"), Desc("c_count")});
  return RunPlan(std::move(j), "q13");
}

// ---- Q14: promotion effect -----------------------------------------------------
//
// The filtered+joined lineitem rows are pre-aggregated to rev per p_type
// (one partial per morsel when parallel), so the materialized base holds one
// row per part type; the promo and total sums read that.
TablePtr Q14(ExecContext* ctx, const Catalog& db) {
  double lo = ParseDate("1995-09-01"), hi = ParseDate("1995-10-01") - 1;
  auto aggrs = [] { return AG(Sum("rev", Col("rev"))); };
  auto li = PartialAggr(
      ctx, {"p_type"}, aggrs(), [&](ExecContext* c, ScanSpec::Morsel m) {
        auto s = Scan(c, db.Get("lineitem"),
                      {.cols = {"l_shipdate", "l_extendedprice", "l_discount",
                                kJiPart},
                       .range = ScanSpec::Range{"l_shipdate", lo, hi},
                       .morsel = m});
        s = Select(c, std::move(s),
                   And(Ge(Col("l_shipdate"), LitDate("1995-09-01")),
                       Lt(Col("l_shipdate"), LitDate("1995-10-01"))));
        s = Fetch1Join(c, std::move(s), db.Get("part"), kJiPart,
                       {{"p_type", "p_type"}});
        s = Project(c, std::move(s), NE(Pass("p_type"), As("rev", Rev())));
        return Aggr(c, std::move(s), {"p_type"}, aggrs());
      });
  TablePtr base = RunPlan(std::move(li), "q14_base");

  TablePtr allt =
      RunPlan(Aggr(ctx, Scan(ctx, *base, {"rev"}), {},
                   AG(Sum("total", Col("rev")))),
              "q14_all");
  TablePtr promo = RunPlan(
      Aggr(ctx,
           Select(ctx, Scan(ctx, *base, {"p_type", "rev"}),
                  Like(Col("p_type"), "PROMO%")),
           {}, AG(Sum("promo", Col("rev")))),
      "q14_promo");

  auto fin = CartProd(ctx, Scan(ctx, *promo, {"promo"}),
                      Scan(ctx, *allt, {"total"}), {"promo"}, {"total"});
  fin = Project(ctx, std::move(fin),
                NE(As("promo_revenue",
                      Div(Mul(LitF64(100.0), Col("promo")), Col("total")))));
  return RunPlan(std::move(fin), "q14");
}

// ---- Q15: top supplier ----------------------------------------------------------
TablePtr Q15(ExecContext* ctx, const Catalog& db) {
  double lo = ParseDate("1996-01-01"), hi = ParseDate("1996-04-01") - 1;
  auto li = Scan(ctx, db.Get("lineitem"),
                 {.cols = {"l_suppkey", "l_shipdate", "l_extendedprice",
                           "l_discount"},
                  .range = ScanSpec::Range{"l_shipdate", lo, hi}});
  li = Select(ctx, std::move(li),
              And(Ge(Col("l_shipdate"), LitDate("1996-01-01")),
                  Lt(Col("l_shipdate"), LitDate("1996-04-01"))));
  li = Project(ctx, std::move(li), NE(Pass("l_suppkey"), As("rev", Rev())));
  li = Aggr(ctx, std::move(li), {"l_suppkey"},
            AG(Sum("total_revenue", Col("rev"))));
  TablePtr revenue = RunPlan(std::move(li), "q15_revenue");

  TablePtr maxt =
      RunPlan(Aggr(ctx, Scan(ctx, *revenue, {"total_revenue"}), {},
                   AG(Max("max_rev", Col("total_revenue")))),
              "q15_max");
  double maxrev = ScalarF64(*maxt, "max_rev");

  auto win = Select(ctx, Scan(ctx, *revenue, {"l_suppkey", "total_revenue"}),
                    Eq(Col("total_revenue"), LitF64(maxrev)));
  win = Join(ctx, std::move(win),
             Scan(ctx, db.Get("supplier"),
                  {"s_suppkey", "s_name", "s_address", "s_phone"}),
             {.probe_keys = {"l_suppkey"},
              .build_keys = {"s_suppkey"},
              .probe_out = {"total_revenue"},
              .build_out = {"s_suppkey", "s_name", "s_address", "s_phone"}});
  win = Project(ctx, std::move(win),
                NE(Pass("s_suppkey"), Pass("s_name"), Pass("s_address"),
                   Pass("s_phone"), Pass("total_revenue")));
  win = Order(ctx, std::move(win), {Asc("s_suppkey")});
  return RunPlan(std::move(win), "q15");
}

// ---- Q16: parts/supplier relationship --------------------------------------------
TablePtr Q16(ExecContext* ctx, const Catalog& db) {
  auto p = Scan(ctx, db.Get("part"),
                {"p_partkey", "p_brand", "p_type", "p_size"});
  p = Select(
      ctx, std::move(p),
      And(Ne(Col("p_brand"), LitStr("Brand#45")),
          And(NotLike(Col("p_type"), "MEDIUM POLISHED%"),
              In(Col("p_size"),
                 {Value::I32(49), Value::I32(14), Value::I32(23),
                  Value::I32(45), Value::I32(19), Value::I32(3),
                  Value::I32(36), Value::I32(9)}))));

  auto bad = Scan(ctx, db.Get("supplier"), {"s_suppkey", "s_comment"});
  bad = Select(ctx, std::move(bad),
               Like(Col("s_comment"), "%Customer%Complaints%"));
  bad = Project(ctx, std::move(bad), NE(Pass("s_suppkey")));

  auto ps = Scan(ctx, db.Get("partsupp"), {"ps_partkey", "ps_suppkey"});
  ps = AntiJoin(ctx, std::move(ps), std::move(bad),
                {.probe_keys = {"ps_suppkey"},
                 .build_keys = {"s_suppkey"},
                 .probe_out = {"ps_partkey", "ps_suppkey"}});
  ps = Join(ctx, std::move(ps), std::move(p),
            {.probe_keys = {"ps_partkey"},
             .build_keys = {"p_partkey"},
             .probe_out = {"ps_suppkey"},
             .build_out = {"p_brand", "p_type", "p_size"}});
  // count(distinct ps_suppkey): distinct first, then count.
  ps = Aggr(ctx, std::move(ps),
            {"p_brand", "p_type", "p_size", "ps_suppkey"}, {});
  ps = Aggr(ctx, std::move(ps), {"p_brand", "p_type", "p_size"},
            AG(CountAll("supplier_cnt")));
  ps = Order(ctx, std::move(ps),
             {Desc("supplier_cnt"), Asc("p_brand"), Asc("p_type"),
              Asc("p_size")});
  return RunPlan(std::move(ps), "q16");
}

// ---- Q17: small-quantity-order revenue ----------------------------------------------
TablePtr Q17(ExecContext* ctx, const Catalog& db) {
  auto p = Scan(ctx, db.Get("part"), {"p_partkey", "p_brand", "p_container"});
  p = Select(ctx, std::move(p),
             And(Eq(Col("p_brand"), LitStr("Brand#23")),
                 Eq(Col("p_container"), LitStr("MED BOX"))));
  p = Project(ctx, std::move(p), NE(Pass("p_partkey")));
  TablePtr pmat = RunPlan(std::move(p), "q17_parts");

  auto li = Scan(ctx, db.Get("lineitem"),
                 {"l_partkey", "l_quantity", "l_extendedprice"});
  li = Join(ctx, std::move(li), Scan(ctx, *pmat, {"p_partkey"}),
            {.probe_keys = {"l_partkey"},
             .build_keys = {"p_partkey"},
             .probe_out = {"l_partkey", "l_quantity", "l_extendedprice"}});
  TablePtr t = RunPlan(std::move(li), "q17_li");

  auto a = Aggr(ctx, Scan(ctx, *t, {"l_partkey", "l_quantity"}),
                {"l_partkey"},
                AG(Sum("qty_sum", Col("l_quantity")), CountAll("qty_cnt")));
  a = Project(ctx, std::move(a),
              NE(As("pk", Col("l_partkey")),
                 As("lim", Mul(LitF64(0.2),
                               Div(Col("qty_sum"),
                                   Call1("dbl", Col("qty_cnt")))))));
  TablePtr amat = RunPlan(std::move(a), "q17_avg");

  auto j = Join(ctx,
                Scan(ctx, *t, {"l_partkey", "l_quantity", "l_extendedprice"}),
                Scan(ctx, *amat, {"pk", "lim"}),
                {.probe_keys = {"l_partkey"},
                 .build_keys = {"pk"},
                 .probe_out = {"l_quantity", "l_extendedprice"},
                 .build_out = {"lim"}});
  j = Select(ctx, std::move(j), Lt(Col("l_quantity"), Col("lim")));
  j = Aggr(ctx, std::move(j), {},
           AG(Sum("sum_price", Col("l_extendedprice"))));
  j = Project(ctx, std::move(j),
              NE(As("avg_yearly", Div(Col("sum_price"), LitF64(7.0)))));
  return RunPlan(std::move(j), "q17");
}

// ---- Q18: large-volume customers ------------------------------------------------------
TablePtr Q18(ExecContext* ctx, const Catalog& db) {
  // dbgen writes lineitem clustered on l_orderkey, so the per-order sum
  // streams through ordered aggregation (§4.1.2) unless appends broke that.
  const Table& lineitem = db.Get("lineitem");
  auto big = ClusteredAggr(ctx,
                           Scan(ctx, lineitem, {"l_orderkey", "l_quantity"}),
                           lineitem, {"l_orderkey"},
                           AG(Sum("sum_qty", Col("l_quantity"))));
  big = Select(ctx, std::move(big), Gt(Col("sum_qty"), LitF64(300.0)));
  TablePtr bigt = RunPlan(std::move(big), "q18_big");

  auto o = Scan(ctx, db.Get("orders"),
                {"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate",
                 kJiCustomer});
  o = Fetch1Join(ctx, std::move(o), db.Get("customer"), kJiCustomer,
                 {{"c_name", "c_name"}});
  o = Join(ctx, std::move(o), Scan(ctx, *bigt, {"l_orderkey", "sum_qty"}),
           {.probe_keys = {"o_orderkey"},
            .build_keys = {"l_orderkey"},
            .probe_out = {"c_name", "o_custkey", "o_orderkey", "o_orderdate",
                          "o_totalprice"},
            .build_out = {"sum_qty"}});
  o = Project(ctx, std::move(o),
              NE(Pass("c_name"), As("c_custkey", Col("o_custkey")),
                 Pass("o_orderkey"), Pass("o_orderdate"), Pass("o_totalprice"),
                 Pass("sum_qty")));
  o = TopN(ctx, std::move(o),
           {Desc("o_totalprice"), Asc("o_orderdate"), Asc("o_orderkey")}, 100);
  return RunPlan(std::move(o), "q18");
}

// ---- Q19: discounted revenue (disjunctive predicate) -----------------------------------
TablePtr Q19(ExecContext* ctx, const Catalog& db) {
  auto li = Scan(ctx, db.Get("lineitem"),
                 {"l_quantity", "l_extendedprice", "l_discount",
                  "l_shipinstruct", "l_shipmode", kJiPart});
  li = Select(ctx, std::move(li),
              And(In(Col("l_shipmode"),
                     {Value::Str("AIR"), Value::Str("REG AIR")}),
                  Eq(Col("l_shipinstruct"), LitStr("DELIVER IN PERSON"))));
  li = Fetch1Join(ctx, std::move(li), db.Get("part"), kJiPart,
                  {{"p_brand", "p_brand"},
                   {"p_container", "p_container"},
                   {"p_size", "p_size"}});
  auto group = [&](const char* brand, std::vector<Value> containers, double qlo,
                   double qhi, int32_t smax) {
    return And(Eq(Col("p_brand"), LitStr(brand)),
               And(In(Col("p_container"), std::move(containers)),
                   And(Between(Col("l_quantity"), LitF64(qlo), LitF64(qhi)),
                       Between(Col("p_size"), LitI32(1), LitI32(smax)))));
  };
  li = Select(
      ctx, std::move(li),
      Or(group("Brand#12",
               {Value::Str("SM CASE"), Value::Str("SM BOX"),
                Value::Str("SM PACK"), Value::Str("SM PKG")},
               1, 11, 5),
         Or(group("Brand#23",
                  {Value::Str("MED BAG"), Value::Str("MED BOX"),
                   Value::Str("MED PKG"), Value::Str("MED PACK")},
                  10, 20, 10),
            group("Brand#34",
                  {Value::Str("LG CASE"), Value::Str("LG BOX"),
                   Value::Str("LG PACK"), Value::Str("LG PKG")},
                  20, 30, 15))));
  li = Aggr(ctx, std::move(li), {}, AG(Sum("revenue", Rev())));
  return RunPlan(std::move(li), "q19");
}

// ---- Q20: potential part promotion -------------------------------------------------------
TablePtr Q20(ExecContext* ctx, const Catalog& db) {
  auto forest = Scan(ctx, db.Get("part"), {"p_partkey", "p_name"});
  forest = Select(ctx, std::move(forest), Like(Col("p_name"), "forest%"));
  forest = Project(ctx, std::move(forest), NE(Pass("p_partkey")));
  TablePtr fmat = RunPlan(std::move(forest), "q20_forest");

  double lo = ParseDate("1994-01-01"), hi = ParseDate("1995-01-01") - 1;
  auto li = Scan(ctx, db.Get("lineitem"),
                 {.cols = {"l_partkey", "l_suppkey", "l_quantity",
                           "l_shipdate"},
                  .range = ScanSpec::Range{"l_shipdate", lo, hi}});
  li = Select(ctx, std::move(li),
              And(Ge(Col("l_shipdate"), LitDate("1994-01-01")),
                  Lt(Col("l_shipdate"), LitDate("1995-01-01"))));
  li = Join(ctx, std::move(li), Scan(ctx, *fmat, {"p_partkey"}),
            {.probe_keys = {"l_partkey"},
             .build_keys = {"p_partkey"},
             .probe_out = {"l_partkey", "l_suppkey", "l_quantity"}});
  li = Aggr(ctx, std::move(li), {"l_partkey", "l_suppkey"},
            AG(Sum("sum_qty", Col("l_quantity"))));
  TablePtr sq = RunPlan(std::move(li), "q20_sq");

  auto ps = Scan(ctx, db.Get("partsupp"),
                 {"ps_partkey", "ps_suppkey", "ps_availqty"});
  ps = Join(ctx, std::move(ps),
            Scan(ctx, *sq, {"l_partkey", "l_suppkey", "sum_qty"}),
            {.probe_keys = {"ps_partkey", "ps_suppkey"},
             .build_keys = {"l_partkey", "l_suppkey"},
             .probe_out = {"ps_suppkey", "ps_availqty"},
             .build_out = {"sum_qty"}});
  ps = Select(ctx, std::move(ps),
              Gt(Col("ps_availqty"), Mul(LitF64(0.5), Col("sum_qty"))));
  ps = Aggr(ctx, std::move(ps), {"ps_suppkey"}, {});
  TablePtr sk = RunPlan(std::move(ps), "q20_sk");

  auto s = Scan(ctx, db.Get("supplier"),
                {"s_suppkey", "s_name", "s_address", kJiNation});
  s = Fetch1Join(ctx, std::move(s), db.Get("nation"), kJiNation,
                 {{"n_name", "n_name"}});
  s = Select(ctx, std::move(s), Eq(Col("n_name"), LitStr("CANADA")));
  s = SemiJoin(ctx, std::move(s), Scan(ctx, *sk, {"ps_suppkey"}),
               {.probe_keys = {"s_suppkey"},
                .build_keys = {"ps_suppkey"},
                .probe_out = {"s_name", "s_address"}});
  s = Order(ctx, std::move(s), {Asc("s_name")});
  return RunPlan(std::move(s), "q20");
}

// ---- Q21: suppliers who kept orders waiting -------------------------------------------------
// Both per-order conditions are ordered aggregations over lineitem-ordered
// rows (see ClusteredAggr). Over an order's suppliers, "at least two distinct"
// is exactly min < max, and "exactly one" is exactly min == max, so neither
// needs the distinct (l_orderkey, l_suppkey) pairs grouped first.
TablePtr Q21MultiSupplierOrders(ExecContext* ctx, const Catalog& db) {
  const Table& lineitem = db.Get("lineitem");
  auto multi = ClusteredAggr(
      ctx, Scan(ctx, lineitem, {"l_orderkey", "l_suppkey"}), lineitem,
      {"l_orderkey"},
      AG(Min("smin", Col("l_suppkey")), Max("smax", Col("l_suppkey"))));
  multi = Select(ctx, std::move(multi), Lt(Col("smin"), Col("smax")));
  return RunPlan(Project(ctx, std::move(multi), NE(Pass("l_orderkey"))),
                 "q21_multi");
}

TablePtr Q21SingleSupplierOrders(ExecContext* ctx, const Table& late) {
  auto single = ClusteredAggr(
      ctx, Scan(ctx, late, {"l_orderkey", "l_suppkey"}), late, {"l_orderkey"},
      AG(Min("smin", Col("l_suppkey")), Max("smax", Col("l_suppkey"))));
  single = Select(ctx, std::move(single), Eq(Col("smin"), Col("smax")));
  return RunPlan(Project(ctx, std::move(single), NE(Pass("l_orderkey"))),
                 "q21_single");
}

TablePtr Q21(ExecContext* ctx, const Catalog& db) {
  // Orders with >= 2 distinct suppliers.
  TablePtr multit = Q21MultiSupplierOrders(ctx, db);

  // Late lineitems.
  auto late = Scan(ctx, db.Get("lineitem"),
                   {"l_orderkey", "l_suppkey", "l_commitdate",
                    "l_receiptdate"});
  late = Select(ctx, std::move(late),
                Gt(Col("l_receiptdate"), Col("l_commitdate")));
  TablePtr latet = RunPlan(
      Project(ctx, std::move(late), NE(Pass("l_orderkey"), Pass("l_suppkey"))),
      "q21_late");

  // Orders whose late lineitems involve exactly one supplier.
  TablePtr singlet = Q21SingleSupplierOrders(ctx, *latet);

  // Saudi suppliers.
  auto s = Scan(ctx, db.Get("supplier"), {"s_suppkey", "s_name", kJiNation});
  s = Fetch1Join(ctx, std::move(s), db.Get("nation"), kJiNation,
                 {{"n_name", "n_name"}});
  s = Select(ctx, std::move(s), Eq(Col("n_name"), LitStr("SAUDI ARABIA")));
  TablePtr saudit = RunPlan(
      Project(ctx, std::move(s), NE(Pass("s_suppkey"), Pass("s_name"))),
      "q21_saudi");

  // F orders.
  auto fo = Scan(ctx, db.Get("orders"), {"o_orderkey", "o_orderstatus"});
  fo = Select(ctx, std::move(fo), Eq(Col("o_orderstatus"), LitChar('F')));
  fo = Project(ctx, std::move(fo), NE(Pass("o_orderkey")));

  auto l1 = Join(ctx, Scan(ctx, *latet, {"l_orderkey", "l_suppkey"}),
                 Scan(ctx, *saudit, {"s_suppkey", "s_name"}),
                 {.probe_keys = {"l_suppkey"},
                  .build_keys = {"s_suppkey"},
                  .probe_out = {"l_orderkey"},
                  .build_out = {"s_name"}});
  l1 = SemiJoin(ctx, std::move(l1), std::move(fo),
                {.probe_keys = {"l_orderkey"},
                 .build_keys = {"o_orderkey"},
                 .probe_out = {"l_orderkey", "s_name"}});
  l1 = SemiJoin(ctx, std::move(l1), Scan(ctx, *multit, {"l_orderkey"}),
                {.probe_keys = {"l_orderkey"},
                 .build_keys = {"l_orderkey"},
                 .probe_out = {"l_orderkey", "s_name"}});
  l1 = SemiJoin(ctx, std::move(l1), Scan(ctx, *singlet, {"l_orderkey"}),
                {.probe_keys = {"l_orderkey"},
                 .build_keys = {"l_orderkey"},
                 .probe_out = {"s_name"}});
  l1 = Aggr(ctx, std::move(l1), {"s_name"}, AG(CountAll("numwait")));
  l1 = TopN(ctx, std::move(l1), {Desc("numwait"), Asc("s_name")}, 100);
  return RunPlan(std::move(l1), "q21");
}

// ---- Q22: global sales opportunity -----------------------------------------------------------
TablePtr Q22(ExecContext* ctx, const Catalog& db) {
  const std::vector<std::string> codes = {"13", "17", "18", "23",
                                          "29", "30", "31"};
  auto cc_pred = [&]() {
    ExprPtr p = Like(Col("c_phone"), codes[0] + "%");
    for (size_t i = 1; i < codes.size(); i++) {
      p = Or(std::move(p), Like(Col("c_phone"), codes[i] + "%"));
    }
    return p;
  };

  auto c = Scan(ctx, db.Get("customer"), {"c_custkey", "c_phone", "c_acctbal"});
  c = Select(ctx, std::move(c), cc_pred());
  TablePtr cset = RunPlan(std::move(c), "q22_cset");

  // Average positive balance over the code set.
  auto avg = Select(ctx, Scan(ctx, *cset, {"c_acctbal"}),
                    Gt(Col("c_acctbal"), LitF64(0.0)));
  avg = Aggr(ctx, std::move(avg), {},
             AG(Sum("s", Col("c_acctbal")), CountAll("n")));
  TablePtr avgt = RunPlan(std::move(avg), "q22_avg");
  double avgbal = ScalarF64(*avgt, "s") /
                  std::max<double>(1.0, static_cast<double>(
                                            ScalarI64(*avgt, "n")));

  TablePtr c2t = RunPlan(
      Select(ctx, Scan(ctx, *cset, {"c_custkey", "c_phone", "c_acctbal"}),
             Gt(Col("c_acctbal"), LitF64(avgbal))),
      "q22_c2");
  // NOT EXISTS(orders): stream the big orders side as semi-join probe
  // against the (small) candidate customers, take the distinct customers
  // that do have orders, and anti-join the candidates against that set —
  // both hash builds stay small.
  auto have = SemiJoin(ctx, Scan(ctx, db.Get("orders"), {"o_custkey"}),
                       Scan(ctx, *c2t, {"c_custkey"}),
                       {.probe_keys = {"o_custkey"},
                        .build_keys = {"c_custkey"},
                        .probe_out = {"o_custkey"}});
  have = Aggr(ctx, std::move(have), {"o_custkey"}, {});
  auto fin_op = AntiJoin(ctx,
                         Scan(ctx, *c2t, {"c_custkey", "c_phone", "c_acctbal"}),
                         std::move(have),
                         {.probe_keys = {"c_custkey"},
                          .build_keys = {"o_custkey"},
                          .probe_out = {"c_phone", "c_acctbal"}});
  TablePtr fin = RunPlan(std::move(fin_op), "q22_fin");

  // Per-country-code aggregation, assembled in code order.
  auto out = std::make_unique<Table>(
      "q22", std::vector<Table::ColumnSpec>{{"cntrycode", TypeId::kStr, false},
                                            {"numcust", TypeId::kI64, false},
                                            {"totacctbal", TypeId::kF64, false}});
  for (const std::string& code : codes) {
    auto g = Select(ctx, Scan(ctx, *fin, {"c_phone", "c_acctbal"}),
                    Like(Col("c_phone"), code + "%"));
    g = Aggr(ctx, std::move(g), {},
             AG(CountAll("numcust"), Sum("total", Col("c_acctbal"))));
    TablePtr gt = RunPlan(std::move(g), "q22_g");
    int64_t n = ScalarI64(*gt, "numcust");
    if (n == 0) continue;
    out->AppendRow({Value::Str(code), Value::I64(n),
                    Value::F64(ScalarF64(*gt, "total"))});
  }
  out->Freeze();
  return out;
}

}  // namespace x100::tpch_x100

namespace x100 {

std::unique_ptr<Table> RunX100Query(int q, ExecContext* ctx, const Catalog& db) {
  using namespace tpch_x100;
  switch (q) {
    case 1:  return Q1(ctx, db);
    case 2:  return Q2(ctx, db);
    case 3:  return Q3(ctx, db);
    case 4:  return Q4(ctx, db);
    case 5:  return Q5(ctx, db);
    case 6:  return Q6(ctx, db);
    case 7:  return Q7(ctx, db);
    case 8:  return Q8(ctx, db);
    case 9:  return Q9(ctx, db);
    case 10: return Q10(ctx, db);
    case 11: return Q11(ctx, db);
    case 12: return Q12(ctx, db);
    case 13: return Q13(ctx, db);
    case 14: return Q14(ctx, db);
    case 15: return Q15(ctx, db);
    case 16: return Q16(ctx, db);
    case 17: return Q17(ctx, db);
    case 18: return Q18(ctx, db);
    case 19: return Q19(ctx, db);
    case 20: return Q20(ctx, db);
    case 21: return Q21(ctx, db);
    case 22: return Q22(ctx, db);
    default:
      X100_CHECK(false);
      return nullptr;
  }
}

std::unique_ptr<Table> RunX100QueryDisk(int q, ExecContext* ctx,
                                        const Catalog& db, ColumnBm* bm,
                                        bool compress,
                                        std::optional<CodecId> codec) {
  if (!HasDiskPlan(q)) {
    throw std::invalid_argument(
        "RunX100QueryDisk: only Q1, Q3, Q6 and Q14 run on ColumnBM (got q=" +
        std::to_string(q) + ")");
  }
  BmSource src{.bm = bm, .catalog = &db, .compress = compress, .codec = codec};
  ExecContext disk_ctx = *ctx;
  disk_ctx.bm_source = &src;
  return RunX100Query(q, &disk_ctx, db);
}

}  // namespace x100

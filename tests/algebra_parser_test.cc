// Tests for the textual X100 algebra parser (Figure 5's "X100 Parser"):
// the paper's own plan texts must parse and produce the same results as the
// equivalent hand-built plans.

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "exec/algebra_parser.h"
#include "exec/plan.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace x100 {
namespace {

using namespace x100::exprs;
using testing::ExpectTablesEqual;

class AlgebraParserTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbgenOptions opts;
    opts.scale_factor = 0.005;
    db_ = GenerateTpch(opts).release();
  }

  std::unique_ptr<Table> Run(const std::string& text) {
    ExecContext ctx;
    AlgebraParser parser(&ctx, *db_);
    std::string error;
    std::unique_ptr<Operator> op = parser.Parse(text, &error);
    EXPECT_NE(op, nullptr) << error;
    if (op == nullptr) return nullptr;
    return RunPlan(std::move(op), "parsed");
  }

  static Catalog* db_;
};
Catalog* AlgebraParserTest::db_ = nullptr;

TEST_F(AlgebraParserTest, PaperFigure61SimplifiedQ1) {
  // The §4.1.1 example, verbatim except for full column names.
  std::unique_ptr<Table> r = Run(R"(
      Aggr(
        Project(
          Select(
            Table(lineitem),
            < (l_shipdate, date('1998-09-03'))),
          [ l_returnflag,
            discountprice = *( -( flt('1.0'), l_discount), l_extendedprice) ]),
        [ l_returnflag ],
        [ sum_disc_price = sum(discountprice) ]))");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->num_rows(), 3);  // R, A, N
  EXPECT_EQ(r->schema().field(0).name, "l_returnflag");
  EXPECT_EQ(r->schema().field(1).name, "sum_disc_price");
  double total = 0;
  for (int64_t i = 0; i < r->num_rows(); i++) total += r->GetValue(i, 1).AsF64();
  EXPECT_GT(total, 0);
}

TEST_F(AlgebraParserTest, FullQ1MatchesHandBuiltPlan) {
  // Figure 9's Q1, restated in the parser grammar; must equal RunX100Query(1).
  std::unique_ptr<Table> parsed = Run(R"(
      Order(
        Project(
          DirectAggr(
            Select(
              Table(lineitem, l_returnflag, l_linestatus, l_quantity,
                    l_extendedprice, l_discount, l_tax, l_shipdate),
              <= (l_shipdate, date('1998-09-02'))),
            [ l_returnflag, l_linestatus ],
            [ sum_qty = sum(l_quantity),
              sum_base_price = sum(l_extendedprice),
              sum_disc_price = sum(*( -( flt('1.0'), l_discount),
                                      l_extendedprice)),
              sum_charge = sum(*( +( flt('1.0'), l_tax),
                                  *( -( flt('1.0'), l_discount),
                                     l_extendedprice))),
              sum_disc = sum(l_discount),
              count_order = count() ]),
          [ l_returnflag, l_linestatus, sum_qty, sum_base_price,
            sum_disc_price, sum_charge,
            avg_qty = /( sum_qty, dbl(count_order)),
            avg_price = /( sum_base_price, dbl(count_order)),
            avg_disc = /( sum_disc, dbl(count_order)),
            count_order ]),
        [ l_returnflag ASC, l_linestatus ASC ]))");
  ASSERT_NE(parsed, nullptr);
  ExecContext ctx;
  std::unique_ptr<Table> built = RunX100Query(1, &ctx, *db_);
  ExpectTablesEqual(*built, *parsed, 0.0);
}

TEST_F(AlgebraParserTest, TopNWorks) {
  std::unique_ptr<Table> r = Run(R"(
      TopN(
        Fetch1Join(
          Select(Table(orders, o_orderkey, o_orderpriority, o_totalprice,
                       #ji_customer),
                 and(> (o_totalprice, 100000.0),
                     like(o_orderpriority, '1%'))),
          customer, #ji_customer, [ c_name AS customer_name ]),
        [ o_totalprice DESC, o_orderkey ASC ], 5))");
  ASSERT_NE(r, nullptr);
  EXPECT_LE(r->num_rows(), 5);
  for (int64_t i = 1; i < r->num_rows(); i++) {
    EXPECT_GE(r->GetValue(i - 1, 2).AsF64(), r->GetValue(i, 2).AsF64());
  }
}

TEST_F(AlgebraParserTest, ScalarAggrAndYear) {
  std::unique_ptr<Table> r = Run(R"(
      Aggr(
        Select(Table(orders, o_orderdate, o_totalprice),
               == (year(o_orderdate), 1995)),
        [], [ n = count(), total = sum(o_totalprice) ]))");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->num_rows(), 1);
  EXPECT_GT(r->GetValue(0, 0).AsI64(), 0);
}

TEST_F(AlgebraParserTest, HashJoinBuildsJoinSpec) {
  std::unique_ptr<Table> parsed = Run(R"(
      Order(
        HashJoin(
          Table(lineitem, l_orderkey, l_extendedprice),
          Select(Table(orders, o_orderkey, o_totalprice),
                 > (o_totalprice, 400000.0)),
          [ l_orderkey ], [ o_orderkey ],
          [ l_orderkey, l_extendedprice ], [ o_totalprice ]),
        [ l_orderkey ASC, l_extendedprice ASC ]))");
  ASSERT_NE(parsed, nullptr);

  ExecContext ctx;
  auto ord = plan::Select(
      &ctx, plan::Scan(&ctx, db_->Get("orders"), {"o_orderkey", "o_totalprice"}),
      Gt(Col("o_totalprice"), LitF64(400000.0)));
  auto built = plan::Join(
      &ctx, plan::Scan(&ctx, db_->Get("lineitem"),
                       {"l_orderkey", "l_extendedprice"}),
      std::move(ord),
      {.probe_keys = {"l_orderkey"},
       .build_keys = {"o_orderkey"},
       .probe_out = {"l_orderkey", "l_extendedprice"},
       .build_out = {"o_totalprice"}});
  std::unique_ptr<Table> h = RunPlan(
      plan::Order(&ctx, std::move(built),
                  {Asc("l_orderkey"), Asc("l_extendedprice")}),
      "built");
  ASSERT_GT(h->num_rows(), 0);
  ExpectTablesEqual(*h, *parsed, 0.0);
}

TEST_F(AlgebraParserTest, SemiAndAntiJoinPartitionProbe) {
  // build_out is omitted for semi/anti joins; the two outputs must partition
  // the distinct probe keys.
  std::unique_ptr<Table> semi = Run(R"(
      Aggr(
        SemiJoin(Table(orders, o_orderkey, o_custkey),
                 Select(Table(customer, c_custkey, c_acctbal),
                        > (c_acctbal, 0.0)),
                 [ o_custkey ], [ c_custkey ], [ o_orderkey ]),
        [], [ n = count() ]))");
  std::unique_ptr<Table> anti = Run(R"(
      Aggr(
        AntiJoin(Table(orders, o_orderkey, o_custkey),
                 Select(Table(customer, c_custkey, c_acctbal),
                        > (c_acctbal, 0.0)),
                 [ o_custkey ], [ c_custkey ], [ o_orderkey ]),
        [], [ n = count() ]))");
  ASSERT_NE(semi, nullptr);
  ASSERT_NE(anti, nullptr);
  EXPECT_EQ(semi->GetValue(0, 0).AsI64() + anti->GetValue(0, 0).AsI64(),
            db_->Get("orders").num_rows());
  EXPECT_GT(semi->GetValue(0, 0).AsI64(), 0);
}

TEST_F(AlgebraParserTest, ErrorsAreReported) {
  ExecContext ctx;
  AlgebraParser parser(&ctx, *db_);
  std::string error;
  EXPECT_EQ(parser.Parse("Frobnicate(Table(lineitem))", &error), nullptr);
  EXPECT_NE(error.find("unknown operator"), std::string::npos);
  EXPECT_EQ(parser.Parse("Table(nonexistent)", &error), nullptr);
  EXPECT_NE(error.find("unknown table"), std::string::npos);
  EXPECT_EQ(parser.Parse("Select(Table(orders), )", &error), nullptr);
  EXPECT_EQ(parser.Parse("Table(orders) trailing", &error), nullptr);
  EXPECT_EQ(parser.Parse("Select(Table(orders), < (o_orderdate, date('x", &error),
            nullptr);
}

TEST_F(AlgebraParserTest, JoinKeyErrorsAreReported) {
  // HashJoin checks its keys when it is constructed; the parser turns the
  // exception into an error instead of aborting on user text.
  ExecContext ctx;
  AlgebraParser parser(&ctx, *db_);
  std::string error;
  EXPECT_EQ(parser.Parse(R"(
      HashJoin(Table(lineitem, l_orderkey), Table(orders, o_l_start),
               [ l_orderkey ], [ o_l_start ], [ l_orderkey ]))",
                         &error),
            nullptr);
  EXPECT_NE(error.find("is i32 but build key 'o_l_start' is i64"),
            std::string::npos)
      << error;
  EXPECT_EQ(parser.Parse(R"(
      SemiJoin(Table(lineitem, l_orderkey), Table(orders, o_orderkey),
               [ l_orderkey ], [ o_nokey ], [ l_orderkey ]))",
                         &error),
            nullptr);
  EXPECT_NE(error.find("unknown build key 'o_nokey'"), std::string::npos)
      << error;
}

TEST_F(AlgebraParserTest, BadCallsAndNamesAreReportedNotFatal) {
  // Operators bind their expressions and names when they are constructed. A
  // function the binder does not know, a wrong arity, a predicate in value
  // position or an unknown name is a parse error naming it, not an abort of
  // the process (which, behind x100_server, took every session down).
  ExecContext ctx;
  AlgebraParser parser(&ctx, *db_);
  const std::string kProject = "Project(Table(lineitem), [ d = ";
  struct Case {
    std::string text;
    const char* want;
  } cases[] = {
      {kProject + "frobnicate(l_tax) ])", "unknown function 'frobnicate'"},
      {kProject + "mahalanobis(l_tax, l_discount, l_quantity) ])",
       "unknown function 'mahalanobis'"},
      {kProject + "-(l_tax) ])", "function 'sub' takes 2 arguments, got 1"},
      {kProject + "*(l_tax, -(l_discount)) ])",
       "function 'sub' takes 2 arguments, got 1"},
      {kProject + "sqrt(l_tax, l_discount) ])",
       "function 'sqrt' takes 1 argument, got 2"},
      {kProject + "<(l_tax, l_discount) ])",
       "predicate 'lt' is not a value expression"},
      {kProject + "+(l_comment, 1) ])", "no implicit conversion"},
      {kProject + "sqrt(flt('4.0')) ])", "function 'sqrt' needs a column"},
      {kProject + "l_nope ])", "no column 'l_nope'"},
      {"Table(region, r_nope)", "no column 'r_nope' in table 'region'"},
      {"Aggr(Table(region), [r_nope], [c = count()])",
       "no group-by column 'r_nope'"},
      {"Aggr(Table(region), [], [m = max(r_comment)])",
       "no primitive 'aggr_max_str_col'"},
      {"Fetch1Join(Table(nation, n_regionkey), region, n_regionkey, [r_name])",
       "no i64 rowid column 'n_regionkey'"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_EQ(parser.Parse(c.text, &error), nullptr) << c.text;
    EXPECT_NE(error.find(c.want), std::string::npos)
        << c.text << ": " << error;
  }
  // The same parser still builds good plans afterwards.
  std::string error;
  EXPECT_NE(parser.Parse("Project(Table(region), [ d = *(r_regionkey, 2) ])",
                         &error),
            nullptr)
      << error;

  // Select binds its predicate and Order/TopN resolve their keys when they
  // are constructed too, so a bad predicate or sort key is a parse error that
  // names it and points at its operator, not a failure of the run.
  struct Bad {
    const char* text;
    const char* want;
  } bad[] = {
      {"Select(Table(region), frobnicate(r_regionkey))",
       "unknown predicate 'frobnicate'"},
      {"Select(Table(region), <(r_nope, 1))", "no column 'r_nope'"},
      {"Order(Table(region), [r_nope])", "no sort key column 'r_nope'"},
      {"TopN(Table(region), [r_nope DESC], 2)", "no sort key column 'r_nope'"},
  };
  for (const Bad& b : bad) {
    EXPECT_EQ(parser.Parse(b.text, &error), nullptr) << b.text;
    EXPECT_NE(error.find(b.want), std::string::npos) << b.text << ": " << error;
    EXPECT_NE(error.find("(at offset "), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace x100

// Tests for the TPC-H generator: determinism, schema/row counts, referential
// integrity, clustering (orders sorted on date), spec formulas and the text
// selectivities the queries probe.

#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/date.h"
#include "primitives/string_prims.h"
#include "tpch/dbgen.h"

namespace x100 {
namespace {

class DbgenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbgenOptions opts;
    opts.scale_factor = 0.01;
    db_ = GenerateTpch(opts).release();
  }
  static Catalog* db_;
};
Catalog* DbgenTest::db_ = nullptr;

TEST_F(DbgenTest, RowCounts) {
  EXPECT_EQ(db_->Get("region").num_rows(), 5);
  EXPECT_EQ(db_->Get("nation").num_rows(), 25);
  EXPECT_EQ(db_->Get("supplier").num_rows(), 100);
  EXPECT_EQ(db_->Get("customer").num_rows(), 1500);
  EXPECT_EQ(db_->Get("part").num_rows(), 2000);
  EXPECT_EQ(db_->Get("partsupp").num_rows(), 8000);
  EXPECT_EQ(db_->Get("orders").num_rows(), 15000);
  // lineitem: 1..7 per order, expectation 4.
  int64_t li = db_->Get("lineitem").num_rows();
  EXPECT_GT(li, 15000 * 3);
  EXPECT_LT(li, 15000 * 5);
}

TEST_F(DbgenTest, Deterministic) {
  DbgenOptions opts;
  opts.scale_factor = 0.002;
  std::unique_ptr<Catalog> a = GenerateTpch(opts);
  std::unique_ptr<Catalog> b = GenerateTpch(opts);
  const Table& la = a->Get("lineitem");
  const Table& lb = b->Get("lineitem");
  ASSERT_EQ(la.num_rows(), lb.num_rows());
  for (int64_t r = 0; r < la.num_rows(); r += 97) {
    for (int c = 0; c < 16; c++) {
      EXPECT_EQ(la.GetValue(r, c).ToString(), lb.GetValue(r, c).ToString());
    }
  }
}

TEST_F(DbgenTest, OrdersSortedOnDateAndLineitemClustered) {
  const Table& o = db_->Get("orders");
  int od = o.ColumnIndex("o_orderdate");
  for (int64_t r = 1; r < o.num_rows(); r += 13) {
    EXPECT_LE(o.GetValue(r - 1, od).AsI64(), o.GetValue(r, od).AsI64());
  }
  // lineitem is generated in order of orders -> l_orderkey nondecreasing.
  const Table& l = db_->Get("lineitem");
  int ok = l.ColumnIndex("l_orderkey");
  int64_t prev = l.GetValue(0, ok).AsI64();
  int64_t out_of_order = 0;
  for (int64_t r = 1; r < l.num_rows(); r++) {
    int64_t cur = l.GetValue(r, ok).AsI64();
    out_of_order += cur < prev;
    prev = cur;
  }
  EXPECT_EQ(out_of_order, 0);
}

TEST_F(DbgenTest, ReferentialIntegrity) {
  const Table& l = db_->Get("lineitem");
  int64_t n_part = db_->Get("part").num_rows();
  int64_t n_supp = db_->Get("supplier").num_rows();
  int64_t n_ord = db_->Get("orders").num_rows();
  int pk = l.ColumnIndex("l_partkey"), sk = l.ColumnIndex("l_suppkey"),
      ok = l.ColumnIndex("l_orderkey");
  for (int64_t r = 0; r < l.num_rows(); r += 31) {
    EXPECT_GE(l.GetValue(r, pk).AsI64(), 1);
    EXPECT_LE(l.GetValue(r, pk).AsI64(), n_part);
    EXPECT_GE(l.GetValue(r, sk).AsI64(), 1);
    EXPECT_LE(l.GetValue(r, sk).AsI64(), n_supp);
    EXPECT_LE(l.GetValue(r, ok).AsI64(), n_ord);
  }
  // (l_partkey, l_suppkey) pairs always exist in partsupp.
  const Table& ps = db_->Get("partsupp");
  std::unordered_set<int64_t> pairs;
  for (int64_t r = 0; r < ps.num_rows(); r++) {
    pairs.insert(ps.GetValue(r, 0).AsI64() * 1000000 + ps.GetValue(r, 1).AsI64());
  }
  for (int64_t r = 0; r < l.num_rows(); r += 17) {
    int64_t key = l.GetValue(r, pk).AsI64() * 1000000 + l.GetValue(r, sk).AsI64();
    EXPECT_EQ(pairs.count(key), 1u);
  }
}

TEST_F(DbgenTest, CustomersNotDivisibleByThreeHaveOrders) {
  const Table& o = db_->Get("orders");
  int ck = o.ColumnIndex("o_custkey");
  for (int64_t r = 0; r < o.num_rows(); r += 7) {
    EXPECT_NE(o.GetValue(r, ck).AsI64() % 3, 0);  // dbgen rule (Q22 relies on it)
  }
}

TEST_F(DbgenTest, LineitemDomains) {
  const Table& l = db_->Get("lineitem");
  int qty = l.ColumnIndex("l_quantity"), disc = l.ColumnIndex("l_discount"),
      tax = l.ColumnIndex("l_tax"), rf = l.ColumnIndex("l_returnflag"),
      ls = l.ColumnIndex("l_linestatus"), sd = l.ColumnIndex("l_shipdate"),
      rd = l.ColumnIndex("l_receiptdate");
  int32_t current = ParseDate("1995-06-17");
  for (int64_t r = 0; r < l.num_rows(); r += 11) {
    double q = l.GetValue(r, qty).AsF64();
    EXPECT_GE(q, 1);
    EXPECT_LE(q, 50);
    EXPECT_GE(l.GetValue(r, disc).AsF64(), 0.0);
    EXPECT_LE(l.GetValue(r, disc).AsF64(), 0.10 + 1e-9);
    EXPECT_LE(l.GetValue(r, tax).AsF64(), 0.08 + 1e-9);
    char flag = static_cast<char>(l.GetValue(r, rf).AsI64());
    char status = static_cast<char>(l.GetValue(r, ls).AsI64());
    EXPECT_TRUE(flag == 'R' || flag == 'A' || flag == 'N');
    EXPECT_TRUE(status == 'O' || status == 'F');
    // The spec's consistency rules.
    if (l.GetValue(r, rd).AsI64() <= current) {
      EXPECT_NE(flag, 'N');
    }
    EXPECT_EQ(status == 'O', l.GetValue(r, sd).AsI64() > current);
  }
}

TEST_F(DbgenTest, EnumColumnsAreCompressed) {
  const Table& l = db_->Get("lineitem");
  EXPECT_TRUE(l.column(l.ColumnIndex("l_quantity")).is_enum());
  EXPECT_EQ(l.column(l.ColumnIndex("l_quantity")).dict()->size(), 50);
  EXPECT_TRUE(l.column(l.ColumnIndex("l_discount")).is_enum());
  EXPECT_EQ(l.column(l.ColumnIndex("l_discount")).dict()->size(), 11);
  EXPECT_EQ(l.column(l.ColumnIndex("l_tax")).dict()->size(), 9);
  EXPECT_EQ(l.column(l.ColumnIndex("l_shipmode")).dict()->size(), 7);
  EXPECT_EQ(l.column(l.ColumnIndex("l_shipinstruct")).dict()->size(), 4);
  EXPECT_FALSE(l.column(l.ColumnIndex("l_extendedprice")).is_enum());
  const Table& p = db_->Get("part");
  EXPECT_EQ(p.column(p.ColumnIndex("p_brand")).dict()->size(), 25);
  EXPECT_EQ(p.column(p.ColumnIndex("p_type")).dict()->size(), 150);
  EXPECT_EQ(p.column(p.ColumnIndex("p_container")).dict()->size(), 40);
}

TEST_F(DbgenTest, JoinAndSummaryIndicesBuilt) {
  const Table& l = db_->Get("lineitem");
  EXPECT_GE(l.schema().Find(Table::JoinIndexName("orders")), 0);
  EXPECT_GE(l.schema().Find(Table::JoinIndexName("part")), 0);
  EXPECT_NE(l.summary_index(l.ColumnIndex("l_shipdate")), nullptr);
  const Table& o = db_->Get("orders");
  EXPECT_NE(o.summary_index(o.ColumnIndex("o_orderdate")), nullptr);
  // Join index correctness spot-check.
  int ji = l.ColumnIndex(Table::JoinIndexName("orders"));
  const Table& ord = db_->Get("orders");
  for (int64_t r = 0; r < l.num_rows(); r += 199) {
    int64_t target = l.GetValue(r, ji).AsI64();
    EXPECT_EQ(ord.GetValue(target, 0).AsI64(),
              l.GetValue(r, l.ColumnIndex("l_orderkey")).AsI64());
  }
}

TEST_F(DbgenTest, TextSelectivitiesExist) {
  // The LIKE patterns the queries probe must match a plausible fraction.
  const Table& o = db_->Get("orders");
  int oc = o.ColumnIndex("o_comment");
  int64_t special = 0;
  for (int64_t r = 0; r < o.num_rows(); r++) {
    if (LikeMatch(o.GetValue(r, oc).AsStr().c_str(), "%special%requests%")) {
      special++;
    }
  }
  EXPECT_GT(special, 0);
  EXPECT_LT(special, o.num_rows() / 20);

  const Table& p = db_->Get("part");
  int pn = p.ColumnIndex("p_name");
  int64_t green = 0, forest = 0;
  for (int64_t r = 0; r < p.num_rows(); r++) {
    std::string name = p.GetValue(r, pn).AsStr();
    if (LikeMatch(name.c_str(), "%green%")) green++;
    if (LikeMatch(name.c_str(), "forest%")) forest++;
  }
  EXPECT_GT(green, 0);
  EXPECT_GT(forest, 0);
}

TEST_F(DbgenTest, RetailPriceFormula) {
  const Table& p = db_->Get("part");
  int rp = p.ColumnIndex("p_retailprice");
  for (int64_t r = 0; r < p.num_rows(); r += 43) {
    int64_t pk = p.GetValue(r, 0).AsI64();
    double expect =
        (90000.0 + ((pk / 10) % 20001) + 100.0 * (pk % 1000)) / 100.0;
    EXPECT_DOUBLE_EQ(p.GetValue(r, rp).AsF64(), expect);
  }
}

TEST_F(DbgenTest, OrderTotalsConsistent) {
  // o_totalprice equals the sum over its lineitems of
  // extendedprice*(1+tax)*(1-discount).
  const Table& o = db_->Get("orders");
  const Table& l = db_->Get("lineitem");
  std::vector<double> totals(o.num_rows() + 1, 0.0);
  int ok = l.ColumnIndex("l_orderkey"), ep = l.ColumnIndex("l_extendedprice"),
      tx = l.ColumnIndex("l_tax"), dc = l.ColumnIndex("l_discount");
  for (int64_t r = 0; r < l.num_rows(); r++) {
    totals[l.GetValue(r, ok).AsI64()] +=
        l.GetValue(r, ep).AsF64() * (1 + l.GetValue(r, tx).AsF64()) *
        (1 - l.GetValue(r, dc).AsF64());
  }
  int tp = o.ColumnIndex("o_totalprice");
  for (int64_t r = 0; r < o.num_rows(); r += 29) {
    EXPECT_NEAR(o.GetValue(r, tp).AsF64(), totals[o.GetValue(r, 0).AsI64()],
                1e-6 * totals[o.GetValue(r, 0).AsI64()]);
  }
}

}  // namespace
}  // namespace x100

// Golden-reference tests: Q1, Q3, Q6 and Q13 recomputed with straight scalar
// C++ over the generated data — a third, engine-independent opinion on top of
// the X100-vs-MIL cross-check.

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "common/date.h"
#include "exec/operator.h"
#include "primitives/string_prims.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace x100 {
namespace {

class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbgenOptions opts;
    opts.scale_factor = 0.01;
    db_ = GenerateTpch(opts).release();
  }
  static Catalog* db_;
};
Catalog* GoldenTest::db_ = nullptr;

TEST_F(GoldenTest, Q1) {
  const Table& l = db_->Get("lineitem");
  int rf = l.ColumnIndex("l_returnflag"), ls = l.ColumnIndex("l_linestatus"),
      qty = l.ColumnIndex("l_quantity"), ep = l.ColumnIndex("l_extendedprice"),
      dc = l.ColumnIndex("l_discount"), tx = l.ColumnIndex("l_tax"),
      sd = l.ColumnIndex("l_shipdate");
  int32_t hi = ParseDate("1998-09-02");

  struct G {
    double sq = 0, sb = 0, sdp = 0, sc = 0, sdisc = 0;
    int64_t n = 0;
  };
  std::map<std::pair<char, char>, G> groups;
  for (int64_t r = 0; r < l.num_rows(); r++) {
    if (l.GetValue(r, sd).AsI64() > hi) continue;
    G& g = groups[{static_cast<char>(l.GetValue(r, rf).AsI64()),
                   static_cast<char>(l.GetValue(r, ls).AsI64())}];
    double q = l.GetValue(r, qty).AsF64(), e = l.GetValue(r, ep).AsF64(),
           d = l.GetValue(r, dc).AsF64(), t = l.GetValue(r, tx).AsF64();
    g.sq += q;
    g.sb += e;
    g.sdp += e * (1 - d);
    g.sc += e * (1 - d) * (1 + t);
    g.sdisc += d;
    g.n++;
  }

  ExecContext ctx;
  std::unique_ptr<Table> got = RunX100Query(1, &ctx, *db_);
  ASSERT_EQ(got->num_rows(), static_cast<int64_t>(groups.size()));
  int64_t row = 0;
  for (const auto& [key, g] : groups) {  // std::map iterates in (rf,ls) order
    EXPECT_EQ(got->GetValue(row, 0).AsI64(), key.first);
    EXPECT_EQ(got->GetValue(row, 1).AsI64(), key.second);
    EXPECT_NEAR(got->GetValue(row, 2).AsF64(), g.sq, 1e-6 * g.sq);
    EXPECT_NEAR(got->GetValue(row, 3).AsF64(), g.sb, 1e-6 * g.sb);
    EXPECT_NEAR(got->GetValue(row, 4).AsF64(), g.sdp, 1e-6 * g.sdp);
    EXPECT_NEAR(got->GetValue(row, 5).AsF64(), g.sc, 1e-6 * g.sc);
    double n = static_cast<double>(g.n);
    EXPECT_NEAR(got->GetValue(row, 6).AsF64(), g.sq / n, 1e-6 * g.sq / n);
    EXPECT_NEAR(got->GetValue(row, 7).AsF64(), g.sb / n, 1e-6 * g.sb / n);
    EXPECT_NEAR(got->GetValue(row, 8).AsF64(), g.sdisc / n, 1e-6);
    EXPECT_EQ(got->GetValue(row, 9).AsI64(), g.n);
    row++;
  }
}

TEST_F(GoldenTest, Q6) {
  const Table& l = db_->Get("lineitem");
  int qty = l.ColumnIndex("l_quantity"), ep = l.ColumnIndex("l_extendedprice"),
      dc = l.ColumnIndex("l_discount"), sd = l.ColumnIndex("l_shipdate");
  int32_t lo = ParseDate("1994-01-01"), hi = ParseDate("1995-01-01");
  double revenue = 0;
  for (int64_t r = 0; r < l.num_rows(); r++) {
    int32_t d = static_cast<int32_t>(l.GetValue(r, sd).AsI64());
    double disc = l.GetValue(r, dc).AsF64();
    if (d >= lo && d < hi && disc >= 0.05 && disc <= 0.07 &&
        l.GetValue(r, qty).AsF64() < 24) {
      revenue += l.GetValue(r, ep).AsF64() * disc;
    }
  }
  ExecContext ctx;
  std::unique_ptr<Table> got = RunX100Query(6, &ctx, *db_);
  ASSERT_EQ(got->num_rows(), 1);
  EXPECT_NEAR(got->GetValue(0, 0).AsF64(), revenue, 1e-6 * revenue);
}

TEST_F(GoldenTest, Q3) {
  const Table& l = db_->Get("lineitem");
  const Table& o = db_->Get("orders");
  const Table& c = db_->Get("customer");
  int32_t date = ParseDate("1995-03-15");

  // seg[custkey], odate/oprio by orderkey.
  std::vector<bool> building(c.num_rows() + 1, false);
  int seg = c.ColumnIndex("c_mktsegment");
  for (int64_t r = 0; r < c.num_rows(); r++) {
    building[c.GetValue(r, 0).AsI64()] =
        c.GetValue(r, seg).AsStr() == "BUILDING";
  }
  struct OrdInfo {
    int32_t date;
    int32_t prio;
    int64_t cust;
  };
  std::vector<OrdInfo> ords(o.num_rows() + 1);
  int od = o.ColumnIndex("o_orderdate"), op = o.ColumnIndex("o_shippriority"),
      oc = o.ColumnIndex("o_custkey");
  for (int64_t r = 0; r < o.num_rows(); r++) {
    ords[o.GetValue(r, 0).AsI64()] = {
        static_cast<int32_t>(o.GetValue(r, od).AsI64()),
        static_cast<int32_t>(o.GetValue(r, op).AsI64()),
        o.GetValue(r, oc).AsI64()};
  }
  std::map<int64_t, double> revenue;  // orderkey -> revenue
  int ok = l.ColumnIndex("l_orderkey"), sd = l.ColumnIndex("l_shipdate"),
      ep = l.ColumnIndex("l_extendedprice"), dc = l.ColumnIndex("l_discount");
  for (int64_t r = 0; r < l.num_rows(); r++) {
    if (l.GetValue(r, sd).AsI64() <= date) continue;
    int64_t key = l.GetValue(r, ok).AsI64();
    const OrdInfo& oi = ords[key];
    if (oi.date >= date || !building[oi.cust]) continue;
    revenue[key] +=
        l.GetValue(r, ep).AsF64() * (1 - l.GetValue(r, dc).AsF64());
  }
  struct Out {
    int64_t key;
    double rev;
    int32_t date;
    int32_t prio;
  };
  std::vector<Out> rows;
  for (const auto& [key, rev] : revenue) {
    rows.push_back({key, rev, ords[key].date, ords[key].prio});
  }
  std::sort(rows.begin(), rows.end(), [](const Out& a, const Out& b) {
    if (a.rev != b.rev) return a.rev > b.rev;
    if (a.date != b.date) return a.date < b.date;
    return a.key < b.key;
  });
  if (rows.size() > 10) rows.resize(10);

  ExecContext ctx;
  std::unique_ptr<Table> got = RunX100Query(3, &ctx, *db_);
  ASSERT_EQ(got->num_rows(), static_cast<int64_t>(rows.size()));
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(got->GetValue(i, 0).AsI64(), rows[i].key);
    EXPECT_NEAR(got->GetValue(i, 1).AsF64(), rows[i].rev, 1e-6 * rows[i].rev);
    EXPECT_EQ(got->GetValue(i, 2).AsI64(), rows[i].date);
    EXPECT_EQ(got->GetValue(i, 3).AsI64(), rows[i].prio);
  }
}

TEST_F(GoldenTest, Q13) {
  // NOT LIKE through the reference matcher, independent of the shape-
  // specialized X100 primitive and of the MIL plan.
  const Table& o = db_->Get("orders");
  const Table& c = db_->Get("customer");
  int ocust = o.ColumnIndex("o_custkey"), ocom = o.ColumnIndex("o_comment");
  std::map<int64_t, int64_t> orders_of;  // custkey -> qualifying orders
  for (int64_t r = 0; r < o.num_rows(); r++) {
    std::string comment = o.GetValue(r, ocom).AsStr();
    if (LikeMatch(comment.c_str(), "%special%requests%")) continue;
    orders_of[o.GetValue(r, ocust).AsI64()]++;
  }
  std::map<int64_t, int64_t> custdist;  // c_count -> customers
  int ckey = c.ColumnIndex("c_custkey");
  for (int64_t r = 0; r < c.num_rows(); r++) {
    auto it = orders_of.find(c.GetValue(r, ckey).AsI64());
    custdist[it == orders_of.end() ? 0 : it->second]++;
  }
  std::vector<std::pair<int64_t, int64_t>> rows;  // (custdist, c_count)
  for (const auto& [count, n] : custdist) rows.emplace_back(n, count);
  std::sort(rows.rbegin(), rows.rend());  // custdist desc, c_count desc

  ExecContext ctx;
  std::unique_ptr<Table> got = RunX100Query(13, &ctx, *db_);
  ASSERT_EQ(got->num_rows(), static_cast<int64_t>(rows.size()));
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(got->GetValue(i, 0).AsI64(), rows[i].second);
    EXPECT_EQ(got->GetValue(i, 1).AsI64(), rows[i].first);
  }
}

}  // namespace
}  // namespace x100

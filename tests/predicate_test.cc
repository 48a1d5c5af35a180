// Property tests for PredicateEvaluator: random and/or/comparison trees over
// mixed-type data are checked against a scalar reference evaluator across
// vector sizes — plus edge cases for Between bounds, IN-lists, NOT LIKE,
// dictionary rewrites and column-vs-expression comparisons.

#include <functional>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/plan.h"
#include "storage/catalog.h"

namespace x100 {
namespace {

using namespace x100::exprs;
using plan::OpPtr;

struct Row {
  int32_t a;
  double f;
  std::string tag;   // enum column
  int32_t day;
};

struct Dataset {
  std::unique_ptr<Table> table;
  std::vector<Row> rows;

  explicit Dataset(int n, uint64_t seed) {
    table = std::make_unique<Table>(
        "d", std::vector<Table::ColumnSpec>{{"a", TypeId::kI32, false},
                                            {"f", TypeId::kF64, false},
                                            {"tag", TypeId::kStr, true},
                                            {"day", TypeId::kDate, false}});
    const char* tags[4] = {"red", "green", "blue", "teal"};
    Rng rng(seed);
    for (int i = 0; i < n; i++) {
      Row r;
      r.a = static_cast<int32_t>(rng.Uniform(-50, 50));
      r.f = static_cast<double>(rng.Uniform(0, 1000)) / 10.0;
      r.tag = tags[rng.Uniform(0, 3)];
      r.day = static_cast<int32_t>(8035 + rng.Uniform(0, 400));
      rows.push_back(r);
      table->AppendRow({Value::I32(r.a), Value::F64(r.f), Value::Str(r.tag),
                        Value::Date(r.day)});
    }
    table->Freeze();
  }

  /// Runs Select(pred) through the engine; returns matching `a` values in
  /// scan order.
  std::vector<int32_t> Engine(ExprPtr pred, int vector_size = 256) const {
    ExecContext ctx;
    ctx.vector_size = vector_size;
    OpPtr op = plan::Scan(&ctx, *table, {"a", "f", "tag", "day"});
    op = plan::Select(&ctx, std::move(op), std::move(pred));
    std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
    std::vector<int32_t> out;
    for (int64_t i = 0; i < r->num_rows(); i++) {
      out.push_back(static_cast<int32_t>(r->GetValue(i, 0).AsI64()));
    }
    return out;
  }

  std::vector<int32_t> Reference(
      const std::function<bool(const Row&)>& pred) const {
    std::vector<int32_t> out;
    for (const Row& r : rows) {
      if (pred(r)) out.push_back(r.a);
    }
    return out;
  }
};

TEST(PredicateTest, RandomAndOrTreesMatchReference) {
  Dataset d(2000, 42);
  Rng rng(7);
  for (int trial = 0; trial < 30; trial++) {
    // Random conjunction/disjunction of three leaves.
    int32_t va = static_cast<int32_t>(rng.Uniform(-50, 50));
    double vf = static_cast<double>(rng.Uniform(0, 1000)) / 10.0;
    const char* tags[4] = {"red", "green", "blue", "teal"};
    std::string vt = tags[rng.Uniform(0, 3)];
    bool use_or = rng.Uniform(0, 1) == 1;
    bool flip = rng.Uniform(0, 1) == 1;

    auto leaf_a = Lt(Col("a"), LitI32(va));
    auto leaf_f = Ge(Col("f"), LitF64(vf));
    auto leaf_t = flip ? Ne(Col("tag"), LitStr(vt)) : Eq(Col("tag"), LitStr(vt));
    ExprPtr pred =
        use_or ? Or(And(std::move(leaf_a), std::move(leaf_f)), std::move(leaf_t))
               : And(Or(std::move(leaf_a), std::move(leaf_f)), std::move(leaf_t));

    auto ref = d.Reference([&](const Row& r) {
      bool la = r.a < va;
      bool lf = r.f >= vf;
      bool lt = flip ? r.tag != vt : r.tag == vt;
      return use_or ? ((la && lf) || lt) : ((la || lf) && lt);
    });
    for (int vs : {3, 256, 4096}) {
      EXPECT_EQ(d.Engine(pred->Clone(), vs), ref)
          << "trial " << trial << " vs=" << vs;
    }
  }
}

TEST(PredicateTest, BetweenIsInclusive) {
  Dataset d(500, 1);
  auto ref = d.Reference([](const Row& r) { return r.a >= -10 && r.a <= 10; });
  EXPECT_EQ(d.Engine(Between(Col("a"), LitI32(-10), LitI32(10))), ref);
}

TEST(PredicateTest, InListAndAbsentValues) {
  Dataset d(500, 2);
  auto ref = d.Reference(
      [](const Row& r) { return r.tag == "red" || r.tag == "teal"; });
  EXPECT_EQ(d.Engine(In(Col("tag"),
                        {Value::Str("red"), Value::Str("teal"),
                         Value::Str("mauve")})),  // absent: const-false arm
            ref);
}

TEST(PredicateTest, DateRange) {
  Dataset d(500, 3);
  auto ref = d.Reference(
      [](const Row& r) { return r.day > 8100 && r.day <= 8300; });
  EXPECT_EQ(d.Engine(And(Gt(Col("day"), Lit(Value::Date(8100))),
                         Le(Col("day"), Lit(Value::Date(8300))))),
            ref);
}

TEST(PredicateTest, GeneralCompareOnEnumColumnDecodes) {
  // lt/gt on a dictionary column can't compare codes; it must decode.
  Dataset d(500, 4);
  auto ref = d.Reference([](const Row& r) { return r.tag < "green"; });
  EXPECT_EQ(d.Engine(Lt(Col("tag"), LitStr("green"))), ref);
}

TEST(PredicateTest, CompareColumnToExpression) {
  Dataset d(500, 5);
  // f < 2*a + 30  (map steps feeding a col-col select).
  auto ref = d.Reference(
      [](const Row& r) { return r.f < 2.0 * r.a + 30.0; });
  EXPECT_EQ(d.Engine(Lt(Col("f"),
                        Add(Mul(LitF64(2.0), Col("a")), LitF64(30.0)))),
            ref);
}

TEST(PredicateTest, ConstFlippedComparison) {
  // <const> op <col> is normalized by flipping the operator.
  Dataset d(500, 6);
  auto ref = d.Reference([](const Row& r) { return 5 < r.a; });
  EXPECT_EQ(d.Engine(Lt(LitI32(5), Col("a"))), ref);
}

TEST(PredicateTest, NotLike) {
  Dataset d(500, 7);
  auto ref = d.Reference([](const Row& r) { return r.tag.find('e') == std::string::npos; });
  EXPECT_EQ(d.Engine(NotLike(Col("tag"), "%e%")), ref);
}

TEST(PredicateTest, NotComplementsSelections) {
  Dataset d(700, 9);
  auto ref = d.Reference([](const Row& r) { return !(r.a < 0 || r.tag == "red"); });
  EXPECT_EQ(d.Engine(Not(Or(Lt(Col("a"), LitI32(0)),
                            Eq(Col("tag"), LitStr("red"))))),
            ref);
  // Double negation is identity.
  auto ref2 = d.Reference([](const Row& r) { return r.a < 0; });
  EXPECT_EQ(d.Engine(Not(Not(Lt(Col("a"), LitI32(0))))), ref2);
  // NOT under AND (chained through a shrinking selection vector).
  auto ref3 = d.Reference([](const Row& r) { return r.f > 50 && r.tag != "blue"; });
  EXPECT_EQ(d.Engine(And(Gt(Col("f"), LitF64(50.0)),
                         Not(Eq(Col("tag"), LitStr("blue"))))),
            ref3);
}

TEST(PredicateTest, EmptyAndFullSelections) {
  Dataset d(300, 8);
  EXPECT_TRUE(d.Engine(Lt(Col("a"), LitI32(-1000))).empty());
  EXPECT_EQ(d.Engine(Ge(Col("a"), LitI32(-1000))).size(), d.rows.size());
}

}  // namespace
}  // namespace x100

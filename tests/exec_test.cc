// Unit + property tests for the X100 engine: scan (views, deletes, deltas,
// SMA pruning), expression binding (casts, CSE, dictionary rewrites),
// select/project, the three aggregation operators (equivalence property),
// joins (hash vs nested-loop equivalence, semi/anti/outer, fetch joins),
// TopN vs Order, and the Array operator.

#include <cstring>
#include <limits>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/bm_scan.h"
#include "exec/plan.h"
#include "exec/row_util.h"
#include "exec/trace.h"
#include "primitives/kernels.h"
#include "storage/catalog.h"
#include "tests/test_util.h"

namespace x100 {
namespace {

using namespace x100::exprs;
using plan::OpPtr;
using testing::ExpectTablesEqual;

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

/// A little mixed-type table with an enum column and deterministic content.
std::unique_ptr<Table> MakeData(int n, bool enum_tag = true) {
  auto t = std::make_unique<Table>(
      "data", std::vector<Table::ColumnSpec>{{"id", TypeId::kI32, false},
                                             {"tag", TypeId::kStr, enum_tag},
                                             {"qty", TypeId::kF64, true},
                                             {"price", TypeId::kF64, false},
                                             {"day", TypeId::kDate, false}});
  const char* tags[3] = {"red", "green", "blue"};
  Rng rng(77);
  for (int i = 0; i < n; i++) {
    t->AppendRow({Value::I32(i), Value::Str(tags[i % 3]),
                  Value::F64(static_cast<double>(rng.Uniform(1, 50))),
                  Value::F64(rng.NextDouble() * 100),
                  Value::Date(8035 + i / 10)});
  }
  t->Freeze();
  return t;
}

// ---- Scan -------------------------------------------------------------------

TEST(ScanTest, ZeroCopyViewsOnCleanFragments) {
  std::unique_ptr<Table> t = MakeData(5000);
  ExecContext ctx;
  ScanOp scan(&ctx, *t, {"id", "price"});
  scan.Open();
  int64_t seen = 0;
  while (VectorBatch* b = scan.Next()) {
    EXPECT_TRUE(b->column(0).is_view());  // no copy
    const int32_t* ids = b->column(0).Data<int32_t>();
    for (int i = 0; i < b->count(); i++) EXPECT_EQ(ids[i], seen + i);
    seen += b->count();
  }
  EXPECT_EQ(seen, 5000);
}

TEST(ScanTest, SkipsDeletedAndAppendsDeltas) {
  std::unique_ptr<Table> t = MakeData(100);
  for (int64_t r = 0; r < 100; r += 7) ASSERT_TRUE(t->Delete(r).ok());
  t->Insert({Value::I32(1000), Value::Str("red"), Value::F64(3),
             Value::F64(1.0), Value::Date(9000)});
  ExecContext ctx;
  ctx.vector_size = 16;
  ScanOp scan(&ctx, *t, {"id", "tag"});
  scan.Open();
  std::set<int64_t> ids;
  while (VectorBatch* b = scan.Next()) {
    for (int j = 0; j < b->sel_count(); j++) {
      ids.insert(BatchValueAt(*b, 0, b->sel() ? b->sel()[j] : j).AsI64());
    }
  }
  EXPECT_EQ(static_cast<int64_t>(ids.size()), t->num_rows());
  EXPECT_EQ(ids.count(0), 0u);   // deleted
  EXPECT_EQ(ids.count(7), 0u);   // deleted
  EXPECT_EQ(ids.count(1), 1u);
  EXPECT_EQ(ids.count(1000), 1u);  // delta row visible
}

TEST(ScanTest, RowIdEmission) {
  std::unique_ptr<Table> t = MakeData(50);
  ASSERT_TRUE(t->Delete(3).ok());
  ExecContext ctx;
  ScanOp scan(&ctx, *t, ScanSpec{.cols = {"id"}, .rowid = "#rowid"});
  scan.Open();
  VectorBatch* b = scan.Next();
  ASSERT_NE(b, nullptr);
  const int64_t* rid = static_cast<const int64_t*>(b->column(1).data());
  EXPECT_EQ(rid[0], 0);
  EXPECT_EQ(rid[3], 4);  // 3 was deleted
}

TEST(ScanTest, SummaryIndexPruning) {
  std::unique_ptr<Table> t = MakeData(50000);  // day clustered: i/10
  t->BuildSummaryIndex("day");
  ExecContext ctx;
  Profiler prof;
  ctx.profiler = &prof;
  OpPtr op = plan::Scan(&ctx, *t,
                        ScanSpec{.cols = {"day", "id"},
                                 .range = ScanSpec::Range{"day", 8135, 8137}});
  op = plan::Select(&ctx, std::move(op),
                    exprs::Between(Col("day"), Lit(Value::Date(8135)),
                                   Lit(Value::Date(8137))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  EXPECT_EQ(r->num_rows(), 30);  // 10 ids per day, 3 days
  // The scan must have touched far fewer than 50000 tuples.
  const PrimitiveStats* scan_stats = nullptr;
  for (const auto& [name, s] : prof.Rows()) {
    if (name == "Scan") scan_stats = s;
  }
  ASSERT_NE(scan_stats, nullptr);
  EXPECT_LT(scan_stats->tuples, 5000u);
}

// ---- Expression binding -----------------------------------------------------

TEST(ExprTest, MixedTypeArithmeticWidens) {
  std::unique_ptr<Table> t = MakeData(10);
  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "price"});
  op = plan::Project(&ctx, std::move(op),
                     NE(As("x", Mul(Col("id"), Col("price")))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  for (int64_t i = 0; i < 10; i++) {
    EXPECT_DOUBLE_EQ(r->GetValue(i, 0).AsF64(),
                     static_cast<double>(i) * t->GetValue(i, 3).AsF64());
  }
}

TEST(ExprTest, EnumDecodeIsAutomatic) {
  std::unique_ptr<Table> t = MakeData(30);
  ExecContext ctx;
  Profiler prof;
  ctx.profiler = &prof;
  OpPtr op = plan::Scan(&ctx, *t, {"qty"});
  op = plan::Project(&ctx, std::move(op),
                     NE(As("double_qty", Mul(LitF64(2.0), Col("qty")))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  for (int64_t i = 0; i < 30; i++) {
    EXPECT_DOUBLE_EQ(r->GetValue(i, 0).AsF64(), 2 * t->GetValue(i, 2).AsF64());
  }
  bool fetched = false;
  for (const auto& [name, s] : prof.Rows()) {
    if (name.find("map_fetch_f64_col_u8_col") == 0) fetched = true;
  }
  EXPECT_TRUE(fetched);  // the automatic Fetch1Join of §4.3
}

TEST(ExprTest, DictEqRewriteComparesCodes) {
  std::unique_ptr<Table> t = MakeData(300);
  ExecContext ctx;
  Profiler prof;
  ctx.profiler = &prof;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "tag"});
  op = plan::Select(&ctx, std::move(op), Eq(Col("tag"), LitStr("green")));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  EXPECT_EQ(r->num_rows(), 100);
  // The select ran on u8 codes, not decoded strings.
  bool code_select = false, str_select = false;
  for (const auto& [name, s] : prof.Rows()) {
    if (name.find("select_eq_u8") == 0) code_select = true;
    if (name.find("select_eq_str") == 0) str_select = true;
  }
  EXPECT_TRUE(code_select);
  EXPECT_FALSE(str_select);
}

TEST(ExprTest, DictEqAbsentConstantIsConstFalse) {
  std::unique_ptr<Table> t = MakeData(50);
  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "tag"});
  op = plan::Select(&ctx, std::move(op), Eq(Col("tag"), LitStr("mauve")));
  EXPECT_EQ(RunPlan(std::move(op), "r")->num_rows(), 0);
  OpPtr op2 = plan::Scan(&ctx, *t, {"id", "tag"});
  op2 = plan::Select(&ctx, std::move(op2), Ne(Col("tag"), LitStr("mauve")));
  EXPECT_EQ(RunPlan(std::move(op2), "r2")->num_rows(), 50);
}

TEST(ExprTest, OrPredicateMergesSelectionVectors) {
  std::unique_ptr<Table> t = MakeData(120);
  ExecContext ctx;
  ctx.vector_size = 32;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "tag"});
  op = plan::Select(&ctx, std::move(op),
                    Or(Eq(Col("tag"), LitStr("red")),
                       Eq(Col("tag"), LitStr("blue"))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  EXPECT_EQ(r->num_rows(), 80);
  // Positions stayed ascending through the merge: ids are sorted.
  for (int64_t i = 1; i < r->num_rows(); i++) {
    EXPECT_LT(r->GetValue(i - 1, 0).AsI64(), r->GetValue(i, 0).AsI64());
  }
}

TEST(ExprTest, CommonSubexpressionsBindOnce) {
  // Q1-style reuse: discountprice feeds two outputs; the binder's CSE must
  // evaluate the shared sub-tree once per vector, not once per use.
  std::unique_ptr<Table> t = MakeData(4096);
  ExecContext ctx;
  ctx.vector_size = 1024;
  Profiler prof;
  ctx.profiler = &prof;
  OpPtr op = plan::Scan(&ctx, *t, {"qty", "price"});
  auto disc_price = [] {
    return Mul(Sub(LitF64(1.0), Col("qty")), Col("price"));
  };
  op = plan::Project(&ctx, std::move(op),
                     NE(As("a", disc_price()),
                        As("b", Mul(disc_price(), LitF64(2.0)))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  for (int64_t i = 0; i < 10; i++) {
    EXPECT_DOUBLE_EQ(r->GetValue(i, 1).AsF64(), 2 * r->GetValue(i, 0).AsF64());
  }
  for (const auto& [name, s] : prof.Rows()) {
    if (name == "map_sub_f64_val_f64_col") {
      // One evaluation per input tuple, not two.
      EXPECT_EQ(s->tuples, 4096u);
    }
    if (name.find("map_fetch_f64_col_u8_col") == 0) {
      // qty decoded once per tuple despite three textual uses.
      EXPECT_EQ(s->tuples, 4096u);
    }
  }
}

TEST(ExprTest, CompoundFusionSameResult) {
  std::unique_ptr<Table> t = MakeData(500);
  auto make = [&](ExecContext* ctx) {
    OpPtr op = plan::Scan(ctx, *t, {"qty", "price"});
    op = plan::Project(
        ctx, std::move(op),
        NE(As("v", Mul(Sub(LitF64(1.0), Col("qty")), Col("price")))));
    return RunPlan(std::move(op), "r");
  };
  ExecContext plain;
  plain.fuse_compound_primitives = false;
  ExecContext fused;
  fused.fuse_compound_primitives = true;
  Profiler prof;
  fused.profiler = &prof;
  std::unique_ptr<Table> a = make(&plain);
  std::unique_ptr<Table> b = make(&fused);
  ExpectTablesEqual(*a, *b, 0.0);
  bool saw_fused = false;
  for (const auto& [name, s] : prof.Rows()) {
    if (name == "map_fused_sub_vc_mul_pc_f64") saw_fused = true;
  }
  EXPECT_TRUE(saw_fused);
}

TEST(ExprTest, YearFunction) {
  std::unique_ptr<Table> t = MakeData(10);
  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *t, {"day"});
  op = plan::Project(&ctx, std::move(op), NE(As("y", Call1("year", Col("day")))));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  EXPECT_EQ(r->GetValue(0, 0).AsI64(), 1992);  // day 8035 = 1992-01-01
}

// ---- Aggregation equivalence (property) -------------------------------------

/// Input for the aggregation differentials: 200 runs, each with its own
/// distinct i8 key `g8` (negative ones included) so the data is clustered on
/// (g8, g8b); enum keys of dictionary size 1, 3 and 256 that are not
/// clustered; keys that exercise Aggr's id sources (a dense i32, i32 values
/// just above INT32_MIN, a date, a plain string, `kgrow`, which leaves the
/// first vectors' span upwards and then downwards, and `ksparse`, whose
/// first 90 groups are dense before keys ~1e9 apart arrive); a filter
/// column; and values of every aggregated type. The f64
/// values include NaN, 0.0 and -0.0, which make min/max and sums depend on
/// the exact update order.
std::unique_ptr<Table> MakeAggrInput(uint64_t seed) {
  auto t = std::make_unique<Table>(
      "aggr_in", std::vector<Table::ColumnSpec>{{"g8", TypeId::kI8, false},
                                                {"g8b", TypeId::kI8, false},
                                                {"d1", TypeId::kStr, true},
                                                {"d3", TypeId::kStr, true},
                                                {"d256", TypeId::kStr, true},
                                                {"k32", TypeId::kI32, false},
                                                {"kneg", TypeId::kI32, false},
                                                {"kdate", TypeId::kDate, false},
                                                {"ks", TypeId::kStr, false},
                                                {"kgrow", TypeId::kI32, false},
                                                {"ksparse", TypeId::kI64, false},
                                                {"f", TypeId::kI32, false},
                                                {"vi32", TypeId::kI32, false},
                                                {"vi64", TypeId::kI64, false},
                                                {"vf64", TypeId::kF64, false}});
  Rng rng(seed);
  int row = 0;
  for (int r = 0; r < 200; r++) {
    int len = static_cast<int>(rng.Uniform(1, 12));
    for (int i = 0; i < len; i++, row++) {
      double v = (rng.NextDouble() - 0.5) * 1e6;
      if (row % 97 == 5) v = std::numeric_limits<double>::quiet_NaN();
      if (row % 17 == 3) v = -0.0;
      if (row % 19 == 4) v = 0.0;
      t->AppendRow(
          {Value::I8(static_cast<int8_t>((r * 37) % 256 - 128)),
           Value::I8(static_cast<int8_t>(r % 3)), Value::Str("one"),
           Value::Str("k" + std::to_string(rng.Uniform(0, 2))),
           Value::Str("w" + std::to_string(row % 256)),
           Value::I32(1000 + (r * 7) % 200),
           Value::I32(std::numeric_limits<int32_t>::min() + (r * 11) % 150),
           Value::Date(9000 + (r * 13) % 120), Value::Str("s" + std::to_string(r % 40)),
           Value::I32(r < 190 ? r * 5 : -500 - r),
           Value::I64(r < 180 || r % 2 == 0 ? r % 90 : r * 1000000007LL),
           Value::I32(static_cast<int32_t>(rng.Uniform(0, 99))),
           Value::I32(static_cast<int32_t>(rng.Uniform(-1000, 1000))),
           Value::I64(rng.Uniform(-(1LL << 40), 1LL << 40)), Value::F64(v)});
    }
  }
  t->Freeze();
  return t;
}

/// The ten aggregates the engine binds (sum/min/max over i32, i64 and f64,
/// and count). AggrMix(k, first) takes k of them cyclically from `first`;
/// each one `run` times in a row, so the row holds runs of `run` slots of
/// one kind.
std::vector<AggrSpec> AggrMix(int k, int first, int run = 1) {
  std::vector<AggrSpec> a;
  for (int j = 0; j < k; j++) {
    int x = (first + j / run) % 10;
    const char* col = x < 3 ? "vi32" : x < 6 ? "vi64" : "vf64";
    std::string name = "a" + std::to_string(j);
    switch (x % 3) {
      case 0: a.push_back(x == 9 ? CountAll(name) : Sum(name, Col(col))); break;
      case 1: a.push_back(Min(name, Col(col))); break;
      default: a.push_back(Max(name, Col(col))); break;
    }
  }
  return a;
}

/// Whether fusion binds the row pass for `specs` (DESIGN.md "Aggregation"):
/// some pass must update two slots of a tuple, i.e. two aggregates share a
/// kind or a count rides along with another aggregate.
bool ExpectRowPass(const std::vector<AggrSpec>& specs) {
  std::set<std::string> kinds;
  bool count = false;
  for (const AggrSpec& s : specs) {
    count |= s.op == AggrOp::kCount;
    std::string kind = std::to_string(static_cast<int>(s.op)) +
                       (s.input ? s.input->name() : "");
    if (!kinds.insert(kind).second) return true;
  }
  return count && specs.size() > 1;
}

/// Group key (decoded values) -> aggregate results as bit patterns.
using AggrResult = std::map<std::string, std::vector<uint64_t>>;

std::string GroupKey(const Table& t, int64_t r, const std::vector<int>& cols) {
  std::string key;
  for (int c : cols) key += t.GetValue(r, c).ToString() + "|";
  return key;
}

uint64_t Bits(const Value& v) {
  if (v.type() == TypeId::kF64) {
    double d = v.AsF64();
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
  }
  return static_cast<uint64_t>(v.AsI64());
}

AggrResult ResultOf(const Table& out, size_t num_keys) {
  std::vector<int> keys;
  for (size_t c = 0; c < num_keys; c++) keys.push_back(static_cast<int>(c));
  AggrResult res;
  for (int64_t r = 0; r < out.num_rows(); r++) {
    std::vector<uint64_t>& row = res[GroupKey(out, r, keys)];
    EXPECT_TRUE(row.empty()) << "group emitted twice";
    for (int c = static_cast<int>(num_keys); c < out.num_columns(); c++) {
      row.push_back(Bits(out.GetValue(r, c)));
    }
  }
  return res;
}

/// The expected result, folded row by row in input order with the kernels'
/// own SumOp/MinOp/MaxOp, so the test cannot drift from their semantics.
AggrResult ReferenceAggr(const Table& t, const std::vector<std::string>& keys,
                         const std::vector<AggrSpec>& specs, bool filtered) {
  using kernels::MaxOp;
  using kernels::MinOp;
  using kernels::SumOp;
  struct Acc {
    int64_t i64 = 0;
    int32_t i32 = 0;
    double f64 = 0;
  };
  std::vector<int> key_cols;
  for (const std::string& k : keys) key_cols.push_back(t.ColumnIndex(k));
  std::map<std::string, std::vector<Acc>> acc;
  for (int64_t r = 0; r < t.num_rows(); r++) {
    if (filtered && t.GetValue(r, t.ColumnIndex("f")).AsI64() >= 70) continue;
    auto [it, fresh] = acc.try_emplace(GroupKey(t, r, key_cols));
    std::vector<Acc>& a = it->second;
    if (fresh) {
      a.resize(specs.size());
      for (size_t j = 0; j < specs.size(); j++) {
        bool mn = specs[j].op == AggrOp::kMin, mx = specs[j].op == AggrOp::kMax;
        if (mn || mx) {
          a[j].i64 = mn ? std::numeric_limits<int64_t>::max()
                        : std::numeric_limits<int64_t>::min();
          a[j].i32 = mn ? std::numeric_limits<int32_t>::max()
                        : std::numeric_limits<int32_t>::min();
          a[j].f64 = (mn ? 1 : -1) * std::numeric_limits<double>::infinity();
        }
      }
    }
    for (size_t j = 0; j < specs.size(); j++) {
      const AggrSpec& s = specs[j];
      if (s.op == AggrOp::kCount) {
        a[j].i64++;
        continue;
      }
      std::string col = s.input->name();
      Value v = t.GetValue(r, t.ColumnIndex(col));
      if (col == "vf64") {
        double x = v.AsF64();
        if (s.op == AggrOp::kSum) SumOp::Update(&a[j].f64, x);
        if (s.op == AggrOp::kMin) MinOp::Update(&a[j].f64, x);
        if (s.op == AggrOp::kMax) MaxOp::Update(&a[j].f64, x);
      } else if (col == "vi64") {
        int64_t x = v.AsI64();
        if (s.op == AggrOp::kSum) SumOp::Update(&a[j].i64, x);
        if (s.op == AggrOp::kMin) MinOp::Update(&a[j].i64, x);
        if (s.op == AggrOp::kMax) MaxOp::Update(&a[j].i64, x);
      } else {
        int32_t x = static_cast<int32_t>(v.AsI64());
        if (s.op == AggrOp::kSum) SumOp::Update(&a[j].i64, x);
        if (s.op == AggrOp::kMin) MinOp::Update(&a[j].i32, x);
        if (s.op == AggrOp::kMax) MaxOp::Update(&a[j].i32, x);
      }
    }
  }
  AggrResult res;
  for (const auto& [key, a] : acc) {
    std::vector<uint64_t>& row = res[key];
    for (size_t j = 0; j < specs.size(); j++) {
      const AggrSpec& s = specs[j];
      bool f64 = s.input != nullptr && s.input->name() == "vf64";
      bool i32 = s.input != nullptr && s.input->name() == "vi32" &&
                 s.op != AggrOp::kSum;
      row.push_back(f64   ? Bits(Value::F64(a[j].f64))
                    : i32 ? static_cast<uint64_t>(static_cast<int64_t>(a[j].i32))
                          : static_cast<uint64_t>(a[j].i64));
    }
  }
  return res;
}

enum class AggrKind { kAggr, kOrd };

/// Group keys of the live rows of `t`, in first-seen order.
std::vector<std::string> FirstSeen(const Table& t,
                                   const std::vector<std::string>& keys,
                                   bool filtered) {
  std::vector<int> key_cols;
  for (const std::string& k : keys) key_cols.push_back(t.ColumnIndex(k));
  std::set<std::string> seen;
  std::vector<std::string> order;
  for (int64_t r = 0; r < t.num_rows(); r++) {
    if (filtered && t.GetValue(r, t.ColumnIndex("f")).AsI64() >= 70) continue;
    std::string key = GroupKey(t, r, key_cols);
    if (seen.insert(key).second) order.push_back(key);
  }
  return order;
}

std::string JoinKeys(const std::vector<std::string>& keys) {
  std::string s;
  for (const std::string& k : keys) s += (s.empty() ? "" : ",") + k;
  return s;
}

/// Runs one aggregation operator over `t` (optionally behind a Select) and
/// checks it against the reference, bit for bit, and its row order against
/// first-seen order. With fusion on and specs that pass ExpectRowPass, the
/// operator must have run the aggr_rows row pass; otherwise one typed aggr_*
/// primitive per aggregate.
void ExpectAggrMatchesReference(const Table& t, AggrKind kind,
                                const std::vector<std::string>& keys, int k,
                                int first, int vector_size, bool filtered,
                                bool fuse, int run = 1) {
  SCOPED_TRACE("op " + std::to_string(static_cast<int>(kind)) + " keys " +
               JoinKeys(keys) + " k " + std::to_string(k) + " first " +
               std::to_string(first) + " run " + std::to_string(run) + " vs " +
               std::to_string(vector_size) + (filtered ? " +select" : "") +
               (fuse ? " fused" : ""));
  Profiler prof;
  ExecContext ctx;
  ctx.vector_size = vector_size;
  ctx.fuse_compound_primitives = fuse;
  ctx.profiler = &prof;
  std::vector<std::string> cols = keys;
  for (const char* c : {"f", "vi32", "vi64", "vf64"}) cols.push_back(c);
  OpPtr op = plan::Scan(&ctx, t, cols);
  if (filtered) op = plan::Select(&ctx, std::move(op), Lt(Col("f"), LitI32(70)));
  std::vector<AggrSpec> specs = AggrMix(k, first, run);
  op = kind == AggrKind::kAggr
           ? plan::Aggr(&ctx, std::move(op), keys, CloneAggrSpecs(specs))
           : plan::OrdAggr(&ctx, std::move(op), keys, CloneAggrSpecs(specs));
  std::unique_ptr<Table> out = RunPlan(std::move(op), "r");
  EXPECT_EQ(ResultOf(*out, keys.size()),
            ReferenceAggr(t, keys, specs, filtered));
  std::vector<int> out_keys;
  for (size_t c = 0; c < keys.size(); c++) out_keys.push_back(static_cast<int>(c));
  std::vector<std::string> order;
  for (int64_t r = 0; r < out->num_rows(); r++) {
    order.push_back(GroupKey(*out, r, out_keys));
  }
  EXPECT_EQ(order, FirstSeen(t, keys, filtered));
  bool saw_rows = false, saw_typed = false;
  for (const auto& [name, st] : prof.Rows()) {
    if (st->tuples == 0) continue;
    if (name == "aggr_rows") saw_rows = true;
    if (name.rfind("aggr_", 0) == 0 && name != "aggr_rows") saw_typed = true;
  }
  bool rows = fuse && ExpectRowPass(specs);
  EXPECT_EQ(saw_rows, rows);
  EXPECT_EQ(saw_typed, !rows);
}

/// The path an Aggr over `keys` of `t` took, from its EXPLAIN ANALYZE node:
/// the node's detail ("direct" or "hash") and its aggr.* counters.
struct AggrPathInfo {
  std::string path;
  std::map<std::string, uint64_t> counters;
};

AggrPathInfo AggrPathOf(const Table& t, const std::vector<std::string>& keys,
                        int vector_size, ExprPtr pred = nullptr) {
  ExecContext ctx;
  ctx.vector_size = vector_size;
  QueryTrace trace;
  ctx.trace = &trace;
  std::vector<std::string> cols = keys;
  cols.push_back("f");
  OpPtr op = plan::Scan(&ctx, t, cols);
  if (pred) op = plan::Select(&ctx, std::move(op), std::move(pred));
  op = plan::Aggr(&ctx, std::move(op), keys, AG(CountAll("n")));
  const TraceNode* node = static_cast<InstrumentedOperator*>(op.get())->node();
  RunPlan(std::move(op), "r");
  AggrPathInfo info{node->detail, {}};
  for (const auto& [name, v] : node->counters) {
    if (name.rfind("aggr.", 0) == 0) info.counters[name] = v;
  }
  return info;
}

TEST(AggrOpTest, HashDirectOrderedAgree) {
  // Every aggregate op x input type, k = 1..7 aggregates in rotating mixes
  // (distinct kinds, and kinds in pairs), with and without a selection
  // vector, at vector sizes 1, 7 and 1024, with the row pass (fusion on) and
  // per-aggregate updates (off): Aggr on both of its id sources and OrdAggr
  // (§4.1.2) match the reference bit for bit and emit groups in first-seen
  // order. Then runs of 3 to 9 slots of one kind (aggr_rows splits runs
  // longer than 8), counts included. Under the Select, 7-tuple vectors mix
  // selections that keep more and less than half of their range, so the
  // direct id primitives run both their dense and their selective loops.
  std::unique_ptr<Table> t = MakeAggrInput(3);
  const std::vector<std::pair<AggrKind, std::vector<std::string>>> cases = {
      {AggrKind::kAggr, {"g8"}},          {AggrKind::kAggr, {"d3", "g8b"}},
      {AggrKind::kAggr, {"g8", "g8b"}},   {AggrKind::kAggr, {"ks", "g8b"}},
      {AggrKind::kOrd, {"g8"}},           {AggrKind::kOrd, {"g8", "g8b"}}};
  for (const auto& [kind, keys] : cases) {
    for (int vs : {1, 7, 1024}) {
      for (int k = 1; k <= 7; k++) {
        if (vs == 1 && k % 3 != 1) continue;  // vs=1 is slow; k=1,4,7
        for (bool filtered : {false, true}) {
          for (bool fuse : {false, true}) {
            ExpectAggrMatchesReference(*t, kind, keys, k, 3 * k, vs, filtered,
                                       fuse);
            ExpectAggrMatchesReference(*t, kind, keys, k, 2 * k, vs, filtered,
                                       fuse, /*run=*/2);
          }
        }
      }
    }
    for (int run : {3, 5, 8, 9}) {
      for (int first : {0, 8, 9}) {
        for (bool fuse : {false, true}) {
          ExpectAggrMatchesReference(*t, kind, keys, run + 1, first, 1024,
                                     run % 2 == 1, fuse, run);
        }
      }
    }
  }

  // Key shapes of Aggr's two id sources, and the changes between them:
  // direct ids over a dense i32, keys near INT32_MIN, a date, Q1's two i8
  // keys, enum codes and three keys; hashing from the start for strings;
  // re-bases when keys leave the current span (`kgrow`); and a switch to
  // hashing mid-stream with groups made before and after it (`ksparse`).
  const std::vector<std::vector<std::string>> shapes = {
      {"k32"}, {"kneg"},  {"kdate"}, {"g8", "g8b"}, {"d256"}, {"d3", "d1"},
      {"g8b", "d3", "kdate"}, {"ks"},  {"kgrow"},   {"ksparse"}};
  for (const auto& keys : shapes) {
    for (int vs : {1, 7, 1024}) {
      for (bool filtered : {false, true}) {
        for (bool fuse : {false, true}) {
          ExpectAggrMatchesReference(*t, AggrKind::kAggr, keys, 7, 3, vs,
                                     filtered, fuse);
          ExpectAggrMatchesReference(*t, AggrKind::kAggr, keys, 1, 9, vs,
                                     filtered, fuse);
        }
      }
      SCOPED_TRACE("keys " + JoinKeys(keys) + " vs " + std::to_string(vs));
      AggrPathInfo p = AggrPathOf(*t, keys, vs);
      bool strings = keys[0] == "ks";
      bool sparse = keys[0] == "ksparse";
      EXPECT_EQ(p.path, strings || sparse ? "hash" : "direct");
      EXPECT_EQ(p.counters.count("aggr.switch_groups"), sparse ? 1u : 0u);
      if (sparse) {
        EXPECT_EQ(p.counters["aggr.switch_groups"], 90u);
      }
      if (keys[0] == "kgrow") {
        EXPECT_GT(p.counters["aggr.rebases"], 0u);
      }
      EXPECT_EQ(p.counters["aggr.id_slots"] > 0, !strings);

      // Empty input: a Select that keeps nothing leaves no group.
      ExecContext ctx;
      ctx.vector_size = vs;
      std::vector<std::string> cols = keys;
      cols.push_back("f");
      OpPtr op = plan::Select(&ctx, plan::Scan(&ctx, *t, cols),
                              Lt(Col("f"), LitI32(0)));
      op = plan::Aggr(&ctx, std::move(op), keys, AG(CountAll("n")));
      EXPECT_EQ(RunPlan(std::move(op), "r")->num_rows(), 0);
    }
  }
}

TEST(AggrOpTest, DirectAggrDictionaryAndByteKeys) {
  // Aggr over dictionary-coded keys (dictionaries of 1, 3 and 256 entries,
  // alone and as a pair) and over a plain i8 key (negative values included)
  // takes direct ids, and all agree with the reference.
  std::unique_ptr<Table> t = MakeAggrInput(5);
  const std::vector<std::vector<std::string>> key_sets = {
      {"d1"}, {"d3"}, {"d256"}, {"d3", "d1"}, {"g8"}};
  for (const auto& keys : key_sets) {
    for (int vs : {7, 1024}) {
      for (bool fuse : {false, true}) {
        ExpectAggrMatchesReference(*t, AggrKind::kAggr, keys, 7, 3, vs, true,
                                   fuse);
        ExpectAggrMatchesReference(*t, AggrKind::kAggr, keys, 6, 5, vs, false,
                                   fuse, /*run=*/2);
        ExpectAggrMatchesReference(*t, AggrKind::kAggr, keys, 1, 9, vs, false,
                                   fuse);
      }
      EXPECT_EQ(AggrPathOf(*t, keys, vs).path, "direct");
    }
  }
}

// ---- Ordered aggregation vs hash aggregation (differential, eps 0) ---------

/// Clustered input: `num_runs` runs, each holding one distinct key (in every
/// key column) for a seeded run length. Adjacent runs share k2a and differ
/// only in k2b a third of the time, so two-column boundaries sometimes come
/// from the second column alone.
std::unique_ptr<Table> MakeClusteredRuns(uint64_t seed, int num_runs,
                                         int max_run) {
  auto t = std::make_unique<Table>(
      "runs", std::vector<Table::ColumnSpec>{{"k8", TypeId::kI8, false},
                                             {"k32", TypeId::kI32, false},
                                             {"k64", TypeId::kI64, false},
                                             {"ks", TypeId::kStr, false},
                                             {"kd", TypeId::kStr, true},
                                             {"k2a", TypeId::kI32, false},
                                             {"k2b", TypeId::kI8, false},
                                             {"f", TypeId::kI32, false},
                                             {"vi32", TypeId::kI32, false},
                                             {"vi64", TypeId::kI64, false},
                                             {"vf64", TypeId::kF64, false}});
  Rng rng(seed);
  for (int r = 0; r < num_runs; r++) {
    // Distinct per run but not monotonic: OrdAggr must not rely on order.
    int64_t scr = (static_cast<int64_t>(r) * 7919 + 13) % 1000003;
    int len = 1;
    if (max_run > 1) {
      int64_t kind = rng.Uniform(0, 9);
      len = static_cast<int>(
          kind < 5   ? rng.Uniform(1, std::min(3, max_run))
          : kind < 9 ? rng.Uniform(1, std::min(100, max_run))
                     : rng.Uniform(1, max_run));
    }
    std::string key = "key" + std::to_string(scr);
    for (int i = 0; i < len; i++) {
      t->AppendRow({Value::I8(static_cast<int8_t>(scr % 256 - 128)),
                    Value::I32(static_cast<int32_t>(scr)),
                    Value::I64(scr * 1000000007LL), Value::Str(key),
                    Value::Str(key), Value::I32(r / 3),
                    Value::I8(static_cast<int8_t>(r % 3)),
                    Value::I32(static_cast<int32_t>(rng.Uniform(0, 99))),
                    Value::I32(static_cast<int32_t>(rng.Uniform(-1000, 1000))),
                    Value::I64(rng.Uniform(-(1LL << 40), 1LL << 40)),
                    Value::F64((rng.NextDouble() - 0.5) * 1e6)});
    }
  }
  t->Freeze();
  return t;
}

std::vector<AggrSpec> AllOrdAggrSpecs() {
  std::vector<AggrSpec> a;
  for (const char* v : {"vi32", "vi64", "vf64"}) {
    std::string n(v);
    a.push_back(Sum("sum_" + n, Col(n)));
    a.push_back(Min("min_" + n, Col(n)));
    a.push_back(Max("max_" + n, Col(n)));
  }
  a.push_back(CountAll("cnt"));
  return a;
}

/// Runs Aggr and OrdAggr over the same input (optionally behind a Select),
/// each with the row pass (fusion on) and with per-aggregate updates (off),
/// and requires bit-identical results in the same row order.
void ExpectOrdMatchesHash(const Table& t, const std::vector<std::string>& keys,
                          int vector_size, ExprPtr pred) {
  std::vector<std::string> cols = keys;
  for (const char* c : {"f", "vi32", "vi64", "vf64"}) cols.push_back(c);
  auto run = [&](bool ord, bool fuse) {
    ExecContext ctx;
    ctx.vector_size = vector_size;
    ctx.fuse_compound_primitives = fuse;
    OpPtr op = plan::Scan(&ctx, t, cols);
    if (pred) op = plan::Select(&ctx, std::move(op), pred->Clone());
    op = ord ? plan::OrdAggr(&ctx, std::move(op), keys, AllOrdAggrSpecs())
             : plan::Aggr(&ctx, std::move(op), keys, AllOrdAggrSpecs());
    return RunPlan(std::move(op), "r");
  };
  SCOPED_TRACE("vector_size " + std::to_string(vector_size) + " keys " +
               keys[0] + (pred ? " +select" : ""));
  std::unique_ptr<Table> h = run(false, false);
  ExpectTablesEqual(*h, *run(true, false), 0.0);
  ExpectTablesEqual(*h, *run(false, true), 0.0);
  ExpectTablesEqual(*h, *run(true, true), 0.0);
}

TEST(OrdAggrTest, MatchesHashAggrOnClusteredRuns) {
  const std::vector<std::vector<std::string>> key_sets = {
      {"k8"}, {"k32"}, {"k64"}, {"ks"}, {"kd"}, {"k2a", "k2b"}};
  // 200 runs keeps the i8 key distinct per run; runs of up to 3000 rows
  // cross vector boundaries at every vector size.
  std::unique_ptr<Table> t = MakeClusteredRuns(11, 200, 3000);
  ASSERT_GT(t->num_rows(), 3000);
  for (const auto& keys : key_sets) {
    for (int vs : {1, 7, 1024}) {
      ExpectOrdMatchesHash(*t, keys, vs, nullptr);
      ExpectOrdMatchesHash(*t, keys, vs, Lt(Col("f"), LitI32(70)));
    }
  }
}

TEST(OrdAggrTest, MatchesHashAggrOnEdgeShapes) {
  std::unique_ptr<Table> single = MakeClusteredRuns(12, 1, 1);
  std::unique_ptr<Table> one_big = MakeClusteredRuns(13, 1, 3000);
  std::unique_ptr<Table> distinct = MakeClusteredRuns(14, 5000, 1);
  ASSERT_EQ(distinct->num_rows(), 5000);
  for (int vs : {1, 7, 1024}) {
    for (const Table* t : {single.get(), one_big.get(), distinct.get()}) {
      for (const char* k : {"k32", "ks", "kd"}) {
        ExpectOrdMatchesHash(*t, {k}, vs, nullptr);
        ExpectOrdMatchesHash(*t, {k}, vs, Lt(Col("f"), LitI32(50)));
      }
    }
    // Empty input: a Select that keeps nothing.
    ExpectOrdMatchesHash(*distinct, {"k64"}, vs, Lt(Col("f"), LitI32(0)));
    ExpectOrdMatchesHash(*distinct, {"k2a", "k2b"}, vs,
                         Lt(Col("f"), LitI32(0)));
  }
}

TEST(OrdAggrTest, RetainsAtMostTwoVectorsOfGroups) {
  // 1M groups of two rows each: emitted groups must be dropped, not kept.
  ExecContext ctx;
  ctx.vector_size = 1024;
  QueryTrace trace;
  TraceNode* node = trace.NewNode("OrdAggr", "", {});
  OrdAggrOp op(&ctx, std::make_unique<ArrayOp>(&ctx, std::vector<int64_t>{2, 1000000}),
               {"i1"}, AG(CountAll("n")));
  op.set_trace_node(node);
  op.Open();
  int64_t groups = 0;
  bool counts_ok = true;
  while (VectorBatch* b = op.Next()) {
    const int64_t* key = b->column(0).Data<int64_t>();
    const int64_t* n = b->column(1).Data<int64_t>();
    for (int i = 0; i < b->count(); i++) {
      counts_ok &= key[i] == groups + i && n[i] == 2;
    }
    groups += b->count();
  }
  op.Close();
  EXPECT_TRUE(counts_ok);
  EXPECT_EQ(groups, 1000000);
  uint64_t produced = 0, retained = 0;
  for (const auto& [name, v] : node->counters) {
    if (name == "ord.groups") produced = v;
    if (name == "ord.max_retained") retained = v;
  }
  EXPECT_EQ(produced, 1000000u);
  EXPECT_GT(retained, 0u);
  EXPECT_LE(retained, 2u * 1024u);
}

TEST(OrdAggrTest, ClusteredAggrFallsBackToHashWhenAppendsBreakOrder) {
  std::unique_ptr<Table> t = MakeData(3000);  // id is 0..2999, ascending
  ExecContext ctx;
  QueryTrace trace;
  ctx.trace = &trace;
  auto run = [&](const char* name) {
    OpPtr op = plan::ClusteredAggr(&ctx, plan::Scan(&ctx, *t, {"id", "price"}),
                                   *t, {"id"}, AG(Sum("s", Col("price"))));
    std::string label =
        static_cast<InstrumentedOperator*>(op.get())->node()->label;
    std::unique_ptr<Table> r = RunPlan(std::move(op), name);
    return std::make_pair(label, std::move(r));
  };
  EXPECT_TRUE(ScanIsNonDecreasing(&ctx, *t, "id"));
  EXPECT_EQ(run("sorted").first, "OrdAggr");

  // A delta row above the maximum keeps the order.
  t->Insert({Value::I32(5000), Value::Str("red"), Value::F64(1),
             Value::F64(2.5), Value::Date(9000)});
  EXPECT_TRUE(ScanIsNonDecreasing(&ctx, *t, "id"));
  EXPECT_EQ(run("above").first, "OrdAggr");

  // A delta row repeating an early key breaks it: Aggr must take over and
  // fold the row into the existing group.
  t->Insert({Value::I32(7), Value::Str("red"), Value::F64(1), Value::F64(100),
             Value::Date(9000)});
  EXPECT_FALSE(ScanIsNonDecreasing(&ctx, *t, "id"));
  auto [label, r] = run("broken");
  EXPECT_EQ(label, "Aggr");
  EXPECT_EQ(r->num_rows(), 3001);
  EXPECT_DOUBLE_EQ(r->GetValue(7, 1).AsF64(),
                   t->GetValue(7, t->ColumnIndex("price")).AsF64() + 100.0);

  // Non-integer columns are never proven clustered.
  EXPECT_FALSE(ScanIsNonDecreasing(&ctx, *t, "price"));
  EXPECT_FALSE(ScanIsNonDecreasing(&ctx, *t, "tag"));
}

TEST(AggrOpTest, ScalarAggregateOnEmptyInput) {
  std::unique_ptr<Table> t = MakeData(10);
  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "price"});
  op = plan::Select(&ctx, std::move(op), Gt(Col("id"), LitI32(1000)));  // none
  op = plan::Aggr(&ctx, std::move(op), {},
                  AG(Sum("s", Col("price")), CountAll("n")));
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  ASSERT_EQ(r->num_rows(), 1);
  EXPECT_DOUBLE_EQ(r->GetValue(0, 0).AsF64(), 0.0);
  EXPECT_EQ(r->GetValue(0, 1).AsI64(), 0);
}

TEST(AggrOpTest, GroupedAggregateOnEmptyInputIsEmpty) {
  std::unique_ptr<Table> t = MakeData(10);
  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *t, {"id", "tag", "price"});
  op = plan::Select(&ctx, std::move(op), Gt(Col("id"), LitI32(1000)));
  op = plan::Aggr(&ctx, std::move(op), {"tag"}, AG(CountAll("n")));
  EXPECT_EQ(RunPlan(std::move(op), "r")->num_rows(), 0);
}

// ---- Joins ------------------------------------------------------------------

struct JoinFixture {
  std::unique_ptr<Table> fact;
  std::unique_ptr<Table> dim;

  explicit JoinFixture(int nf = 500, int nd = 20) {
    fact = std::make_unique<Table>(
        "fact", std::vector<Table::ColumnSpec>{{"fk", TypeId::kI32, false},
                                               {"m", TypeId::kF64, false}});
    dim = std::make_unique<Table>(
        "dim", std::vector<Table::ColumnSpec>{{"id", TypeId::kI32, false},
                                              {"label", TypeId::kStr, false}});
    Rng rng(11);
    for (int i = 0; i < nf; i++) {
      // Keys 0..nd+4: some fact rows dangle (no dim match).
      fact->AppendRow({Value::I32(static_cast<int32_t>(rng.Uniform(0, nd + 4))),
                       Value::F64(i * 0.5)});
    }
    fact->Freeze();
    for (int i = 0; i < nd; i++) {
      dim->AppendRow({Value::I32(i), Value::Str("L" + std::to_string(i))});
    }
    dim->Freeze();
  }
};

TEST(JoinTest, HashJoinMatchesNestedLoop) {
  JoinFixture f;
  ExecContext ctx;
  ctx.vector_size = 64;
  auto hash = plan::Join(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                         plan::Scan(&ctx, *f.dim, {"id", "label"}),
                         {.probe_keys = {"fk"},
                          .build_keys = {"id"},
                          .probe_out = {"fk", "m"},
                          .build_out = {"label"}});
  std::unique_ptr<Table> h = RunPlan(
      plan::Order(&ctx, std::move(hash), {Asc("fk"), Asc("m")}), "h");

  // Nested loop: CartProd + Select(fk == id), per §4.1.2 the default join.
  auto nl = plan::CartProd(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                           plan::Scan(&ctx, *f.dim, {"id", "label"}),
                           {"fk", "m"}, {"id", "label"});
  nl = plan::Select(&ctx, std::move(nl), Eq(Col("fk"), Col("id")));
  nl = plan::Project(&ctx, std::move(nl),
                     NE(Pass("fk"), Pass("m"), Pass("label")));
  std::unique_ptr<Table> n =
      RunPlan(plan::Order(&ctx, std::move(nl), {Asc("fk"), Asc("m")}), "n");
  ExpectTablesEqual(*h, *n, 0.0);
  EXPECT_GT(h->num_rows(), 0);
}

TEST(JoinTest, SemiAntiPartitionProbe) {
  JoinFixture f;
  ExecContext ctx;
  auto semi = plan::SemiJoin(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                             plan::Scan(&ctx, *f.dim, {"id"}),
                             {.probe_keys = {"fk"},
                              .build_keys = {"id"},
                              .probe_out = {"fk", "m"}});
  auto anti = plan::AntiJoin(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                             plan::Scan(&ctx, *f.dim, {"id"}),
                             {.probe_keys = {"fk"},
                              .build_keys = {"id"},
                              .probe_out = {"fk", "m"}});
  std::unique_ptr<Table> s = RunPlan(std::move(semi), "s");
  std::unique_ptr<Table> a = RunPlan(std::move(anti), "a");
  EXPECT_EQ(s->num_rows() + a->num_rows(), f.fact->num_rows());
  for (int64_t r = 0; r < s->num_rows(); r++) EXPECT_LT(s->GetValue(r, 0).AsI64(), 20);
  for (int64_t r = 0; r < a->num_rows(); r++) EXPECT_GE(a->GetValue(r, 0).AsI64(), 20);
}

TEST(JoinTest, LeftOuterDefaultFillsZeros) {
  JoinFixture f;
  ExecContext ctx;
  auto j = plan::Join(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                      plan::Scan(&ctx, *f.dim, {"id", "label"}),
                      {.probe_keys = {"fk"},
                       .build_keys = {"id"},
                       .probe_out = {"fk"},
                       .build_out = {"label"},
                       .type = JoinType::kLeftOuterDefault});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  EXPECT_EQ(r->num_rows(), f.fact->num_rows());
  for (int64_t i = 0; i < r->num_rows(); i++) {
    if (r->GetValue(i, 0).AsI64() >= 20) {
      EXPECT_EQ(r->GetValue(i, 1).AsStr(), "");  // type-default for no match
    } else {
      EXPECT_EQ(r->GetValue(i, 1).AsStr(),
                "L" + std::to_string(r->GetValue(i, 0).AsI64()));
    }
  }
}

TEST(JoinTest, DuplicateBuildKeysExpand) {
  // N:M expansion: every probe row with key k must pair with every build row
  // carrying k, across emission-chunk boundaries.
  ExecContext ctx;
  ctx.vector_size = 8;  // force many small output chunks
  auto probe = std::make_unique<Table>(
      "p", std::vector<Table::ColumnSpec>{{"k", TypeId::kI32, false},
                                          {"pid", TypeId::kI32, false}});
  auto build = std::make_unique<Table>(
      "b", std::vector<Table::ColumnSpec>{{"k", TypeId::kI32, false},
                                          {"bid", TypeId::kI32, false}});
  for (int i = 0; i < 30; i++) probe->AppendRow({Value::I32(i % 3), Value::I32(i)});
  probe->Freeze();
  for (int i = 0; i < 12; i++) build->AppendRow({Value::I32(i % 4), Value::I32(i)});
  build->Freeze();

  auto j = plan::Join(&ctx, plan::Scan(&ctx, *probe, {"k", "pid"}),
                      plan::Scan(&ctx, *build, {"k", "bid"}),
                      {.probe_keys = {"k"},
                       .build_keys = {"k"},
                       .probe_out = {"k", "pid"},
                       .build_out = {"bid"}});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  // Keys 0,1,2 appear 10x in probe and 3x in build each: 3 * 10 * 3 pairs.
  EXPECT_EQ(r->num_rows(), 90);
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 0).AsI64() % 3,
              r->GetValue(i, 2).AsI64() % 4 % 3);
    EXPECT_EQ(r->GetValue(i, 0).AsI64(), r->GetValue(i, 2).AsI64() % 4);
  }
}

TEST(JoinTest, MultiKeyJoin) {
  ExecContext ctx;
  auto a = std::make_unique<Table>(
      "a", std::vector<Table::ColumnSpec>{{"k1", TypeId::kI32, false},
                                          {"k2", TypeId::kI32, false}});
  auto b = std::make_unique<Table>(
      "b", std::vector<Table::ColumnSpec>{{"k1", TypeId::kI32, false},
                                          {"k2", TypeId::kI32, false},
                                          {"payload", TypeId::kI64, false}});
  for (int i = 0; i < 40; i++) a->AppendRow({Value::I32(i % 5), Value::I32(i % 7)});
  a->Freeze();
  for (int i = 0; i < 35; i++) {
    b->AppendRow({Value::I32(i % 5), Value::I32(i % 7), Value::I64(i)});
  }
  b->Freeze();
  auto j = plan::Join(&ctx, plan::Scan(&ctx, *a, {"k1", "k2"}),
                      plan::Scan(&ctx, *b, {"k1", "k2", "payload"}),
                      {.probe_keys = {"k1", "k2"},
                       .build_keys = {"k1", "k2"},
                       .probe_out = {"k1", "k2"},
                       .build_out = {"payload"}});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  for (int64_t i = 0; i < r->num_rows(); i++) {
    int64_t payload = r->GetValue(i, 2).AsI64();
    EXPECT_EQ(payload % 5, r->GetValue(i, 0).AsI64());
    EXPECT_EQ(payload % 7, r->GetValue(i, 1).AsI64());
  }
  EXPECT_EQ(r->num_rows(), 40);  // each (k1,k2) matches exactly one b row
}

class RadixJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(RadixJoinTest, MatchesHashJoin) {
  JoinFixture f(2000, 50);
  ExecContext ctx;
  ctx.vector_size = 128;
  auto hash = plan::Join(&ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
                         plan::Scan(&ctx, *f.dim, {"id", "label"}),
                         {.probe_keys = {"fk"},
                          .build_keys = {"id"},
                          .probe_out = {"fk", "m"},
                          .build_out = {"label"}});
  std::unique_ptr<Table> h =
      RunPlan(plan::Order(&ctx, std::move(hash), {Asc("fk"), Asc("m")}), "h");

  auto radix = std::make_unique<RadixJoinOp>(
      &ctx, plan::Scan(&ctx, *f.fact, {"fk", "m"}),
      plan::Scan(&ctx, *f.dim, {"id", "label"}),
      std::vector<std::string>{"fk"}, std::vector<std::string>{"id"},
      std::vector<std::string>{"fk", "m"}, std::vector<std::string>{"label"},
      GetParam());
  std::unique_ptr<Table> r = RunPlan(
      plan::Order(&ctx, plan::OpPtr(std::move(radix)), {Asc("fk"), Asc("m")}),
      "r");
  ExpectTablesEqual(*h, *r, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Bits, RadixJoinTest, ::testing::Values(0, 1, 4, 8));

TEST(RadixJoinTest, StringKeys) {
  ExecContext ctx;
  auto a = std::make_unique<Table>(
      "a", std::vector<Table::ColumnSpec>{{"k", TypeId::kStr, false}});
  auto b = std::make_unique<Table>(
      "b", std::vector<Table::ColumnSpec>{{"k", TypeId::kStr, false},
                                          {"v", TypeId::kI64, false}});
  const char* keys[4] = {"alpha", "beta", "gamma", "delta"};
  for (int i = 0; i < 100; i++) a->AppendRow({Value::Str(keys[i % 4])});
  a->Freeze();
  for (int i = 0; i < 3; i++) {
    b->AppendRow({Value::Str(keys[i]), Value::I64(i)});
  }
  b->Freeze();
  auto radix = std::make_unique<RadixJoinOp>(
      &ctx, plan::Scan(&ctx, *a, {"k"}), plan::Scan(&ctx, *b, {"k", "v"}),
      std::vector<std::string>{"k"}, std::vector<std::string>{"k"},
      std::vector<std::string>{"k"}, std::vector<std::string>{"v"}, 2);
  std::unique_ptr<Table> r = RunPlan(plan::OpPtr(std::move(radix)), "r");
  EXPECT_EQ(r->num_rows(), 75);  // "delta" rows have no match
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 0).AsStr(), keys[r->GetValue(i, 1).AsI64()]);
  }
}

TEST(JoinTest, Fetch1JoinByJoinIndex) {
  JoinFixture f;
  // Restrict fact to keys that exist, build the join index.
  auto fact2 = std::make_unique<Table>(
      "fact2", std::vector<Table::ColumnSpec>{{"fk", TypeId::kI32, false}});
  for (int64_t r = 0; r < f.fact->num_rows(); r++) {
    int32_t k = static_cast<int32_t>(f.fact->GetValue(r, 0).AsI64());
    if (k < 20) fact2->AppendRow({Value::I32(k)});
  }
  fact2->Freeze();
  ASSERT_TRUE(fact2->BuildJoinIndex("fk", *f.dim, "id").ok());

  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *fact2, {"fk", Table::JoinIndexName("dim")});
  op = plan::Fetch1Join(&ctx, std::move(op), *f.dim,
                        Table::JoinIndexName("dim"), {{"label", "label"}});
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  EXPECT_EQ(r->num_rows(), fact2->num_rows());
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 2).AsStr(),
              "L" + std::to_string(r->GetValue(i, 0).AsI64()));
  }
}

TEST(JoinTest, FetchNJoinExpandsRanges) {
  auto target = std::make_unique<Table>(
      "t", std::vector<Table::ColumnSpec>{{"v", TypeId::kI64, false}});
  for (int i = 0; i < 100; i++) target->AppendRow({Value::I64(i * 10)});
  target->Freeze();
  auto src = std::make_unique<Table>(
      "s", std::vector<Table::ColumnSpec>{{"start", TypeId::kI64, false},
                                          {"cnt", TypeId::kI64, false}});
  src->AppendRow({Value::I64(5), Value::I64(3)});
  src->AppendRow({Value::I64(50), Value::I64(0)});
  src->AppendRow({Value::I64(98), Value::I64(2)});
  src->Freeze();

  ExecContext ctx;
  OpPtr op = plan::Scan(&ctx, *src, {"start", "cnt"});
  op = std::make_unique<FetchNJoinOp>(
      &ctx, std::move(op), *target, "start", "cnt",
      std::vector<std::pair<std::string, std::string>>{{"v", "v"}});
  std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
  ASSERT_EQ(r->num_rows(), 5);
  EXPECT_EQ(r->GetValue(0, 2).AsI64(), 50);   // rows 5,6,7
  EXPECT_EQ(r->GetValue(2, 2).AsI64(), 70);
  EXPECT_EQ(r->GetValue(3, 2).AsI64(), 980);  // rows 98,99
  EXPECT_EQ(r->GetValue(4, 2).AsI64(), 990);
}

// ---- ColumnBM-backed scan (disk path) ---------------------------------------

TEST(BmScanTest, MatchesInMemoryScanPlainAndCompressed) {
  std::unique_ptr<Table> t = MakeData(30000);
  ExecContext ctx;
  auto run = [&](OpPtr scan) {
    auto op = plan::Select(&ctx, std::move(scan),
                           Gt(Col("qty"), LitF64(25.0)));
    op = plan::Aggr(&ctx, std::move(op), {"tag"},
                    AG(Sum("s", Col("qty")), CountAll("n")));
    return RunPlan(plan::Order(&ctx, std::move(op), {Asc("tag")}), "r");
  };
  std::unique_ptr<Table> ram =
      run(plan::Scan(&ctx, *t, {"tag", "qty"}));

  ColumnBm bm;
  std::unique_ptr<Table> plain = run(std::make_unique<BmScanOp>(
      &ctx, &bm, *t, BmScanSpec{.cols = {"tag", "qty"}}));
  ExpectTablesEqual(*ram, *plain, 0.0);

  ColumnBm bm2;
  std::unique_ptr<Table> comp = run(std::make_unique<BmScanOp>(
      &ctx, &bm2, *t, BmScanSpec{.cols = {"tag", "qty"}, .compress = true}));
  ExpectTablesEqual(*ram, *comp, 0.0);
  // Compressed image moved fewer bytes over the I/O boundary.
  EXPECT_LT(bm2.bytes_read(), bm.bytes_read());
}

TEST(BmScanTest, BlocksAreReusedAcrossQueries) {
  std::unique_ptr<Table> t = MakeData(5000);
  ExecContext ctx;
  ColumnBm bm;
  for (int run = 0; run < 2; run++) {
    auto op = plan::Aggr(
        &ctx,
        plan::OpPtr(std::make_unique<BmScanOp>(
            &ctx, &bm, *t, BmScanSpec{.cols = {"id"}, .compress = true})),
        {}, AG(Sum("s", Col("id"))));
    std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
    EXPECT_DOUBLE_EQ(static_cast<double>(r->GetValue(0, 0).AsI64()),
                     5000.0 * 4999.0 / 2.0);
  }
  EXPECT_TRUE(bm.Contains("data.id.cmp"));
}

TEST(BmScanTest, RejectsUnsupportedTablesWithClearErrors) {
  ExecContext ctx;
  ColumnBm bm;
  auto expect_throw = [&](const Table& t, std::vector<std::string> cols,
                          const char* needle) {
    try {
      BmScanOp op(&ctx, &bm, t, BmScanSpec{.cols = std::move(cols)});
      FAIL() << "expected std::invalid_argument mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  {  // unfrozen table
    Table t("u", std::vector<Table::ColumnSpec>{{"x", TypeId::kI32, false}});
    t.AppendRow({Value::I32(1)});
    expect_throw(t, {"x"}, "not frozen");
  }
  {  // delta rows
    std::unique_ptr<Table> t = MakeData(100);
    t->Insert({Value::I32(100), Value::Str("red"), Value::F64(1.0),
               Value::F64(2.0), Value::Date(8035)});
    expect_throw(*t, {"id"}, "delta rows");
  }
  {  // deleted rows
    std::unique_ptr<Table> t = MakeData(100);
    ASSERT_TRUE(t->Delete(3).ok());
    expect_throw(*t, {"id"}, "deleted rows");
  }
  {  // non-enum string column
    std::unique_ptr<Table> t = MakeData(100, /*enum_tag=*/false);
    expect_throw(*t, {"tag"}, "non-enum string");
  }
}

TEST(BmScanTest, MorselScansPartitionTheFragment) {
  std::unique_ptr<Table> t = MakeData(10000);
  ExecContext ctx;
  ColumnBm bm;
  auto sum_count = [&](ScanSpec::Morsel m) {
    auto op = plan::Aggr(
        &ctx,
        plan::BmScan(&ctx, &bm, *t,
                     {.cols = {"id"}, .compress = true, .morsel = m}),
        {}, AG(Sum("s", Col("id")), CountAll("n")));
    std::unique_ptr<Table> r = RunPlan(std::move(op), "r");
    return std::pair<int64_t, int64_t>(r->GetValue(0, 0).AsI64(),
                                       r->GetValue(0, 1).AsI64());
  };
  int64_t sum = 0, rows = 0;
  for (int w = 0; w < 4; w++) {
    auto [s, n] = sum_count({w, 4});
    sum += s;
    rows += n;
  }
  EXPECT_EQ(rows, 10000);
  EXPECT_EQ(sum, 10000ll * 9999 / 2);
  // Degenerate split: one worker owns everything.
  auto [s1, n1] = sum_count({0, 1});
  EXPECT_EQ(n1, 10000);
  EXPECT_EQ(s1, sum);
}

// ---- TopN / Order / Array ---------------------------------------------------

TEST(SortTest, TopNEqualsOrderPrefix) {
  std::unique_ptr<Table> t = MakeData(777);
  ExecContext ctx;
  auto full = RunPlan(plan::Order(&ctx, plan::Scan(&ctx, *t, {"id", "price"}),
                                  {Desc("price"), Asc("id")}),
                      "full");
  auto top = RunPlan(plan::TopN(&ctx, plan::Scan(&ctx, *t, {"id", "price"}),
                                {Desc("price"), Asc("id")}, 25),
                     "top");
  ASSERT_EQ(top->num_rows(), 25);
  for (int64_t r = 0; r < 25; r++) {
    EXPECT_EQ(top->GetValue(r, 0).AsI64(), full->GetValue(r, 0).AsI64());
    EXPECT_DOUBLE_EQ(top->GetValue(r, 1).AsF64(), full->GetValue(r, 1).AsF64());
  }
}

TEST(SortTest, OrderDecodesEnumColumns) {
  std::unique_ptr<Table> t = MakeData(30);
  ExecContext ctx;
  auto r = RunPlan(plan::Order(&ctx, plan::Scan(&ctx, *t, {"tag", "id"}),
                               {Asc("tag"), Asc("id")}),
                   "r");
  EXPECT_EQ(r->GetValue(0, 0).AsStr(), "blue");
  EXPECT_EQ(r->GetValue(29, 0).AsStr(), "red");
}

TEST(SortTest, TopNLargerThanInput) {
  std::unique_ptr<Table> t = MakeData(5);
  ExecContext ctx;
  auto r = RunPlan(
      plan::TopN(&ctx, plan::Scan(&ctx, *t, {"id"}), {Asc("id")}, 100), "r");
  EXPECT_EQ(r->num_rows(), 5);
}

TEST(ArrayOpTest, ColumnMajorCoordinates) {
  ExecContext ctx;
  ctx.vector_size = 4;
  ArrayOp arr(&ctx, {3, 2});
  arr.Open();
  std::vector<std::pair<int64_t, int64_t>> coords;
  while (VectorBatch* b = arr.Next()) {
    for (int i = 0; i < b->count(); i++) {
      coords.emplace_back(static_cast<const int64_t*>(b->column(0).data())[i],
                          static_cast<const int64_t*>(b->column(1).data())[i]);
    }
  }
  ASSERT_EQ(coords.size(), 6u);
  // Column-major: first dimension varies fastest.
  EXPECT_EQ(coords[0], (std::pair<int64_t, int64_t>{0, 0}));
  EXPECT_EQ(coords[1], (std::pair<int64_t, int64_t>{1, 0}));
  EXPECT_EQ(coords[3], (std::pair<int64_t, int64_t>{0, 1}));
  EXPECT_EQ(coords[5], (std::pair<int64_t, int64_t>{2, 1}));
}

}  // namespace
}  // namespace x100

// Unit tests for the MonetDB/MIL column-algebra substrate: selects,
// positional joins, multiplex maps, grouping, grouped aggregates, joins and
// sorting — each against a scalar reference.

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mil/mil_db.h"
#include "mil/mil_ops.h"
#include "storage/table.h"

namespace x100 {
namespace {

Bat MakeF64(const std::vector<double>& v) {
  Bat b(TypeId::kF64);
  for (double x : v) b.PushBack(x);
  return b;
}
Bat MakeI32(const std::vector<int32_t>& v) {
  Bat b(TypeId::kI32);
  for (int32_t x : v) b.PushBack(x);
  return b;
}

TEST(MilTest, USelectAndRange) {
  Bat b = MakeI32({5, 1, 9, 3, 7, 3});
  Bat lt = MilUSelect(nullptr, b, MilCmp::kLt, Value::I32(5));
  ASSERT_EQ(lt.size(), 3);
  EXPECT_EQ(lt.Data<int64_t>()[0], 1);
  EXPECT_EQ(lt.Data<int64_t>()[1], 3);
  EXPECT_EQ(lt.Data<int64_t>()[2], 5);
  Bat rg = MilUSelectRange(nullptr, b, Value::I32(3), Value::I32(7));
  ASSERT_EQ(rg.size(), 4);  // 5,3,7,3
}

TEST(MilTest, FetchJoinAllWidths) {
  Bat oids(TypeId::kI64);
  oids.PushBack<int64_t>(2);
  oids.PushBack<int64_t>(0);
  Bat f = MakeF64({1.5, 2.5, 3.5});
  Bat r = MilFetchJoin(nullptr, oids, f);
  EXPECT_DOUBLE_EQ(r.Data<double>()[0], 3.5);
  EXPECT_DOUBLE_EQ(r.Data<double>()[1], 1.5);

  Bat i8(TypeId::kI8);
  i8.PushBack<int8_t>('a');
  i8.PushBack<int8_t>('b');
  i8.PushBack<int8_t>('c');
  Bat r8 = MilFetchJoin(nullptr, oids, i8);
  EXPECT_EQ(r8.Data<int8_t>()[0], 'c');
}

TEST(MilTest, MultiplexMapsMaterialize) {
  Bat a = MakeF64({1, 2, 3});
  Bat b = MakeF64({10, 20, 30});
  Bat sum = MilMap(nullptr, MilArith::kAdd, a, b);
  Bat sub = MilMapVal(nullptr, MilArith::kSub, Value::F64(1.0), a);
  EXPECT_DOUBLE_EQ(sum.Data<double>()[2], 33);
  EXPECT_DOUBLE_EQ(sub.Data<double>()[0], 0.0);
  EXPECT_DOUBLE_EQ(sub.Data<double>()[2], -2.0);
  // Mixed-type path (i32 * f64).
  Bat c = MakeI32({2, 4, 6});
  Bat mix = MilMap(nullptr, MilArith::kMul, c, b);
  EXPECT_DOUBLE_EQ(mix.Data<double>()[1], 80);
}

TEST(MilTest, GroupRefineAndAggregates) {
  // Random two-key grouping vs a scalar reference.
  Rng rng(17);
  Bat k1(TypeId::kI32), k2(TypeId::kI32), v(TypeId::kF64);
  std::map<std::pair<int32_t, int32_t>, std::pair<double, int64_t>> ref;
  for (int i = 0; i < 5000; i++) {
    int32_t a = static_cast<int32_t>(rng.Uniform(0, 13));
    int32_t b = static_cast<int32_t>(rng.Uniform(0, 7));
    double x = rng.NextDouble();
    k1.PushBack(a);
    k2.PushBack(b);
    v.PushBack(x);
    ref[{a, b}].first += x;
    ref[{a, b}].second++;
  }
  int64_t ng1 = 0, ng = 0;
  Bat g1 = MilGroup(nullptr, k1, &ng1);
  Bat g = MilGroupRefine(nullptr, g1, ng1, k2, &ng);
  ASSERT_EQ(ng, static_cast<int64_t>(ref.size()));
  Bat sums = MilSumGrouped(nullptr, v, g, ng);
  Bat cnts = MilCountGrouped(nullptr, g, ng);
  Bat reps = MilGroupReps(nullptr, g, ng);
  for (int64_t i = 0; i < ng; i++) {
    int64_t rep = reps.Data<int64_t>()[i];
    auto key = std::make_pair(k1.Data<int32_t>()[rep], k2.Data<int32_t>()[rep]);
    EXPECT_NEAR(sums.Data<double>()[i], ref[key].first, 1e-9);
    EXPECT_EQ(cnts.Data<int64_t>()[i], ref[key].second);
  }
}

TEST(MilTest, GroupedAggregatesOfEmptySelection) {
  // A select that matches nothing leaves zero groups; the grouped aggregates
  // must return empty results without clearing through a null pointer.
  Bat k = MakeI32({4, 8, 15});
  Bat f = MakeF64({1.0, 2.0, 3.0});
  Bat oids = MilUSelect(nullptr, k, MilCmp::kLt, Value::I32(0));
  ASSERT_EQ(oids.size(), 0);
  int64_t ng = -1;
  Bat g = MilGroup(nullptr, MilFetchJoin(nullptr, oids, k), &ng);
  ASSERT_EQ(ng, 0);
  for (const Bat* v : {&f, &k}) {  // the f64 and the integer sum
    Bat vals = MilFetchJoin(nullptr, oids, *v);
    EXPECT_EQ(MilSumGrouped(nullptr, vals, g, ng).size(), 0);
  }
  EXPECT_EQ(MilCountGrouped(nullptr, g, ng).size(), 0);
}

TEST(MilTest, EmptyInputsSortSliceAndConvert) {
  // An empty Bat's data pointer is null, and memcpy to null is undefined even
  // for zero bytes: each op must skip its copy at zero length (the sanitizer
  // build aborts on it otherwise).
  Bat empty = MakeI32({});
  Bat order = MilSortOids(nullptr, {&empty}, {false});
  EXPECT_EQ(order.size(), 0);
  EXPECT_EQ(MilSlice(nullptr, order, 10).size(), 0);

  Bat keys = MakeI32({3, 1, 2});
  Bat sorted = MilSortOids(nullptr, {&keys}, {false});
  ASSERT_EQ(sorted.size(), 3);
  EXPECT_EQ(MilSlice(nullptr, sorted, 0).size(), 0);

  Table t("t", {{"x", TypeId::kI32, false}});
  t.Freeze();
  EXPECT_EQ(BatFromColumn(nullptr, t, "x").size(), 0);
}

TEST(MilTest, MinMaxGrouped) {
  Bat g(TypeId::kI64);
  Bat v = MakeF64({5, 1, 9, 2, 7, 7});
  for (int64_t x : {0, 0, 1, 1, 0, 1}) g.PushBack(x);
  Bat mn = MilMinGrouped(nullptr, v, g, 2);
  Bat mx = MilMaxGrouped(nullptr, v, g, 2);
  EXPECT_DOUBLE_EQ(mn.Data<double>()[0], 1);
  EXPECT_DOUBLE_EQ(mn.Data<double>()[1], 2);
  EXPECT_DOUBLE_EQ(mx.Data<double>()[0], 7);
  EXPECT_DOUBLE_EQ(mx.Data<double>()[1], 9);
}

TEST(MilTest, JoinSemiAnti) {
  Bat a = MakeI32({1, 2, 3, 2});
  Bat b = MakeI32({2, 2, 4});
  MilJoinResult jr = MilJoin(nullptr, a, b);
  // a[1]=2 matches b0,b1; a[3]=2 matches b0,b1 -> 4 pairs.
  ASSERT_EQ(jr.left_oids.size(), 4);
  Bat semi = MilSemiJoin(nullptr, a, b);
  ASSERT_EQ(semi.size(), 2);
  EXPECT_EQ(semi.Data<int64_t>()[0], 1);
  EXPECT_EQ(semi.Data<int64_t>()[1], 3);
  Bat anti = MilAntiJoin(nullptr, a, b);
  ASSERT_EQ(anti.size(), 2);
  EXPECT_EQ(anti.Data<int64_t>()[0], 0);
  EXPECT_EQ(anti.Data<int64_t>()[1], 2);
}

TEST(MilTest, SortOidsMultiKey) {
  Bat k1 = MakeI32({2, 1, 2, 1});
  Bat k2 = MakeF64({0.5, 0.9, 0.1, 0.2});
  Bat ord = MilSortOids(nullptr, {&k1, &k2}, {false, true});
  // (1,0.9), (1,0.2), (2,0.5), (2,0.1)
  EXPECT_EQ(ord.Data<int64_t>()[0], 1);
  EXPECT_EQ(ord.Data<int64_t>()[1], 3);
  EXPECT_EQ(ord.Data<int64_t>()[2], 0);
  EXPECT_EQ(ord.Data<int64_t>()[3], 2);
}

TEST(MilTest, UniqueAndUnion) {
  Bat b = MakeI32({3, 1, 3, 2, 1});
  Bat u = MilUnique(nullptr, b);
  ASSERT_EQ(u.size(), 3);
  EXPECT_EQ(u.Data<int32_t>()[0], 3);  // first-occurrence order
  EXPECT_EQ(u.Data<int32_t>()[1], 1);
  EXPECT_EQ(u.Data<int32_t>()[2], 2);

  Bat x(TypeId::kI64), y(TypeId::kI64);
  for (int64_t v : {1, 3, 5}) x.PushBack(v);
  for (int64_t v : {2, 3, 6}) y.PushBack(v);
  Bat un = MilUnionOids(nullptr, x, y);
  ASSERT_EQ(un.size(), 5);
  EXPECT_EQ(un.Data<int64_t>()[2], 3);  // deduplicated
  EXPECT_EQ(un.Data<int64_t>()[4], 6);
}

TEST(MilTest, TraceRecordsBandwidth) {
  MilSession s;
  s.trace = true;
  Bat v = MakeF64(std::vector<double>(100000, 1.5));
  Bat r = MilMapVal(&s, MilArith::kMul, Value::F64(2.0), v, "[*](2.0,v)");
  ASSERT_EQ(s.stmts.size(), 1u);
  EXPECT_EQ(s.stmts[0].text, "[*](2.0,v)");
  EXPECT_NEAR(s.stmts[0].megabytes, 1.6, 0.01);  // 0.8MB in + 0.8MB out
  EXPECT_GT(s.stmts[0].Bandwidth(), 0);
  EXPECT_EQ(s.stmts[0].result_size, 100000);
}

TEST(MilTest, BatFromColumnDecodesEnums) {
  Table t("t", {{"tag", TypeId::kStr, true}, {"v", TypeId::kF64, true}});
  t.AppendRow({Value::Str("a"), Value::F64(0.5)});
  t.AppendRow({Value::Str("b"), Value::F64(0.25)});
  t.AppendRow({Value::Str("a"), Value::F64(0.5)});
  t.Freeze();
  Bat tag = BatFromColumn(nullptr, t, "tag");
  Bat v = BatFromColumn(nullptr, t, "v");
  EXPECT_EQ(tag.type(), TypeId::kStr);
  EXPECT_STREQ(tag.Data<const char*>()[2], "a");
  EXPECT_EQ(v.type(), TypeId::kF64);
  EXPECT_DOUBLE_EQ(v.Data<double>()[1], 0.25);
  // MIL storage is uncompressed: 3 doubles = 24 bytes vs 3 code bytes.
  EXPECT_EQ(v.bytes(), 24u);
}

}  // namespace
}  // namespace x100

// Unit + property tests for the vectorized primitives: every generated kernel
// is checked against a scalar reference, with and without selection vectors,
// and every compare select is checked in both Figure 2 shapes (the predicated
// kernel the engine binds and its `_branch` twin) across selectivities 0-100%.

#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "primitives/primitive.h"
#include "primitives/string_prims.h"

namespace x100 {
namespace {

std::vector<int> MakeSel(int n, int stride) {
  std::vector<int> sel;
  for (int i = 0; i < n; i += stride) sel.push_back(i);
  return sel;
}

TEST(RegistryTest, HundredsOfPrimitives) {
  // The paper: "X100 contains hundreds of vectorized primitives".
  EXPECT_GT(PrimitiveRegistry::Get().size(), 300u);
}

TEST(RegistryTest, PaperStyleNamesResolve) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  EXPECT_NE(r.FindMap("map_add_f64_col_f64_col"), nullptr);
  EXPECT_NE(r.FindMap("map_sub_f64_val_f64_col"), nullptr);
  EXPECT_NE(r.FindMap("map_mul_f64_col_f64_col"), nullptr);
  EXPECT_NE(r.FindMap("map_fetch_f64_col_u8_col"), nullptr);
  EXPECT_NE(r.FindSelect("select_lt_i32_col_i32_val"), nullptr);
  EXPECT_NE(r.FindSelect("select_lt_i32_col_i32_val_branch"), nullptr);
  EXPECT_NE(r.FindAggr("aggr_sum_f64_col"), nullptr);
  EXPECT_NE(r.FindAggr("aggr_count"), nullptr);
  EXPECT_EQ(r.FindMap("map_frobnicate_f64_col"), nullptr);
}

// ---- map arithmetic ----------------------------------------------------------

struct MapArithCase {
  const char* name;
  double (*ref)(double, double);
};

class MapArithTest : public ::testing::TestWithParam<MapArithCase> {};

TEST_P(MapArithTest, ColColMatchesReference) {
  const MapArithCase& c = GetParam();
  const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(
      std::string("map_") + c.name + "_f64_col_f64_col");
  ASSERT_NE(prim, nullptr);
  constexpr int kN = 777;
  std::vector<double> a(kN), b(kN), res(kN, -1);
  Rng rng(1);
  for (int i = 0; i < kN; i++) {
    a[i] = rng.NextDouble() * 100;
    b[i] = rng.NextDouble() * 100 + 1;
  }
  const void* args[2] = {a.data(), b.data()};
  prim->fn(kN, res.data(), args, nullptr);
  for (int i = 0; i < kN; i++) EXPECT_DOUBLE_EQ(res[i], c.ref(a[i], b[i]));

  // With a selection vector, only selected slots are written.
  std::vector<int> sel = MakeSel(kN, 3);
  std::fill(res.begin(), res.end(), -1);
  prim->fn(static_cast<int>(sel.size()), res.data(), args, sel.data());
  for (int i = 0; i < kN; i++) {
    if (i % 3 == 0) {
      EXPECT_DOUBLE_EQ(res[i], c.ref(a[i], b[i]));
    } else {
      EXPECT_EQ(res[i], -1);  // untouched, as §4.1.1 requires
    }
  }
}

TEST_P(MapArithTest, ColValAndValCol) {
  const MapArithCase& c = GetParam();
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  const MapPrimitive* cv =
      r.FindMap(std::string("map_") + c.name + "_f64_col_f64_val");
  const MapPrimitive* vc =
      r.FindMap(std::string("map_") + c.name + "_f64_val_f64_col");
  ASSERT_NE(cv, nullptr);
  ASSERT_NE(vc, nullptr);
  constexpr int kN = 100;
  std::vector<double> a(kN), res(kN);
  for (int i = 0; i < kN; i++) a[i] = i + 1;
  double v = 3.5;
  const void* args_cv[2] = {a.data(), &v};
  cv->fn(kN, res.data(), args_cv, nullptr);
  for (int i = 0; i < kN; i++) EXPECT_DOUBLE_EQ(res[i], c.ref(a[i], v));
  const void* args_vc[2] = {&v, a.data()};
  vc->fn(kN, res.data(), args_vc, nullptr);
  for (int i = 0; i < kN; i++) EXPECT_DOUBLE_EQ(res[i], c.ref(v, a[i]));
}

INSTANTIATE_TEST_SUITE_P(
    Ops, MapArithTest,
    ::testing::Values(MapArithCase{"add", [](double a, double b) { return a + b; }},
                      MapArithCase{"sub", [](double a, double b) { return a - b; }},
                      MapArithCase{"mul", [](double a, double b) { return a * b; }},
                      MapArithCase{"div", [](double a, double b) { return a / b; }}),
    [](const ::testing::TestParamInfo<MapArithCase>& info) {
      return info.param.name;
    });

TEST(MapIntArithTest, I32AndI64) {
  const MapPrimitive* p32 =
      PrimitiveRegistry::Get().FindMap("map_mul_i32_col_i32_col");
  const MapPrimitive* p64 =
      PrimitiveRegistry::Get().FindMap("map_add_i64_col_i64_val");
  ASSERT_NE(p32, nullptr);
  ASSERT_NE(p64, nullptr);
  std::vector<int32_t> a{2, 3, 4}, b{10, 20, 30}, r32(3);
  const void* args[2] = {a.data(), b.data()};
  p32->fn(3, r32.data(), args, nullptr);
  EXPECT_EQ(r32[0], 20);
  EXPECT_EQ(r32[2], 120);
  std::vector<int64_t> c{100, 200}, r64(2);
  int64_t v = 5;
  const void* args64[2] = {c.data(), &v};
  p64->fn(2, r64.data(), args64, nullptr);
  EXPECT_EQ(r64[0], 105);
  EXPECT_EQ(r64[1], 205);
}

// ---- select primitives: every compare, branch vs predicated vs reference ---

// Each row of a case qualifies with probability `selectivity`%. For col-val
// the row draws from the values in [base + 10, base + 109] that pass (or fail)
// `op` against the constant base + 60; for col-col `b` is a-1, a or a+1,
// whichever passes (or fails). base is -60 for signed types, so negative
// values take part, and 0 for unsigned ones. Every range fits i8 and u8.
bool CmpRef(const std::string& op, double a, double b) {
  if (op == "lt") return a < b;
  if (op == "le") return a <= b;
  if (op == "gt") return a > b;
  if (op == "ge") return a >= b;
  if (op == "eq") return a == b;
  return a != b;
}

template <typename T>
void CheckCompares(const char* t, int selectivity) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  constexpr int kN = 2048;
  const std::vector<int> sel = MakeSel(kN, 3);
  for (const char* op : {"lt", "le", "gt", "ge", "eq", "ne"}) {
    for (bool col_col : {false, true}) {
      std::string name = std::string("select_") + op + "_" + t + "_col_" + t +
                         (col_col ? "_col" : "_val");
      const SelectPrimitive* pred = r.FindSelect(name);
      const SelectPrimitive* branch = r.FindSelect(name + "_branch");
      ASSERT_NE(pred, nullptr) << name;
      ASSERT_NE(branch, nullptr) << name;

      Rng rng(static_cast<uint64_t>(selectivity) * 131 + (col_col ? 7 : 0));
      const int base = std::is_signed<T>::value ? -60 : 0;
      std::vector<T> a(kN), b(kN);
      const T v = static_cast<T>(base + 60);
      for (int i = 0; i < kN; i++) {
        bool want = rng.Uniform(0, 99) < selectivity;
        if (col_col) {
          int x = base + static_cast<int>(rng.Uniform(11, 108));
          int d = static_cast<int>(rng.Uniform(0, 2));
          while (CmpRef(op, x, x + d - 1) != want) d = (d + 1) % 3;
          a[i] = static_cast<T>(x);
          b[i] = static_cast<T>(x + d - 1);
        } else {
          int x = static_cast<int>(rng.Uniform(10, 109));
          while (CmpRef(op, x, 60) != want) x = x == 109 ? 10 : x + 1;
          a[i] = static_cast<T>(base + x);
        }
      }
      const void* args[2] = {a.data(),
                             col_col ? static_cast<const void*>(b.data()) : &v};

      for (bool with_sel : {false, true}) {
        const int* s = with_sel ? sel.data() : nullptr;
        int n = with_sel ? static_cast<int>(sel.size()) : kN;
        std::vector<int> ref;
        for (int j = 0; j < n; j++) {
          int i = s ? s[j] : j;
          double rhs = static_cast<double>(col_col ? b[i] : v);
          if (CmpRef(op, static_cast<double>(a[i]), rhs)) ref.push_back(i);
        }
        if (selectivity == 0) {
          ASSERT_TRUE(ref.empty()) << name;
        }
        if (selectivity == 100) {
          ASSERT_EQ(static_cast<int>(ref.size()), n) << name;
        }
        std::vector<int> out_p(kN), out_b(kN);
        int kp = pred->fn(n, out_p.data(), args, s);
        int kb = branch->fn(n, out_b.data(), args, s);
        out_p.resize(static_cast<size_t>(kp));
        out_b.resize(static_cast<size_t>(kb));
        EXPECT_EQ(out_p, ref) << name << " sel=" << with_sel;
        EXPECT_EQ(out_b, ref) << name << "_branch sel=" << with_sel;
      }
    }
  }
}

class SelectSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectSweepTest, EveryCompareBranchEqualsPredicatedAndReference) {
  int selectivity = GetParam();  // percent
  CheckCompares<int8_t>("i8", selectivity);
  CheckCompares<uint8_t>("u8", selectivity);
  CheckCompares<int16_t>("i16", selectivity);
  CheckCompares<uint16_t>("u16", selectivity);
  CheckCompares<int32_t>("i32", selectivity);
  CheckCompares<int64_t>("i64", selectivity);
  CheckCompares<double>("f64", selectivity);
}

INSTANTIATE_TEST_SUITE_P(Selectivity, SelectSweepTest,
                         ::testing::Values(0, 5, 25, 50, 75, 95, 100));

TEST(SelectOpsTest, AllComparatorsAllTypes) {
  // Each comparator on each numeric type against a scalar reference.
  const char* ops[6] = {"lt", "le", "gt", "ge", "eq", "ne"};
  std::vector<int64_t> vals{-3, -1, 0, 1, 2, 3, 5, 5, 7};
  for (const char* op : ops) {
    const SelectPrimitive* prim = PrimitiveRegistry::Get().FindSelect(
        std::string("select_") + op + "_i64_col_i64_val");
    ASSERT_NE(prim, nullptr) << op;
    int64_t v = 2;
    const void* args[2] = {vals.data(), &v};
    std::vector<int> out(vals.size());
    int k = prim->fn(static_cast<int>(vals.size()), out.data(), args, nullptr);
    std::vector<int> ref;
    for (size_t i = 0; i < vals.size(); i++) {
      bool keep = false;
      std::string o = op;
      if (o == "lt") keep = vals[i] < v;
      if (o == "le") keep = vals[i] <= v;
      if (o == "gt") keep = vals[i] > v;
      if (o == "ge") keep = vals[i] >= v;
      if (o == "eq") keep = vals[i] == v;
      if (o == "ne") keep = vals[i] != v;
      if (keep) ref.push_back(static_cast<int>(i));
    }
    ASSERT_EQ(k, static_cast<int>(ref.size())) << op;
    for (int i = 0; i < k; i++) EXPECT_EQ(out[i], ref[i]) << op;
  }
}

// ---- aggregates ---------------------------------------------------------------

TEST(AggrTest, GroupedSumMinMaxCount) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  constexpr int kN = 1000;
  constexpr int kGroups = 7;
  std::vector<double> vals(kN);
  std::vector<uint32_t> groups(kN);
  Rng rng(9);
  for (int i = 0; i < kN; i++) {
    vals[i] = rng.NextDouble() * 10 - 5;
    groups[i] = static_cast<uint32_t>(rng.Uniform(0, kGroups - 1));
  }
  std::vector<double> sum(kGroups, 0), mn(kGroups, 1e300), mx(kGroups, -1e300);
  std::vector<int64_t> cnt(kGroups, 0);
  r.FindAggr("aggr_sum_f64_col")->fn(kN, sum.data(), groups.data(), vals.data(),
                                     nullptr);
  r.FindAggr("aggr_min_f64_col")->fn(kN, mn.data(), groups.data(), vals.data(),
                                     nullptr);
  r.FindAggr("aggr_max_f64_col")->fn(kN, mx.data(), groups.data(), vals.data(),
                                     nullptr);
  r.FindAggr("aggr_count")->fn(kN, cnt.data(), groups.data(), nullptr, nullptr);

  std::vector<double> rsum(kGroups, 0), rmn(kGroups, 1e300), rmx(kGroups, -1e300);
  std::vector<int64_t> rcnt(kGroups, 0);
  for (int i = 0; i < kN; i++) {
    rsum[groups[i]] += vals[i];
    rmn[groups[i]] = std::min(rmn[groups[i]], vals[i]);
    rmx[groups[i]] = std::max(rmx[groups[i]], vals[i]);
    rcnt[groups[i]]++;
  }
  for (int g = 0; g < kGroups; g++) {
    EXPECT_DOUBLE_EQ(sum[g], rsum[g]);
    EXPECT_DOUBLE_EQ(mn[g], rmn[g]);
    EXPECT_DOUBLE_EQ(mx[g], rmx[g]);
    EXPECT_EQ(cnt[g], rcnt[g]);
  }
}

TEST(AggrTest, ScalarAccumulatorWithSelection) {
  std::vector<int32_t> vals{1, 2, 3, 4, 5, 6};
  std::vector<int> sel{0, 2, 4};
  int64_t acc = 0;
  PrimitiveRegistry::Get().FindAggr("aggr_sum_i32_col")->fn(
      3, &acc, nullptr, vals.data(), sel.data());
  EXPECT_EQ(acc, 1 + 3 + 5);
}

// ---- fetch / hash / compound ----------------------------------------------------

TEST(FetchTest, GatherByCodes) {
  const MapPrimitive* prim =
      PrimitiveRegistry::Get().FindMap("map_fetch_f64_col_u8_col");
  ASSERT_NE(prim, nullptr);
  double dict[3] = {0.05, 0.10, 0.00};
  std::vector<uint8_t> codes{0, 1, 2, 1, 0};
  std::vector<double> res(5);
  const void* args[2] = {codes.data(), dict};
  prim->fn(5, res.data(), args, nullptr);
  EXPECT_DOUBLE_EQ(res[0], 0.05);
  EXPECT_DOUBLE_EQ(res[3], 0.10);
  EXPECT_DOUBLE_EQ(res[4], 0.05);
}

TEST(HashTest, RehashDistinguishesKeyOrder) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  const MapPrimitive* h = r.FindMap("map_hash_i32_col");
  const MapPrimitive* rh = r.FindMap("map_rehash_i32_col");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(rh, nullptr);
  std::vector<int32_t> a{1, 2}, b{2, 1};
  std::vector<uint64_t> ha(2), hb(2), out(2);
  const void* args1[1] = {a.data()};
  h->fn(2, ha.data(), args1, nullptr);
  const void* args2[2] = {b.data(), ha.data()};
  rh->fn(2, out.data(), args2, nullptr);
  // (1,2) vs (2,1) must hash differently.
  EXPECT_NE(out[0], out[1]);
}

TEST(CompoundTest, FusedMatchesChain) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  constexpr int kN = 512;
  std::vector<double> disc(kN), price(kN);
  Rng rng(5);
  for (int i = 0; i < kN; i++) {
    disc[i] = rng.Uniform(0, 10) / 100.0;
    price[i] = rng.NextDouble() * 1000;
  }
  double one = 1.0;
  // Chain: tmp = 1 - disc; out = tmp * price.
  std::vector<double> tmp(kN), chained(kN), fused(kN);
  const void* a1[2] = {&one, disc.data()};
  r.FindMap("map_sub_f64_val_f64_col")->fn(kN, tmp.data(), a1, nullptr);
  const void* a2[2] = {tmp.data(), price.data()};
  r.FindMap("map_mul_f64_col_f64_col")->fn(kN, chained.data(), a2, nullptr);
  // Fused: the generated kernel the binder binds for (1 - disc) * price.
  const void* a3[3] = {&one, disc.data(), price.data()};
  r.FindMap("map_fused_sub_vc_mul_pc_f64")->fn(kN, fused.data(), a3, nullptr);
  for (int i = 0; i < kN; i++) EXPECT_DOUBLE_EQ(fused[i], chained[i]);
}

TEST(CompoundTest, MahalanobisMatchesExpressionChain) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  std::vector<double> x{1, 2, 3}, mu{0.5, 0.5, 0.5}, sig{2, 4, 8}, out(3);
  const void* args[3] = {x.data(), mu.data(), sig.data()};
  r.FindMap("map_fused_sub_cc_square_p_div_pc_f64")->fn(3, out.data(), args,
                                                        nullptr);
  for (int i = 0; i < 3; i++) {
    double d = x[i] - mu[i];
    EXPECT_DOUBLE_EQ(out[i], d * d / sig[i]);
  }
}

// ---- strings -------------------------------------------------------------------

TEST(LikeTest, PatternSemantics) {
  EXPECT_TRUE(LikeMatch("hello world", "hello%"));
  EXPECT_TRUE(LikeMatch("hello world", "%world"));
  EXPECT_TRUE(LikeMatch("hello world", "%lo wo%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(LikeMatch("special packages requests", "%special%requests%"));
  EXPECT_FALSE(LikeMatch("special requests denied", "%special%requests"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_FALSE(LikeMatch("abc", "abd"));
  EXPECT_TRUE(LikeMatch("aaab", "%a_b"));      // backtracking
  EXPECT_TRUE(LikeMatch("MEDIUM POLISHED TIN", "MEDIUM POLISHED%"));
  EXPECT_FALSE(LikeMatch("PROMO POLISHED TIN", "MEDIUM POLISHED%"));
}

// The LIKE primitives pick a matcher by pattern shape; LikeMatch is the
// reference they must agree with, pattern by pattern and value by value.
TEST(LikeTest, ShapeSpecializedPrimitivesMatchLikeMatch) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  const SelectPrimitive* like = r.FindSelect("select_like_str_col_str_val");
  const SelectPrimitive* notlike =
      r.FindSelect("select_notlike_str_col_str_val");
  ASSERT_NE(like, nullptr);
  ASSERT_NE(notlike, nullptr);

  Rng rng(7);
  auto random_str = [&](const char* alphabet, int alpha_n, int max_len) {
    std::string out(static_cast<size_t>(rng.Uniform(0, max_len)), ' ');
    for (char& c : out) c = alphabet[rng.Uniform(0, alpha_n - 1)];
    return out;
  };
  std::vector<std::string> strs;
  for (int i = 0; i < 1024; i++) {
    // Mostly short values over {a,b}; every 16th one long enough for the
    // patterns that overflow the matcher's segment buffer.
    strs.push_back(i % 16 == 0 ? random_str("aab", 3, 90)
                               : random_str("ab", 2, 7));
  }
  strs[0] = "";
  strs[1] = "aba";
  strs[2] = std::string(80, 'a');
  std::vector<const char*> vals;
  for (const std::string& v : strs) vals.push_back(v.c_str());

  std::vector<std::string> pats = {
      "", "%", "%%", "a", "ab", "a%", "%a", "%a%", "%%a%%", "a%%", "%%b",
      "a%b", "ab%ba", "%ab%ba%", "%ab%ba", "ab%ba%", "a%b%a", "%b%b%b%",
      "_", "__", "a_", "_b%", "%_b%", "a%_", "%a_b", "abababababab",
      "%abababababab%", std::string(70, 'a'),
      "%" + std::string(64, 'a') + "%",
      std::string(32, 'a') + "%" + std::string(32, 'a'),
      "%" + std::string(62, 'a'), std::string(62, 'a') + "%"};
  for (int i = 0; i < 200; i++) pats.push_back(random_str("ab%%_", 5, 7));

  const std::vector<int> sel = MakeSel(1024, 3);
  std::vector<int> got(1024), got_not(1024);
  for (const std::string& pat : pats) {
    const char* p = pat.c_str();
    const void* args[2] = {vals.data(), &p};
    for (int n : {1, 13, 1024}) {
      for (bool with_sel : {false, true}) {
        const int* s = with_sel ? sel.data() : nullptr;
        int m = with_sel ? (n + 2) / 3 : n;
        std::vector<int> want, want_not;
        for (int j = 0; j < m; j++) {
          int i = s ? s[j] : j;
          (LikeMatch(vals[i], p) ? want : want_not).push_back(i);
        }
        int k = like->fn(m, got.data(), args, s);
        int k_not = notlike->fn(m, got_not.data(), args, s);
        EXPECT_EQ(std::vector<int>(got.begin(), got.begin() + k), want)
            << "like '" << pat << "' n=" << n << " sel=" << with_sel;
        EXPECT_EQ(std::vector<int>(got_not.begin(), got_not.begin() + k_not),
                  want_not)
            << "notlike '" << pat << "' n=" << n << " sel=" << with_sel;
      }
    }
  }

  // Segments never overlap: 'ab' then 'ba' needs four characters.
  EXPECT_FALSE(LikeMatch("aba", "%ab%ba%"));
  const char* p = "%ab%ba%";
  const void* args[2] = {&vals[1], &p};
  EXPECT_EQ(like->fn(1, got.data(), args, nullptr), 0);
}

// String compares and LIKE against strcmp/LikeMatch, with and without an input
// selection vector. The constants pass none, some or all of the values, which
// come from a small alphabet so equal pairs and pattern hits are common.
TEST(StringSelectTest, ComparesAndLikeMatchReference) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  constexpr int kN = 1024;
  Rng rng(23);
  std::vector<std::string> strs;
  for (int i = 0; i < kN; i++) {
    std::string x(static_cast<size_t>(rng.Uniform(0, 4)), ' ');
    for (char& c : x) c = "ab"[rng.Uniform(0, 1)];
    strs.push_back(x);
  }
  std::vector<const char*> a, b;
  for (int i = 0; i < kN; i++) {
    a.push_back(strs[static_cast<size_t>(i)].c_str());
    b.push_back(strs[static_cast<size_t>(rng.Uniform(0, kN - 1))].c_str());
  }
  auto ref_op = [](const std::string& op, const char* x, const char* y) {
    int c = std::strcmp(x, y);
    if (op == "like") return LikeMatch(x, y);
    if (op == "notlike") return !LikeMatch(x, y);
    return CmpRef(op, c, 0);
  };
  const std::vector<int> sel = MakeSel(kN, 3);
  std::vector<int> out(kN);
  auto check = [&](const std::string& name, const std::string& op,
                   const void* const* args, bool col_col, const char* v) {
    const SelectPrimitive* prim = r.FindSelect(name);
    ASSERT_NE(prim, nullptr) << name;
    for (bool with_sel : {false, true}) {
      const int* s = with_sel ? sel.data() : nullptr;
      int n = with_sel ? static_cast<int>(sel.size()) : kN;
      std::vector<int> ref;
      for (int j = 0; j < n; j++) {
        int i = s ? s[j] : j;
        if (ref_op(op, a[static_cast<size_t>(i)],
                   col_col ? b[static_cast<size_t>(i)] : v)) {
          ref.push_back(i);
        }
      }
      int k = prim->fn(n, out.data(), args, s);
      EXPECT_EQ(std::vector<int>(out.begin(), out.begin() + k), ref)
          << name << " '" << (col_col ? "" : v) << "' sel=" << with_sel;
    }
  };
  for (const char* op : {"eq", "ne", "lt", "le", "gt", "ge"}) {
    // "" passes none (lt) or all (ge); "ab" splits the values.
    for (const char* v : {"", "ab", "bbbbb"}) {
      const void* args[2] = {a.data(), &v};
      check(std::string("select_") + op + "_str_col_str_val", op, args, false,
            v);
    }
    const void* args[2] = {a.data(), b.data()};
    check(std::string("select_") + op + "_str_col_str_col", op, args, true,
          nullptr);
  }
  for (const char* op : {"like", "notlike"}) {
    for (const char* v : {"%", "a%", "x%"}) {
      const void* args[2] = {a.data(), &v};
      check(std::string("select_") + op + "_str_col_str_val", op, args, false,
            v);
    }
    const void* args[2] = {a.data(), b.data()};
    check(std::string("select_") + op + "_str_col_str_col", op, args, true,
          nullptr);
  }
}

TEST(StringSelectTest, EqAndLike) {
  const PrimitiveRegistry& r = PrimitiveRegistry::Get();
  const char* vals[4] = {"MAIL", "SHIP", "MAIL", "AIR"};
  const char* target = "MAIL";
  const void* args[2] = {vals, &target};
  std::vector<int> out(4);
  int k = r.FindSelect("select_eq_str_col_str_val")->fn(4, out.data(), args,
                                                        nullptr);
  ASSERT_EQ(k, 2);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 2);

  const char* pat = "S%";
  const void* args2[2] = {vals, &pat};
  k = r.FindSelect("select_like_str_col_str_val")->fn(4, out.data(), args2,
                                                      nullptr);
  ASSERT_EQ(k, 1);
  EXPECT_EQ(out[0], 1);
}

}  // namespace
}  // namespace x100

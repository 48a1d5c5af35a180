// Hash-table layer tests: the batch probe/insert protocol of the linear
// probing table at the unit level, operator-level edge cases (empty build
// side, all-miss probes, duplicate keys across growth, extreme i64 keys,
// selection-vector probes), HashJoin's dense-key filter checked
// differentially against the hash path, join key checks at construction, and
// which TPC-H join nodes take the filter or the hash path.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "exec/hash_table.h"
#include "exec/plan.h"
#include "exec/trace.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace x100 {
namespace {

using plan::OpPtr;

template <typename... Ts>
std::vector<AggrSpec> AG(Ts&&... ts) {
  std::vector<AggrSpec> v;
  (v.push_back(std::move(ts)), ...);
  return v;
}

// Drives the find-or-insert protocol for a batch of hashes against `t`,
// treating the 64-bit hash itself as the key (so candidate == match).
// Returns the resolved value per lane.
std::vector<uint32_t> FindOrInsert(HashTable* t, HashTable::Probe* p,
                                   const std::vector<uint64_t>& hashes,
                                   const std::vector<uint32_t>& values) {
  int n = static_cast<int>(hashes.size());
  t->Reserve(hashes.size());
  t->ProbeBegin(p, hashes.data(), nullptr, n);
  while (int nc = t->ProbeRound(p)) {
    for (int k = 0; k < nc; k++) t->Accept(p, k);
  }
  std::vector<uint32_t> out(hashes.size());
  for (int j = 0; j < n; j++) {
    uint32_t v = p->result(j);
    if (v == HashTable::kNone) {
      uint32_t cand = HashTable::kNone;
      while (!t->InsertMiss(p, j, values[j], &cand)) {
        v = t->EntryValue(cand);  // same-hash entry from this batch
        break;
      }
      if (v == HashTable::kNone) v = values[j];
    }
    out[j] = v;
  }
  return out;
}

TEST(HashTableTest, EmptyTableAllMiss) {
  HashTable t;
  HashTable::Probe p;
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 100; i++) hashes.push_back(HashU64(i * 977));
  t.ProbeBegin(&p, hashes.data(), nullptr, 100);
  EXPECT_EQ(t.ProbeRound(&p), 0);  // no candidates anywhere
  for (int j = 0; j < 100; j++) {
    EXPECT_EQ(p.result(j), HashTable::kNone);
  }
  EXPECT_EQ(t.size(), 0u);
}

TEST(HashTableTest, InsertFindRoundTripAcrossGrowth) {
  HashTable t;
  HashTable::Probe p;
  t.Reset(0);  // start tiny so inserts force rebuilds
  const int kKeys = 20000;
  const int kBatch = 512;
  for (int base = 0; base < kKeys; base += kBatch) {
    std::vector<uint64_t> hashes;
    std::vector<uint32_t> values;
    int end = base + kBatch < kKeys ? base + kBatch : kKeys;
    for (int i = base; i < end; i++) {
      hashes.push_back(HashU64(static_cast<uint64_t>(i)));
      values.push_back(static_cast<uint32_t>(i));
    }
    std::vector<uint32_t> got = FindOrInsert(&t, &p, hashes, values);
    for (size_t j = 0; j < values.size(); j++) {
      EXPECT_EQ(got[j], values[j]);
    }
  }
  EXPECT_EQ(t.size(), static_cast<size_t>(kKeys));
  EXPECT_GT(t.stats().grows, 0u);

  // Every key resolves to its value; unseen keys miss.
  std::vector<uint64_t> hashes;
  for (int i = 0; i < kBatch; i++) {
    hashes.push_back(HashU64(static_cast<uint64_t>(i * 37)));
  }
  t.ProbeBegin(&p, hashes.data(), nullptr, kBatch);
  while (int nc = t.ProbeRound(&p)) {
    for (int k = 0; k < nc; k++) t.Accept(&p, k);
  }
  for (int i = 0; i < kBatch; i++) {
    uint32_t want = static_cast<uint32_t>(i * 37);
    if (i * 37 < kKeys) {
      EXPECT_EQ(p.result(i), want);
    } else {
      EXPECT_EQ(p.result(i), HashTable::kNone);
    }
  }
}

TEST(HashTableTest, SelectionVectorLanes) {
  HashTable t;
  HashTable::Probe p;
  std::vector<uint64_t> hashes(16, 0);
  // Only odd positions carry live hashes; the sel vector must be honored.
  std::vector<int> sel;
  std::vector<uint32_t> values;
  for (int i = 1; i < 16; i += 2) {
    hashes[i] = HashU64(static_cast<uint64_t>(i));
    sel.push_back(i);
  }
  int n = static_cast<int>(sel.size());
  t.Reserve(static_cast<size_t>(n));
  t.ProbeBegin(&p, hashes.data(), sel.data(), n);
  EXPECT_EQ(t.ProbeRound(&p), 0);
  for (int j = 0; j < n; j++) {
    uint32_t cand = HashTable::kNone;
    EXPECT_TRUE(t.InsertMiss(&p, j, static_cast<uint32_t>(sel[j]), &cand));
  }
  // Re-probe through the same sel: lane j must resolve to sel[j].
  t.ProbeBegin(&p, hashes.data(), sel.data(), n);
  while (int nc = t.ProbeRound(&p)) {
    for (int k = 0; k < nc; k++) t.Accept(&p, k);
  }
  for (int j = 0; j < n; j++) {
    EXPECT_EQ(p.result(j), static_cast<uint32_t>(sel[j]));
  }
}

TEST(HashTableTest, SameHashTwiceInOneBatchChainsViaInsertMiss) {
  // Two lanes with the same (previously unseen) hash both miss the vector
  // pass; the scalar pass must hand lane 2 the entry lane 1 just created.
  HashTable t;
  HashTable::Probe p;
  uint64_t h = HashU64(42);
  std::vector<uint64_t> hashes = {h, h};
  t.Reserve(2);
  t.ProbeBegin(&p, hashes.data(), nullptr, 2);
  EXPECT_EQ(t.ProbeRound(&p), 0);
  uint32_t cand = HashTable::kNone;
  EXPECT_TRUE(t.InsertMiss(&p, 0, 7, &cand));
  EXPECT_FALSE(t.InsertMiss(&p, 1, 8, &cand));  // finds lane 0's entry
  EXPECT_EQ(t.EntryValue(cand), 7u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(HashTableTest, ResetDropsEntriesKeepsStats) {
  HashTable t;
  HashTable::Probe p;
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> values;
  for (int i = 0; i < 200; i++) {
    hashes.push_back(HashU64(static_cast<uint64_t>(i)));
    values.push_back(static_cast<uint32_t>(i));
  }
  FindOrInsert(&t, &p, hashes, values);
  uint64_t inserts = t.stats().inserts;
  EXPECT_EQ(inserts, 200u);
  t.Reset(0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.stats().inserts, inserts);  // lifetime stats survive Reset
  t.ProbeBegin(&p, hashes.data(), nullptr, 1);
  EXPECT_EQ(t.ProbeRound(&p), 0);
  EXPECT_EQ(p.result(0), HashTable::kNone);
}

// ---- Operator-level edge cases ---------------------------------------------

class HashOpsTest : public ::testing::Test {
 protected:
  ExecContext ctx_;

  static std::unique_ptr<Table> MakeKv(const std::string& name,
                                       const std::vector<int64_t>& keys) {
    auto t = std::make_unique<Table>(
        name, std::vector<Table::ColumnSpec>{{"k", TypeId::kI64, false},
                                             {"v", TypeId::kI64, false}});
    int64_t i = 0;
    for (int64_t k : keys) t->AppendRow({Value::I64(k), Value::I64(i++)});
    t->Freeze();
    return t;
  }
};

TEST_F(HashOpsTest, EmptyBuildSide) {
  std::unique_ptr<Table> probe = MakeKv("p", {1, 2, 3, 4, 5});
  std::unique_ptr<Table> build = MakeKv("b", {});
  auto inner = plan::Join(&ctx_, plan::Scan(&ctx_, *probe, {"k", "v"}),
                          plan::Scan(&ctx_, *build, {"k"}),
                          {.probe_keys = {"k"},
                           .build_keys = {"k"},
                           .probe_out = {"k", "v"}});
  EXPECT_EQ(RunPlan(std::move(inner), "r")->num_rows(), 0);

  auto anti = plan::AntiJoin(&ctx_, plan::Scan(&ctx_, *probe, {"k", "v"}),
                             plan::Scan(&ctx_, *build, {"k"}),
                             {.probe_keys = {"k"},
                              .build_keys = {"k"},
                              .probe_out = {"k", "v"}});
  EXPECT_EQ(RunPlan(std::move(anti), "r")->num_rows(), 5);

  auto outer = plan::Join(&ctx_, plan::Scan(&ctx_, *probe, {"k", "v"}),
                          plan::Scan(&ctx_, *build, {"k", "v"}),
                          {.probe_keys = {"k"},
                           .build_keys = {"k"},
                           .probe_out = {"k"},
                           .build_out = {"v"},
                           .type = JoinType::kLeftOuterDefault});
  std::unique_ptr<Table> r = RunPlan(std::move(outer), "r");
  EXPECT_EQ(r->num_rows(), 5);
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 1).AsI64(), 0);  // type-default fill
  }
}

TEST_F(HashOpsTest, AllProbeMissBatches) {
  std::vector<int64_t> pk, bk;
  for (int64_t i = 0; i < 3000; i++) pk.push_back(i);
  for (int64_t i = 0; i < 500; i++) bk.push_back(100000 + i);  // disjoint
  std::unique_ptr<Table> probe = MakeKv("p", pk);
  std::unique_ptr<Table> build = MakeKv("b", bk);
  auto j = plan::Join(&ctx_, plan::Scan(&ctx_, *probe, {"k", "v"}),
                      plan::Scan(&ctx_, *build, {"k", "v"}),
                      {.probe_keys = {"k"},
                       .build_keys = {"k"},
                       .probe_out = {"k"},
                       .build_out = {"v"}});
  EXPECT_EQ(RunPlan(std::move(j), "r")->num_rows(), 0);
}

TEST_F(HashOpsTest, HeavyDuplicateKeysAcrossResize) {
  // 20000 build rows over 1000 distinct keys: the table grows several times
  // while every key accumulates a 20-deep duplicate chain. Every probe of
  // key k must see all 20 rows.
  std::vector<int64_t> bk, pk;
  for (int64_t i = 0; i < 20000; i++) bk.push_back(i % 1000);
  for (int64_t i = 0; i < 1000; i++) pk.push_back(i);
  std::unique_ptr<Table> probe = MakeKv("p", pk);
  std::unique_ptr<Table> build = MakeKv("b", bk);
  auto j = plan::Join(&ctx_, plan::Scan(&ctx_, *probe, {"k"}),
                      plan::Scan(&ctx_, *build, {"k", "v"}),
                      {.probe_keys = {"k"},
                       .build_keys = {"k"},
                       .probe_out = {"k"},
                       .build_out = {"v"}});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  EXPECT_EQ(r->num_rows(), 20000);
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 1).AsI64() % 1000, r->GetValue(i, 0).AsI64());
  }

  // Same shape through aggregation: 1000 groups, 20 rows each.
  auto ag = plan::Aggr(
      &ctx_, plan::Scan(&ctx_, *build, {"k"}), {"k"}, AG(CountAll("n")));
  std::unique_ptr<Table> g = RunPlan(std::move(ag), "g");
  EXPECT_EQ(g->num_rows(), 1000);
  for (int64_t i = 0; i < g->num_rows(); i++) {
    EXPECT_EQ(g->GetValue(i, 1).AsI64(), 20);
  }
}

TEST_F(HashOpsTest, ExtremeI64Keys) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> keys = {kMin, kMax, -1, 0, 1, kMin + 1, kMax - 1, -42};
  std::unique_ptr<Table> probe = MakeKv("p", keys);
  std::unique_ptr<Table> build = MakeKv("b", keys);
  auto j = plan::Join(&ctx_, plan::Scan(&ctx_, *probe, {"k", "v"}),
                      plan::Scan(&ctx_, *build, {"k", "v"}),
                      {.probe_keys = {"k"},
                       .build_keys = {"k"},
                       .probe_out = {"k", "v"},
                       .build_out = {"v"}});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  EXPECT_EQ(r->num_rows(), static_cast<int64_t>(keys.size()));
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 1).AsI64(), r->GetValue(i, 2).AsI64());
  }
}

TEST_F(HashOpsTest, SelectionVectorProbesAcrossVectorBoundaries) {
  // A selective filter upstream of the join hands the probe sel vectors;
  // a tiny vector size makes chains of them straddle many batches.
  ctx_.vector_size = 16;
  auto probe = std::make_unique<Table>(
      "p", std::vector<Table::ColumnSpec>{{"k", TypeId::kI64, false},
                                          {"flag", TypeId::kI64, false}});
  for (int64_t i = 0; i < 2000; i++) {
    probe->AppendRow({Value::I64(i), Value::I64(i % 2)});
  }
  probe->Freeze();
  std::vector<int64_t> bk;
  for (int64_t i = 0; i < 100; i++) bk.push_back(i * 3);
  std::unique_ptr<Table> build = MakeKv("b", bk);
  using namespace x100::exprs;
  OpPtr scan = plan::Scan(&ctx_, *probe, {"k", "flag"});
  scan = plan::Select(&ctx_, std::move(scan),
                      Eq(Col("flag"), Lit(Value::I64(0))));
  auto j = plan::Join(&ctx_, std::move(scan),
                      plan::Scan(&ctx_, *build, {"k", "v"}),
                      {.probe_keys = {"k"},
                       .build_keys = {"k"},
                       .probe_out = {"k"},
                       .build_out = {"v"}});
  std::unique_ptr<Table> r = RunPlan(std::move(j), "r");
  // Even probe keys that hit the build side (multiples of 3 up to 297):
  // multiples of 6 in [0, 297] -> 50 rows.
  EXPECT_EQ(r->num_rows(), 50);
  for (int64_t i = 0; i < r->num_rows(); i++) {
    EXPECT_EQ(r->GetValue(i, 0).AsI64() % 6, 0);
  }
}

// ---- Dense-key filter vs hash path, differentially --------------------------

// Probe (pk, pv, pf, pz) or build (bk, bv, bz) rows over one integer key
// column of type `t` holding key * scale; pf = row % 3 feeds an upstream
// Select, pz is a constant 0 that gives a two-column-key (hash path) form of
// the same join.
std::unique_ptr<Table> MakeKeyed(const std::string& prefix, TypeId t,
                                 const std::vector<int64_t>& keys,
                                 int64_t scale) {
  auto key = [t](int64_t v) {
    if (t == TypeId::kI32) return Value::I32(static_cast<int32_t>(v));
    if (t == TypeId::kDate) return Value::Date(static_cast<int32_t>(v));
    return Value::I64(v);
  };
  auto tbl = std::make_unique<Table>(
      prefix, std::vector<Table::ColumnSpec>{{prefix + "k", t, false},
                                             {prefix + "v", TypeId::kI64, false},
                                             {prefix + "f", TypeId::kI64, false},
                                             {prefix + "z", t, false}});
  int64_t i = 0;
  for (int64_t k : keys) {
    tbl->AppendRow({key(k * scale), Value::I64(i), Value::I64(i % 3), key(0)});
    i++;
  }
  tbl->Freeze();
  return tbl;
}

struct TracedJoin {
  std::unique_ptr<Table> rows;
  std::map<std::string, uint64_t> counters;  // the join node's
  bool Has(const std::string& name) const { return counters.count(name) > 0; }
};

// Runs probe JOIN build on pk = bk (plus pz = bz when `two_keys`), traced.
// Outputs pk, pv and, for inner/left-outer joins, bk, bv.
TracedJoin RunKeyedJoin(ExecContext ctx, const Table& probe,
                        const Table& build, JoinType type, bool select,
                        bool two_keys) {
  using namespace x100::exprs;
  QueryTrace trace;
  ctx.trace = &trace;
  OpPtr p = plan::Scan(&ctx, probe, {"pk", "pv", "pf", "pz"});
  if (select) p = plan::Select(&ctx, std::move(p), Eq(Col("pf"), Lit(Value::I64(0))));
  JoinSpec spec{.probe_keys = {"pk"},
                .build_keys = {"bk"},
                .probe_out = {"pk", "pv"},
                .type = type};
  if (two_keys) {
    spec.probe_keys.push_back("pz");
    spec.build_keys.push_back("bz");
  }
  if (type == JoinType::kInner || type == JoinType::kLeftOuterDefault) {
    spec.build_out = {"bk", "bv"};
  }
  OpPtr op = plan::Join(&ctx, std::move(p),
                        plan::Scan(&ctx, build, {"bk", "bv", "bz"}),
                        std::move(spec));
  TraceNode* node = static_cast<InstrumentedOperator*>(op.get())->node();
  TracedJoin r;
  r.rows = RunPlan(std::move(op), "r");
  for (const auto& [name, v] : node->counters) r.counters[name] = v;
  return r;
}

// Same rows in the same order, once `got`'s key columns (0 and, when
// present, 2) are divided by `scale`.
void ExpectSameRowsScaled(const Table& want, const Table& got, int64_t scale,
                          const std::string& what) {
  ASSERT_EQ(want.num_rows(), got.num_rows()) << what;
  ASSERT_EQ(want.num_columns(), got.num_columns()) << what;
  for (int64_t i = 0; i < want.num_rows(); i++) {
    for (int c = 0; c < want.num_columns(); c++) {
      int64_t g = got.GetValue(i, c).AsI64();
      if (c % 2 == 0) g /= scale;
      ASSERT_EQ(want.GetValue(i, c).AsI64(), g)
          << what << " row " << i << " col " << c;
    }
  }
}

TEST_F(HashOpsTest, DenseKeyFilterMatchesHashPath) {
  // Each join runs on keys k (dense: the filter engages) and on keys
  // k * 1,000,003 (span far beyond 64 bits per build row: the hash path),
  // and must give the same rows in the same order. Empty and one-row builds
  // have a dense domain at any scale, so they are checked against the
  // two-column-key form of the join, which always hashes. Which probe rows
  // come out, and in what order, is also computed directly from the keys,
  // so a fault both paths share shows too.
  constexpr int64_t kSparse = 1000003;
  const JoinType kTypes[] = {JoinType::kInner, JoinType::kSemi,
                             JoinType::kAnti, JoinType::kLeftOuterDefault};
  const TypeId kKeyTypes[] = {TypeId::kI32, TypeId::kDate, TypeId::kI64};
  enum class Build { kDistinct, kDuplicates, kEmpty, kOneRow };
  for (TypeId kt : kKeyTypes) {
    for (bool negative : {false, true}) {
      int64_t base = negative ? -300 : 0;
      std::vector<int64_t> pk;
      // Keys from 50 below to 150 above the build domain: misses on both
      // sides, ~30% hits inside.
      for (int64_t i = 0; i < 700; i++) pk.push_back(base - 50 + (i * 37) % 500);
      for (Build shape : {Build::kDistinct, Build::kDuplicates, Build::kEmpty,
                          Build::kOneRow}) {
        std::vector<int64_t> bk;
        if (shape == Build::kDistinct) {
          for (int64_t i = 0; i < 150; i++) bk.push_back(base + 2 * i);
        } else if (shape == Build::kDuplicates) {
          for (int64_t i = 0; i < 300; i++) bk.push_back(base + 2 * ((i * 7) % 150));
        } else if (shape == Build::kOneRow) {
          bk.push_back(base + 4);
        }
        bool small = shape == Build::kEmpty || shape == Build::kOneRow;
        int64_t scale = small ? 1 : kSparse;
        std::unique_ptr<Table> probe = MakeKeyed("p", kt, pk, 1);
        std::unique_ptr<Table> build = MakeKeyed("b", kt, bk, 1);
        std::unique_ptr<Table> sprobe = MakeKeyed("p", kt, pk, scale);
        std::unique_ptr<Table> sbuild = MakeKeyed("b", kt, bk, scale);
        for (JoinType type : kTypes) {
          for (bool select : {false, true}) {
            for (int vs : {1, 16, 1024}) {
              std::string what =
                  std::string(TypeName(kt)) + " type=" +
                  std::to_string(static_cast<int>(type)) + " neg=" +
                  std::to_string(negative) + " build=" +
                  std::to_string(static_cast<int>(shape)) + " select=" +
                  std::to_string(select) + " vs=" + std::to_string(vs);
              ExecContext ctx = ctx_;
              ctx.vector_size = vs;
              TracedJoin dense =
                  RunKeyedJoin(ctx, *probe, *build, type, select, false);
              TracedJoin ref =
                  RunKeyedJoin(ctx, *sprobe, *sbuild, type, select, small);
              // Which probe rows (pv) come out, in order, computed here.
              std::vector<int64_t> want_pv;
              for (size_t i = 0; i < pk.size(); i++) {
                if (select && i % 3 != 0) continue;
                int64_t m = std::count(bk.begin(), bk.end(), pk[i]);
                if (type == JoinType::kSemi) m = m > 0 ? 1 : 0;
                if (type == JoinType::kAnti) m = m > 0 ? 0 : 1;
                if (type == JoinType::kLeftOuterDefault) m = std::max<int64_t>(m, 1);
                want_pv.insert(want_pv.end(), m, static_cast<int64_t>(i));
              }
              ASSERT_EQ(dense.rows->num_rows(),
                        static_cast<int64_t>(want_pv.size())) << what;
              for (size_t r = 0; r < want_pv.size(); r++) {
                ASSERT_EQ(dense.rows->GetValue(static_cast<int64_t>(r), 1).AsI64(),
                          want_pv[r]) << what << " row " << r;
              }
              EXPECT_TRUE(dense.Has("filter.probes")) << what;
              EXPECT_FALSE(ref.Has("filter.probes")) << what;
              bool semi_anti =
                  type == JoinType::kSemi || type == JoinType::kAnti;
              EXPECT_EQ(dense.Has("ht.probes"), !semi_anti) << what;
              ExpectSameRowsScaled(*dense.rows, *ref.rows, scale, what);
            }
          }
        }
      }
    }
  }
}

TEST_F(HashOpsTest, NegativeNarrowKeysMatchOnTheHashPath) {
  // Build and probe keys must hash alike: a build side that zero-extended
  // i32 keys while map_hash_i32_col sign-extends them lost every negative
  // match. The two-column key keeps the join on the hash path.
  for (TypeId kt : {TypeId::kI32, TypeId::kDate}) {
    std::unique_ptr<Table> probe = MakeKeyed("p", kt, {-5, -1, 0, 3, -7}, 1);
    std::unique_ptr<Table> build = MakeKeyed("b", kt, {-7, 3, -5}, 1);
    TracedJoin r = RunKeyedJoin(ctx_, *probe, *build, JoinType::kInner,
                                false, true);
    EXPECT_FALSE(r.Has("filter.probes"));
    ASSERT_EQ(r.rows->num_rows(), 3);
    EXPECT_EQ(r.rows->GetValue(0, 0).AsI64(), -5);
    EXPECT_EQ(r.rows->GetValue(1, 0).AsI64(), 3);
    EXPECT_EQ(r.rows->GetValue(2, 0).AsI64(), -7);
  }
}

TEST_F(HashOpsTest, DenseKeyFilterSkipsFloatKeys) {
  auto t = std::make_unique<Table>(
      "f", std::vector<Table::ColumnSpec>{{"x", TypeId::kF64, false}});
  for (int i = 0; i < 100; i++) t->AppendRow({Value::F64(i)});
  t->Freeze();
  ExecContext ctx = ctx_;
  QueryTrace trace;
  ctx.trace = &trace;
  OpPtr op = plan::SemiJoin(&ctx, plan::Scan(&ctx, *t, {"x"}),
                            plan::Scan(&ctx, *t, {"x"}),
                            {.probe_keys = {"x"},
                             .build_keys = {"x"},
                             .probe_out = {"x"}});
  TraceNode* node = static_cast<InstrumentedOperator*>(op.get())->node();
  EXPECT_EQ(RunPlan(std::move(op), "r")->num_rows(), 100);
  uint64_t ht_probes = 0;
  for (const auto& [name, v] : node->counters) {
    EXPECT_NE(name.rfind("filter.", 0), 0u) << name;
    if (name == "ht.probes") ht_probes = v;
  }
  EXPECT_GT(ht_probes, 0u);
}

TEST_F(HashOpsTest, DenseKeyFilterSkipsFullI64Span) {
  // max - min + 1 overflows u64 here; the join must take the hash path.
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  std::unique_ptr<Table> probe = MakeKeyed("p", TypeId::kI64, {kMin, 0, kMax, 7}, 1);
  std::unique_ptr<Table> build = MakeKeyed("b", TypeId::kI64, {kMax, kMin}, 1);
  for (JoinType type : {JoinType::kInner, JoinType::kSemi, JoinType::kAnti}) {
    TracedJoin r = RunKeyedJoin(ctx_, *probe, *build, type, false, false);
    EXPECT_FALSE(r.Has("filter.probes"));
    EXPECT_GT(r.counters["ht.probes"], 0u);
    ASSERT_EQ(r.rows->num_rows(), 2);
    bool anti = type == JoinType::kAnti;
    EXPECT_EQ(r.rows->GetValue(0, 0).AsI64(), anti ? 0 : kMin);
    EXPECT_EQ(r.rows->GetValue(1, 0).AsI64(), anti ? 7 : kMax);
  }
}

// ---- Join key checks at construction ---------------------------------------

TEST(HashJoinKeyCheckTest, RejectsMismatchedAndUnknownKeys) {
  ExecContext ctx;
  std::unique_ptr<Table> narrow = MakeKeyed("p", TypeId::kI32, {1, 2}, 1);
  std::unique_ptr<Table> wide = MakeKeyed("b", TypeId::kI64, {1, 2}, 1);
  EXPECT_THROW(plan::Join(&ctx, plan::Scan(&ctx, *narrow, {"pk"}),
                          plan::Scan(&ctx, *wide, {"bk"}),
                          {.probe_keys = {"pk"},
                           .build_keys = {"bk"},
                           .probe_out = {"pk"}}),
               std::invalid_argument);
  EXPECT_THROW(plan::SemiJoin(&ctx, plan::Scan(&ctx, *narrow, {"pk"}),
                              plan::Scan(&ctx, *wide, {"bk"}),
                              {.probe_keys = {"pk"},
                               .build_keys = {"nope"},
                               .probe_out = {"pk"}}),
               std::invalid_argument);
  EXPECT_THROW(plan::Join(&ctx, plan::Scan(&ctx, *narrow, {"pk"}),
                          plan::Scan(&ctx, *wide, {"bk"}),
                          {.probe_keys = {"nope"},
                           .build_keys = {"bk"},
                           .probe_out = {"pk"}}),
               std::invalid_argument);
}

// ---- Which TPC-H join nodes take the filter or the hash path ---------------

class HashQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbgenOptions opts;
    opts.scale_factor = 0.01;
    db_ = GenerateTpch(opts).release();
  }
  static Catalog* db_;
};

Catalog* HashQueryTest::db_ = nullptr;

// Appends every node labelled `label` under `n` (n included), depth-first.
void CollectLabeled(const TraceNode& n, const std::string& label,
                    std::vector<const TraceNode*>* out) {
  if (n.label == label) out->push_back(&n);
  for (const TraceNode* c : n.children) CollectLabeled(*c, label, out);
}

std::vector<const TraceNode*> NodesLabeled(const QueryTrace& trace,
                                           const std::string& label) {
  std::vector<const TraceNode*> out;
  for (const TraceNode* r : trace.roots()) CollectLabeled(*r, label, &out);
  return out;
}

bool HasCounter(const TraceNode& n, const std::string& name) {
  for (const auto& kv : n.counters) {
    if (kv.first == name) return true;
  }
  return false;
}

TEST_F(HashQueryTest, Q9SemiJoinRunsOnTheDenseKeyFilter) {
  ExecContext ctx;
  QueryTrace trace;
  ctx.trace = &trace;
  ASSERT_NE(RunX100Query(9, &ctx, *db_), nullptr);
  std::vector<const TraceNode*> semi_joins = NodesLabeled(trace, "SemiJoin");
  EXPECT_FALSE(semi_joins.empty());
  for (const TraceNode* n : semi_joins) {
    EXPECT_TRUE(HasCounter(*n, "filter.span_bits"));
    EXPECT_TRUE(HasCounter(*n, "filter.probes"));
    EXPECT_TRUE(HasCounter(*n, "filter.passed"));
    EXPECT_FALSE(HasCounter(*n, "ht.inserts"));
    EXPECT_FALSE(HasCounter(*n, "ht.probes"));
  }
}

TEST_F(HashQueryTest, Q2TwoColumnJoinStaysOnTheHashPath) {
  ExecContext ctx;
  QueryTrace trace;
  ctx.trace = &trace;
  ASSERT_NE(RunX100Query(2, &ctx, *db_), nullptr);
  int filtered = 0, hashed = 0;
  for (const TraceNode* n : NodesLabeled(trace, "HashJoin")) {
    if (HasCounter(*n, "filter.probes")) {
      filtered++;
    } else if (HasCounter(*n, "ht.probes")) {
      hashed++;
    }
  }
  EXPECT_GT(filtered, 0);  // the single-key joins
  EXPECT_GT(hashed, 0);    // (ps_partkey, ps_supplycost)
}

}  // namespace
}  // namespace x100

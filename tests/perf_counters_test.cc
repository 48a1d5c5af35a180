// Tests for the hardware-counter layer (common/perf_counters.h): the
// PerfCounterValues mask arithmetic that carries "absent, never zero"
// through every renderer, the per-thread group install/nesting contract,
// and — pinned via SetPerfForceDisabledForTest — the degraded mode every
// perf-less machine (CI containers, VMs, perf_event_paranoid) runs in.

#include <string>

#include <gtest/gtest.h>

#include "common/perf_counters.h"
#include "common/profiling.h"

namespace x100 {
namespace {

PerfCounterValues Make(uint64_t cycles, uint64_t instructions) {
  PerfCounterValues v;
  v.Set(PerfEvent::kCycles, cycles);
  v.Set(PerfEvent::kInstructions, instructions);
  return v;
}

// ---- PerfCounterValues -----------------------------------------------------

TEST(PerfCounterValuesTest, DefaultIsAbsentNotZero) {
  PerfCounterValues v;
  EXPECT_FALSE(v.any());
  for (int i = 0; i < kNumPerfEvents; i++) {
    EXPECT_FALSE(v.Has(static_cast<PerfEvent>(i)));
  }
  EXPECT_FALSE(v.HasIpc());
}

TEST(PerfCounterValuesTest, SetMarksPresent) {
  PerfCounterValues v;
  v.Set(PerfEvent::kCacheMisses, 42);
  EXPECT_TRUE(v.any());
  EXPECT_TRUE(v.Has(PerfEvent::kCacheMisses));
  EXPECT_EQ(v.Get(PerfEvent::kCacheMisses), 42u);
  EXPECT_FALSE(v.Has(PerfEvent::kCycles));
}

TEST(PerfCounterValuesTest, AddSumsAndUnionsMasks) {
  PerfCounterValues a = Make(100, 200);
  PerfCounterValues b = Make(10, 20);
  b.Set(PerfEvent::kCacheMisses, 5);
  a.Add(b);
  EXPECT_EQ(a.Get(PerfEvent::kCycles), 110u);
  EXPECT_EQ(a.Get(PerfEvent::kInstructions), 220u);
  // Present-in-one, absent-in-other keeps the present value (mask union).
  EXPECT_TRUE(a.Has(PerfEvent::kCacheMisses));
  EXPECT_EQ(a.Get(PerfEvent::kCacheMisses), 5u);
}

TEST(PerfCounterValuesTest, AddingAbsentIsANoOp) {
  PerfCounterValues a = Make(100, 200);
  a.Add(PerfCounterValues{});
  EXPECT_EQ(a.Get(PerfEvent::kCycles), 100u);
  EXPECT_EQ(a.mask, Make(0, 0).mask);
}

TEST(PerfCounterValuesTest, DeltaIntersectsMasks) {
  PerfCounterValues start = Make(100, 200);
  PerfCounterValues end = Make(150, 260);
  end.Set(PerfEvent::kBranchMisses, 7);  // not in start → not in delta
  PerfCounterValues d = PerfCounterValues::Delta(start, end);
  EXPECT_EQ(d.Get(PerfEvent::kCycles), 50u);
  EXPECT_EQ(d.Get(PerfEvent::kInstructions), 60u);
  EXPECT_FALSE(d.Has(PerfEvent::kBranchMisses));
}

TEST(PerfCounterValuesTest, DeltaSaturatesAtZero) {
  // Multiplexing scaling can make a nested window read slightly backwards;
  // the delta clamps instead of wrapping to 2^64.
  PerfCounterValues start = Make(100, 200);
  PerfCounterValues end = Make(90, 260);
  PerfCounterValues d = end.Since(start);
  EXPECT_TRUE(d.Has(PerfEvent::kCycles));
  EXPECT_EQ(d.Get(PerfEvent::kCycles), 0u);
  EXPECT_EQ(d.Get(PerfEvent::kInstructions), 60u);
}

TEST(PerfCounterValuesTest, IpcNeedsBothEventsAndNonzeroCycles) {
  PerfCounterValues v;
  v.Set(PerfEvent::kInstructions, 100);
  EXPECT_FALSE(v.HasIpc());  // no cycles
  v.Set(PerfEvent::kCycles, 0);
  EXPECT_FALSE(v.HasIpc());  // zero cycles: IPC undefined
  v.Set(PerfEvent::kCycles, 50);
  ASSERT_TRUE(v.HasIpc());
  EXPECT_DOUBLE_EQ(v.Ipc(), 2.0);
}

TEST(PerfEventNameTest, NamesAreStableJsonKeys) {
  EXPECT_STREQ(PerfEventName(PerfEvent::kCycles), "cycles");
  EXPECT_STREQ(PerfEventName(PerfEvent::kInstructions), "instructions");
  EXPECT_STREQ(PerfEventName(PerfEvent::kCacheReferences),
               "cache_references");
  EXPECT_STREQ(PerfEventName(PerfEvent::kCacheMisses), "cache_misses");
  EXPECT_STREQ(PerfEventName(PerfEvent::kBranchInstructions),
               "branch_instructions");
  EXPECT_STREQ(PerfEventName(PerfEvent::kBranchMisses), "branch_misses");
}

// ---- Degraded mode ---------------------------------------------------------

class ForcedDegradedTest : public ::testing::Test {
 protected:
  void SetUp() override { SetPerfForceDisabledForTest(true); }
  void TearDown() override { SetPerfForceDisabledForTest(false); }
};

TEST_F(ForcedDegradedTest, NothingInstallsAndReadsAreAbsent) {
  EXPECT_FALSE(PerfCountersSupported());
  ScopedPerfThread scope;
  EXPECT_EQ(scope.group(), nullptr);
  EXPECT_EQ(CurrentThreadPerfGroup(), nullptr);
  EXPECT_FALSE(ReadThreadPerfCounters().any());
}

TEST_F(ForcedDegradedTest, ProfilerOutputHasNoCounterFields) {
  // The degraded contract end to end: a measured primitive leaf renders its
  // cycle columns but NO hardware-counter keys — absence, not zeros.
  Profiler prof;
  TraceNode* op = prof.tree()->NewNode("Project", "", {});
  TraceNode* leaf = prof.tree()->NewLeaf(op, "map_mul_flt_col_flt_col", 16);
  {
    ScopedCounters window(op);
    volatile double sink = 1.0;
    TimedCall(leaf, 1000, [&] {
      for (int i = 0; i < 1000; i++) sink = sink * 1.000001;
    });
  }
  EXPECT_FALSE(leaf->perf.any());
  EXPECT_FALSE(op->perf.any());
  auto rows = prof.Rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "map_mul_flt_col_flt_col");
  EXPECT_EQ(rows[0].second->calls, 1u);
  EXPECT_EQ(rows[0].second->tuples, 1000u);
  EXPECT_GT(rows[0].second->cycles, 0u);
  EXPECT_FALSE(rows[0].second->perf.any());
  std::string json = prof.ToJson();
  EXPECT_NE(json.find("\"cycles\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"ipc\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"cache_misses\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"instructions\""), std::string::npos) << json;
  std::string text = prof.ToString();
  EXPECT_EQ(text.find("ipc"), std::string::npos) << text;
  EXPECT_EQ(text.find("miss/tup"), std::string::npos) << text;
}

TEST(ProfilerHwTest, RowsWithoutCountersRenderDashNotZero) {
  // A trace where only one leaf carries counters: the text table grows the
  // ipc / miss columns, and the leaf without counters shows "-" there; its
  // JSON row omits the keys.
  Profiler prof;
  TraceNode* op = prof.tree()->NewNode("Select", "", {});
  TraceNode* with = prof.tree()->NewLeaf(op, "select_lt_i32_col_i32_val", 8);
  TraceNode* without = prof.tree()->NewLeaf(op, "select_gt_i32_col_i32_val", 8);
  with->next_calls = without->next_calls = 1;
  with->tuples = without->tuples = 100;
  with->cycles = without->cycles = 200;
  op->cycles = 500;
  with->perf.Set(PerfEvent::kCycles, 200);
  with->perf.Set(PerfEvent::kInstructions, 400);
  with->perf.Set(PerfEvent::kCacheMisses, 5);
  std::string text = prof.ToString();
  EXPECT_NE(text.find("ipc"), std::string::npos) << text;
  size_t gt = text.find("select_gt_i32_col_i32_val");
  ASSERT_NE(gt, std::string::npos);
  std::string gt_line = text.substr(text.rfind('\n', gt) + 1,
                                    gt - text.rfind('\n', gt) - 1);
  EXPECT_NE(gt_line.find(" - "), std::string::npos) << gt_line;
  size_t lt = text.find("select_lt_i32_col_i32_val");
  std::string lt_line = text.substr(text.rfind('\n', lt) + 1,
                                    lt - text.rfind('\n', lt) - 1);
  EXPECT_NE(lt_line.find("2.00"), std::string::npos) << lt_line;
  std::string json = prof.ToJson();
  size_t gt_obj = json.find("\"name\":\"select_gt_i32_col_i32_val\"");
  ASSERT_NE(gt_obj, std::string::npos);
  EXPECT_EQ(json.find("\"ipc\"", gt_obj), std::string::npos) << json;
  EXPECT_NE(json.find("\"ipc\":2"), std::string::npos) << json;
}

TEST(PerfThreadTest, ForceDisableIsReversible) {
  SetPerfForceDisabledForTest(true);
  EXPECT_FALSE(PerfCountersSupported());
  SetPerfForceDisabledForTest(false);
  // After re-enabling, support reflects the machine again (either way, the
  // call must not crash and installs must be consistent with it).
  bool supported = PerfCountersSupported();
  ScopedPerfThread scope;
  EXPECT_EQ(scope.group() != nullptr, supported);
  EXPECT_EQ(CurrentThreadPerfGroup() != nullptr, supported);
}

// ---- Live counters (only on machines that grant perf access) ---------------

TEST(PerfLiveTest, InstalledGroupMeasuresPlausibleDeltas) {
  if (!PerfCountersSupported()) {
    GTEST_SKIP() << "perf_event_open unavailable; degraded mode covered "
                    "elsewhere";
  }
  ScopedPerfThread scope;
  ASSERT_NE(scope.group(), nullptr);
  PerfCounterValues start = ReadThreadPerfCounters();
  ASSERT_TRUE(start.any());
  volatile uint64_t sink = 0;
  for (int i = 0; i < 2'000'000; i++) sink += i;
  PerfCounterValues d = ReadThreadPerfCounters().Since(start);
  // The loop retires at least one instruction per iteration.
  ASSERT_TRUE(d.Has(PerfEvent::kInstructions));
  EXPECT_GT(d.Get(PerfEvent::kInstructions), 1'000'000u);
  ASSERT_TRUE(d.HasIpc());
  EXPECT_GT(d.Ipc(), 0.0);
  EXPECT_LT(d.Ipc(), 16.0);  // sanity: no real core retires 16/cycle
}

TEST(PerfThreadTest, NestedInstallsShareOneGroup) {
  ScopedPerfThread outer;
  PerfCounterGroup* g = CurrentThreadPerfGroup();
  {
    ScopedPerfThread inner;
    EXPECT_EQ(CurrentThreadPerfGroup(), g);
  }
  // Inner exit must not tear down the outer install.
  EXPECT_EQ(CurrentThreadPerfGroup(), g);
}

TEST(PerfThreadTest, WantFalseInstallsNothing) {
  ScopedPerfThread scope(/*want=*/false);
  EXPECT_EQ(scope.group(), nullptr);
  EXPECT_EQ(CurrentThreadPerfGroup(), nullptr);
}

}  // namespace
}  // namespace x100

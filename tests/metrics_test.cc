// Tests for the observability layer: PrimitiveStats derived quantities, the
// Profiler's flattening of a trace tree (row order, name-wise sums, operator
// self cycles, JSON), the JsonWriter, the metrics registry
// (counter/gauge/histogram semantics, snapshots, reset), and EXPLAIN ANALYZE
// operator tracing.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/metrics.h"
#include "common/profiling.h"
#include "exec/plan.h"
#include "exec/trace.h"
#include "storage/catalog.h"

namespace x100 {
namespace {

using namespace x100::exprs;

// --- PrimitiveStats ---------------------------------------------------------

TEST(PrimitiveStatsTest, DerivedQuantities) {
  PrimitiveStats s;
  s.calls = 4;
  s.tuples = 1000;
  s.bytes = 8000;
  s.cycles = 2500;
  EXPECT_DOUBLE_EQ(s.CyclesPerTuple(), 2.5);
  EXPECT_DOUBLE_EQ(s.Megabytes(), 0.008);
  // Micros and Bandwidth go through the measured cycle rate; check they are
  // positive and mutually consistent: MB/s == MB / (us / 1e6).
  double us = s.Micros();
  ASSERT_GT(us, 0.0);
  EXPECT_NEAR(s.Bandwidth(), s.Megabytes() / (us / 1e6),
              s.Bandwidth() * 1e-9);
}

TEST(PrimitiveStatsTest, EmptyIsAllZero) {
  PrimitiveStats s;
  EXPECT_DOUBLE_EQ(s.CyclesPerTuple(), 0.0);
  EXPECT_DOUBLE_EQ(s.Megabytes(), 0.0);
  EXPECT_DOUBLE_EQ(s.Micros(), 0.0);
  EXPECT_DOUBLE_EQ(s.Bandwidth(), 0.0);
}

// --- Profiler ---------------------------------------------------------------

// A hand-built Q1-shaped trace: Scan -> Select -> Project -> Aggr, each
// operator with its primitive leaves, and a second sub-plan root whose Scan
// and map_mul repeat names of the first.
struct HandTrace {
  Profiler p;
  TraceNode *scan, *select, *project, *aggr, *scan2, *project2;

  HandTrace() {
    QueryTrace* t = p.tree();
    scan = t->NewNode("Scan", "lineitem", {});
    select = t->NewNode("Select", "", {scan});
    TraceNode* sel = t->NewLeaf(select, "select_lt_i32_col_i32_val", 8);
    project = t->NewNode("Project", "", {select});
    TraceNode* mul = t->NewLeaf(project, "map_mul_f64_col_f64_col", 24);
    TraceNode* add = t->NewLeaf(project, "map_add_f64_val_f64_col", 16);
    aggr = t->NewNode("Aggr", "direct", {project});
    TraceNode* sum = t->NewLeaf(aggr, "aggr_sum_f64_col", 12);
    scan2 = t->NewNode("Scan", "orders", {});
    project2 = t->NewNode("Project", "", {scan2});
    TraceNode* mul2 = t->NewLeaf(project2, "map_mul_f64_col_f64_col", 24);

    Set(sel, 2, 2000, 100);
    Set(mul, 2, 1000, 60);
    Set(add, 2, 1000, 40);
    Set(sum, 2, 1000, 50);
    Set(mul2, 1, 500, 30);
    Set(scan, 3, 2000, 70);
    Set(select, 3, 1000, 70 + 100 + 30);    // self 30
    Set(project, 3, 1000, 200 + 100 + 20);  // self 20
    Set(aggr, 2, 4, 320 + 50 + 80);         // self 80
    Set(scan2, 2, 500, 10);
    Set(project2, 2, 500, 10 + 30 + 5);     // self 5
  }

  static void Set(TraceNode* n, uint64_t calls, uint64_t tuples,
                  uint64_t cycles) {
    n->next_calls = calls;
    n->tuples = tuples;
    n->cycles = cycles;
  }
};

TEST(ProfilerTest, RowsFlattenLeavesInPostOrderThenOperators) {
  HandTrace h;
  std::vector<std::string> names;
  for (const auto& [name, s] : h.p.Rows()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "select_lt_i32_col_i32_val", "map_mul_f64_col_f64_col",
                       "map_add_f64_val_f64_col", "aggr_sum_f64_col", "Scan",
                       "Select", "Project", "Aggr"}));
}

TEST(ProfilerTest, RowsSumByName) {
  HandTrace h;
  std::map<std::string, const PrimitiveStats*> rows;
  for (const auto& [name, s] : h.p.Rows()) rows[name] = s;
  const PrimitiveStats* mul = rows.at("map_mul_f64_col_f64_col");
  EXPECT_EQ(mul->calls, 3u);
  EXPECT_EQ(mul->tuples, 1500u);
  EXPECT_EQ(mul->bytes, 1500u * 24);
  EXPECT_EQ(mul->cycles, 90u);
  const PrimitiveStats* scan = rows.at("Scan");
  EXPECT_EQ(scan->calls, 5u);
  EXPECT_EQ(scan->tuples, 2500u);
  EXPECT_EQ(scan->cycles, 80u);
  // Operator rows carry no bytes: only primitives declare their traffic.
  EXPECT_EQ(scan->bytes, 0u);
}

TEST(ProfilerTest, OperatorRowsAreSelfCyclesAndPartitionTheTrace) {
  HandTrace h;
  std::map<std::string, uint64_t> cycles;
  uint64_t sum = 0;
  for (const auto& [name, s] : h.p.Rows()) {
    cycles[name] = s->cycles;
    sum += s->cycles;
  }
  EXPECT_EQ(cycles.at("Select"), 30u);
  EXPECT_EQ(cycles.at("Project"), 25u);
  EXPECT_EQ(cycles.at("Aggr"), 80u);
  EXPECT_EQ(cycles.at("aggr_sum_f64_col"), 50u);
  EXPECT_EQ(sum, h.aggr->cycles + h.project2->cycles);
}

TEST(ProfilerTest, EmptyTraceHasNoRows) {
  Profiler p;
  EXPECT_TRUE(p.Rows().empty());
  EXPECT_EQ(p.ToJson(), "[]");
}

TEST(ProfilerTest, ToJsonRoundTrip) {
  HandTrace h;
  std::string j = h.p.ToJson();
  // Structural sanity: an array of row objects in Rows() order, all keys
  // present with the right values.
  EXPECT_EQ(j.front(), '[');
  EXPECT_EQ(j.back(), ']');
  size_t first = j.find("\"name\":\"select_lt_i32_col_i32_val\"");
  size_t second = j.find("\"name\":\"Scan\"");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_NE(j.find("\"calls\":2"), std::string::npos);
  EXPECT_NE(j.find("\"tuples\":2000"), std::string::npos);
  EXPECT_NE(j.find("\"bytes\":16000"), std::string::npos);
  EXPECT_NE(j.find("\"cycles\":100"), std::string::npos);
  EXPECT_NE(j.find("\"cycles_per_tuple\":20"), std::string::npos);  // Aggr
}

// --- JsonWriter -------------------------------------------------------------

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a"); w.Value(int64_t{1});
  w.Key("b");
  w.BeginArray();
  w.Value(1.5);
  w.Value(true);
  w.Value("x");
  w.EndArray();
  w.Key("c"); w.Value("y");
  w.EndObject();
  EXPECT_EQ(std::move(w).Take(), "{\"a\":1,\"b\":[1.5,true,\"x\"],\"c\":\"y\"}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.BeginArray();
  w.Value("quote\" back\\ tab\t nl\n");
  w.EndArray();
  EXPECT_EQ(std::move(w).Take(), "[\"quote\\\" back\\\\ tab\\t nl\\n\"]");
}

// --- Metrics registry -------------------------------------------------------

TEST(MetricsTest, CounterSemantics) {
  Counter c;
  EXPECT_EQ(c.Get(), 0u);
  c.Inc();
  c.Add(41);
  EXPECT_EQ(c.Get(), 42u);
  c.Reset();
  EXPECT_EQ(c.Get(), 0u);
}

TEST(MetricsTest, GaugeSemantics) {
  Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.Get(), 3.5);
  g.Set(-1);
  EXPECT_DOUBLE_EQ(g.Get(), -1.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Get(), 0.0);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Min(), 0u);  // empty

  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(1000);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 1006u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 1006.0 / 4.0);

  // Bucket 0 holds zeros; bucket i holds values of bit length i, so 1 lands
  // in bucket 1, 5 in bucket 3 ([4,7]), 1000 in bucket 10 ([512,1023]).
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);
  EXPECT_EQ(h.BucketCount(10), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(4), 15u);
  uint64_t total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; i++) total += h.BucketCount(i);
  EXPECT_EQ(total, 4u);

  // Percentiles are bucket upper bounds and monotone in p.
  EXPECT_LE(h.ApproxPercentile(50), h.ApproxPercentile(99));
  EXPECT_EQ(h.ApproxPercentile(100), 1023u);

  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Min(), 0u);
}

TEST(MetricsTest, EmptyHistogramExportsNullStats) {
  // A never-recorded histogram has no min/max/mean/percentiles: min_ starts
  // at the ~0 sentinel, and exporting it raw put an 18-quintillion "min"
  // into BENCH_*.json. The snapshot must emit null for every undefined stat.
  Histogram* h =
      MetricsRegistry::Get().GetHistogram("test.empty_histogram_export");
  h->Reset();
  std::string json = MetricsRegistry::Get().Snapshot().ToJson();
  size_t at = json.find("\"test.empty_histogram_export\"");
  ASSERT_NE(at, std::string::npos);
  std::string row = json.substr(at, json.find('}', at) - at);
  EXPECT_NE(row.find("\"count\":0"), std::string::npos) << row;
  EXPECT_NE(row.find("\"min\":null"), std::string::npos) << row;
  EXPECT_NE(row.find("\"max\":null"), std::string::npos) << row;
  EXPECT_NE(row.find("\"mean\":null"), std::string::npos) << row;
  EXPECT_NE(row.find("\"p50\":null"), std::string::npos) << row;
  EXPECT_NE(row.find("\"p99\":null"), std::string::npos) << row;
  EXPECT_EQ(row.find("18446744073709551615"), std::string::npos) << row;

  // Once a value lands the stats turn numeric again.
  h->Record(7);
  json = MetricsRegistry::Get().Snapshot().ToJson();
  at = json.find("\"test.empty_histogram_export\"");
  row = json.substr(at, json.find('}', at) - at);
  EXPECT_NE(row.find("\"min\":7"), std::string::npos) << row;
  EXPECT_EQ(row.find("null"), std::string::npos) << row;
  h->Reset();
}

TEST(MetricsTest, RegistryReturnsStablePointersAndSnapshots) {
  MetricsRegistry& reg = MetricsRegistry::Get();
  Counter* c = reg.GetCounter("test.registry.counter");
  EXPECT_EQ(reg.GetCounter("test.registry.counter"), c);
  EXPECT_NE(reg.GetCounter("test.registry.other"), c);
  c->Reset();
  c->Add(9);
  reg.GetGauge("test.registry.gauge")->Set(2.25);
  Histogram* h = reg.GetHistogram("test.registry.hist");
  h->Reset();
  h->Record(16);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("test.registry.counter"), 9u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.registry.gauge"), 2.25);
  EXPECT_EQ(snap.histograms.at("test.registry.hist").count, 1u);
  EXPECT_EQ(snap.histograms.at("test.registry.hist").max, 16u);

  std::string j = snap.ToJson();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"test.registry.counter\":9"), std::string::npos);
}

TEST(MetricsTest, ResetAllZeroesButKeepsNames) {
  MetricsRegistry& reg = MetricsRegistry::Get();
  Counter* c = reg.GetCounter("test.resetall.counter");
  c->Add(5);
  reg.ResetAll();
  EXPECT_EQ(c->Get(), 0u);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("test.resetall.counter"), 0u);
}

// --- EXPLAIN ANALYZE tracing ------------------------------------------------

TEST(TraceTest, NodeSelfCyclesClampAndRollup) {
  QueryTrace t;
  TraceNode* leaf = t.NewNode("Scan", "t", {});
  leaf->cycles = 60;
  leaf->tuples = 10;
  TraceNode* root = t.NewNode("Select", "", {leaf});
  root->cycles = 100;
  root->tuples = 4;
  EXPECT_EQ(root->ChildCycles(), 60u);
  EXPECT_EQ(root->SelfCycles(), 40u);
  EXPECT_DOUBLE_EQ(root->SelfCyclesPerTuple(), 10.0);
  // Children drop out of the root list once consumed.
  ASSERT_EQ(t.roots().size(), 1u);
  EXPECT_EQ(t.roots()[0], root);
  // Nested timing is lossy; self cycles clamp instead of wrapping.
  leaf->cycles = 1000;
  EXPECT_EQ(root->SelfCycles(), 0u);
}

TEST(TraceTest, EndToEndTracedPlan) {
  Catalog cat;
  Table* t = cat.AddTable("nums", {{"v", TypeId::kI64, false}});
  for (int i = 0; i < 5000; i++) t->AppendRow({Value::I64(i % 100)});
  t->Freeze();

  QueryTrace trace;
  ExecContext ctx;
  ctx.trace = &trace;
  auto op = plan::Scan(&ctx, *t, {"v"});
  std::vector<AggrSpec> aggrs;
  aggrs.push_back(Sum("s", Col("v")));
  op = plan::Aggr(&ctx, std::move(op), {}, std::move(aggrs));
  std::unique_ptr<Table> res = RunPlan(std::move(op), "traced_sum");

  ASSERT_EQ(res->num_rows(), 1);
  ASSERT_EQ(trace.roots().size(), 1u);
  const TraceNode* root = trace.roots()[0];
  EXPECT_EQ(root->label, "Aggr");
  EXPECT_EQ(root->plan_name, "traced_sum");
  // The child operator, then the leaf of the primitive the Aggr bound.
  ASSERT_EQ(root->children.size(), 2u);
  const TraceNode* scan = root->children[0];
  const TraceNode* sum = root->children[1];
  EXPECT_FALSE(scan->primitive);
  EXPECT_TRUE(sum->primitive);
  EXPECT_EQ(sum->label, "aggr_sum_i64_col");
  EXPECT_EQ(sum->tuples, 5000u);
  EXPECT_EQ(sum->next_calls, scan->batches);
  EXPECT_EQ(scan->label, "Scan");
  EXPECT_EQ(scan->detail, "nums");
  EXPECT_EQ(scan->tuples, 5000u);
  EXPECT_GT(scan->next_calls, scan->batches);  // one extra call returns null
  EXPECT_GT(root->cycles, 0u);
  EXPECT_GE(root->cycles, scan->cycles);

  std::string txt = trace.ToString();
  EXPECT_NE(txt.find("[traced_sum]"), std::string::npos);
  EXPECT_NE(txt.find("Aggr"), std::string::npos);
  EXPECT_NE(txt.find("Scan"), std::string::npos);
  std::string j = trace.ToJson();
  EXPECT_NE(j.find("\"label\":\"Aggr\""), std::string::npos);
  EXPECT_NE(j.find("\"tuples\":5000"), std::string::npos);
}

TEST(TraceTest, NoTracingMeansNoWrapping) {
  Catalog cat;
  Table* t = cat.AddTable("nums", {{"v", TypeId::kI64, false}});
  t->AppendRow({Value::I64(1)});
  t->Freeze();
  ExecContext ctx;  // trace == nullptr
  auto op = plan::Scan(&ctx, *t, {"v"});
  EXPECT_EQ(dynamic_cast<InstrumentedOperator*>(op.get()), nullptr);
}

}  // namespace
}  // namespace x100

// Hash-table micro-bench: builds and probes the engine's linear-probing
// table at a cache-resident size and at an SF=0.1-class build size,
// exporting BENCH_hashtable.json for the CI gate
// (bench/baselines/hashtable.json).
//
// Measured per size (series keep the "linear" tag of the layout they time):
//   build_linear_<size>            seconds per rep (insert all keys)
//   probe_linear_<size>            seconds per rep (probe the whole stream)
//   build/probe _ns_per_tuple      scalars from the best rep
//   probe_linear_<size>_llc_miss_per_tuple   counter scalar, only when the
//        machine exposes a PMU (absent on perf-less runners; the baseline
//        marks these "counter": true so ABSENT passes the gate)
//
// The stream above is all hits. Most TPC-H probes miss, so a second,
// join-level set runs HashJoinOp (semi and inner) at 1% and 10% hit rates:
//   join_<semi|inner>_<dense|sparse>_hit<01|10>   seconds per rep
//   ..._ns_per_probe                              scalars from the best rep
//   <semi|inner>_dense_vs_sparse_speedup_hit<01|10>
// "dense" joins integer keys whose span qualifies for the dense-key filter;
// "sparse" joins the same keys times 1,000,003, which takes the hash path.
// The gate holds semi_..._hit01 and inner_..._hit10.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "common/perf_counters.h"
#include "exec/hash_table.h"
#include "exec/plan.h"

namespace x100 {
namespace {

using bench::BenchExport;
using bench::MeasureReps;
using bench::RepSet;

constexpr int kLanes = 1024;  // vector-at-a-time, engine default

// Inserts keys [0, n) (hashed) in chunks, exactly the operators' protocol.
void BuildTable(HashTable* t, HashTable::Probe* p,
                const std::vector<uint64_t>& hashes) {
  t->Reset(0);  // grow from scratch: growth cost is part of build
  size_t n = hashes.size();
  for (size_t base = 0; base < n; base += kLanes) {
    int cn = static_cast<int>(n - base < kLanes ? n - base : kLanes);
    t->Reserve(static_cast<size_t>(cn));
    t->ProbeBegin(p, hashes.data() + base, nullptr, cn);
    while (int nc = t->ProbeRound(p)) {
      for (int k = 0; k < nc; k++) t->Accept(p, k);  // hash == key here
    }
    for (int j = 0; j < cn; j++) {
      if (p->result(j) != HashTable::kNone) continue;
      uint32_t cand = HashTable::kNone;
      t->InsertMiss(p, j, static_cast<uint32_t>(base) + j, &cand);
    }
  }
}

// Probes the stream in chunks; returns a sink value so the loop can't be
// dead-code-eliminated.
uint64_t ProbeTable(HashTable* t, HashTable::Probe* p,
                    const std::vector<uint64_t>& stream) {
  uint64_t sink = 0;
  size_t n = stream.size();
  for (size_t base = 0; base < n; base += kLanes) {
    int cn = static_cast<int>(n - base < kLanes ? n - base : kLanes);
    t->ProbeBegin(p, stream.data() + base, nullptr, cn);
    while (int nc = t->ProbeRound(p)) {
      for (int k = 0; k < nc; k++) t->Accept(p, k);
    }
    for (int j = 0; j < cn; j++) sink += p->result(j);
  }
  return sink;
}

struct SizeClass {
  const char* name;
  size_t build_keys;
  size_t probes;
};

// Join-level series: the build side holds every (1/hit)-th value of a
// 65,536-value key domain and the probe keys are uniform over the domain,
// so `hit` is the probe hit rate.
constexpr int64_t kJoinDomain = 65536;
constexpr size_t kJoinProbes = size_t{1} << 20;
constexpr int64_t kSparseScale = 1000003;

std::unique_ptr<Table> KeyTable(const std::string& col,
                                const std::vector<int64_t>& keys,
                                int64_t scale) {
  auto t = std::make_unique<Table>(
      col, std::vector<Table::ColumnSpec>{{col, TypeId::kI64, false}});
  for (int64_t k : keys) t->AppendRow({Value::I64(k * scale)});
  t->Freeze();
  return t;
}

// Runs probe JOIN build on k = bk to completion; returns the output rows.
uint64_t DrainJoin(const Table& probe, const Table& build, JoinType type) {
  ExecContext ctx;
  JoinSpec spec{.probe_keys = {"k"}, .build_keys = {"bk"},
                .probe_out = {"k"}, .type = type};
  if (type == JoinType::kInner) spec.build_out = {"bk"};
  plan::OpPtr op = plan::Join(&ctx, plan::Scan(&ctx, probe, {"k"}),
                              plan::Scan(&ctx, build, {"bk"}),
                              std::move(spec));
  op->Open();
  uint64_t rows = 0;
  while (VectorBatch* b = op->Next()) rows += static_cast<uint64_t>(b->sel_count());
  op->Close();
  return rows;
}

}  // namespace
}  // namespace x100

int main() {
  using namespace x100;

  int reps = bench::Reps(5);
  // "small" is cache-resident; "large" matches an SF=0.1 join build side
  // (orders has 150K rows at SF=0.1) and spills the slot array out of L2.
  const SizeClass sizes[] = {
      {"small", size_t{1} << 12, size_t{1} << 20},
      {"large", size_t{1} << 18, size_t{1} << 22},
  };

  BenchExport out("hashtable");

  for (const SizeClass& sz : sizes) {
    // Distinct keys, hashed once up front (the engine hashes via the
    // map_hash pipeline; this bench measures the table, not the hashing).
    std::vector<uint64_t> build_hash(sz.build_keys);
    for (size_t i = 0; i < sz.build_keys; i++) {
      build_hash[i] = HashU64(static_cast<uint64_t>(i));
    }
    // Probe stream: uniform-random hits over the whole key range, so every
    // probe is a dependent random access into the slot array.
    std::vector<uint64_t> stream(sz.probes);
    uint64_t s = 0x9E3779B97F4A7C15ull;
    for (size_t i = 0; i < sz.probes; i++) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      stream[i] = build_hash[(s >> 33) % sz.build_keys];
    }

    std::string tag = std::string("linear_") + sz.name;
    HashTable t;
    HashTable::Probe p;

    RepSet build = MeasureReps(reps, [&] { BuildTable(&t, &p, build_hash); });
    if (t.size() != sz.build_keys) {
      std::fprintf(stderr, "[bench] BUG: %s built %zu of %zu keys\n",
                   tag.c_str(), t.size(), sz.build_keys);
      return 1;
    }

    uint64_t sink = 0;
    RepSet probe =
        MeasureReps(reps, [&] { sink += ProbeTable(&t, &p, stream); });
    if (sink == uint64_t{0xFFFFFFFFFFFFFFFFull}) std::fprintf(stderr, "-");

    out.AddReps("build_" + tag, build);
    out.AddReps("probe_" + tag, probe);
    double build_ns = build.Best() * 1e9 / static_cast<double>(sz.build_keys);
    double probe_ns = probe.Best() * 1e9 / static_cast<double>(sz.probes);
    out.AddScalar("build_" + tag + "_ns_per_tuple", build_ns, "ns");
    out.AddScalar("probe_" + tag + "_ns_per_tuple", probe_ns, "ns");
    std::fprintf(stderr,
                 "[bench] %-14s build %6.2f ns/key  probe %6.2f ns/probe\n",
                 tag.c_str(), build_ns, probe_ns);

    // Cache misses per probe: only when every rep measured the counter.
    uint32_t mask = probe.PerfMask();
    if (mask & (1u << static_cast<int>(PerfEvent::kCacheMisses))) {
      uint64_t best_miss = ~uint64_t{0};
      for (const PerfCounterValues& v : probe.perf) {
        uint64_t m = v.Get(PerfEvent::kCacheMisses);
        if (m < best_miss) best_miss = m;
      }
      out.AddScalar("probe_" + tag + "_llc_miss_per_tuple",
                    static_cast<double>(best_miss) /
                        static_cast<double>(sz.probes));
    }
  }

  // Miss-heavy join series: dense-key filter against the hash path.
  for (int hit_pct : {1, 10}) {
    const int64_t stride = 100 / hit_pct;
    std::vector<int64_t> build_keys, probe_keys(kJoinProbes);
    build_keys.reserve(static_cast<size_t>(kJoinDomain / stride + 1));
    for (int64_t k = 0; k < kJoinDomain; k += stride) build_keys.push_back(k);
    uint64_t s = 0x2545F4914F6CDD1Dull + static_cast<uint64_t>(hit_pct);
    for (size_t i = 0; i < kJoinProbes; i++) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      probe_keys[i] = static_cast<int64_t>((s >> 33) % kJoinDomain);
    }
    char hit[8];
    std::snprintf(hit, sizeof(hit), "hit%02d", hit_pct);
    for (JoinType type : {JoinType::kSemi, JoinType::kInner}) {
      const char* kind = type == JoinType::kSemi ? "semi" : "inner";
      double best[2] = {0, 0};
      uint64_t rows[2] = {0, 0};
      for (int sparse = 0; sparse < 2; sparse++) {
        int64_t scale = sparse ? kSparseScale : 1;
        std::unique_ptr<Table> probe = KeyTable("k", probe_keys, scale);
        std::unique_ptr<Table> build = KeyTable("bk", build_keys, scale);
        RepSet r = MeasureReps(
            reps, [&] { rows[sparse] = DrainJoin(*probe, *build, type); });
        std::string tag = std::string("join_") + kind +
                          (sparse ? "_sparse_" : "_dense_") + hit;
        out.AddReps(tag, r);
        double ns = r.Best() * 1e9 / static_cast<double>(kJoinProbes);
        out.AddScalar(tag + "_ns_per_probe", ns, "ns");
        std::fprintf(stderr, "[bench] %-24s %6.2f ns/probe  %llu rows\n",
                     tag.c_str(), ns,
                     static_cast<unsigned long long>(rows[sparse]));
        best[sparse] = r.Best();
      }
      if (rows[0] != rows[1]) {
        std::fprintf(stderr, "[bench] BUG: %s %s dense %llu rows, sparse %llu\n",
                     kind, hit, static_cast<unsigned long long>(rows[0]),
                     static_cast<unsigned long long>(rows[1]));
        return 1;
      }
      out.AddScalar(std::string(kind) + "_dense_vs_sparse_speedup_" + hit,
                    best[1] / best[0], "x");
    }
  }

  return out.Write().empty() ? 1 : 0;
}

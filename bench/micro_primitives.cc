// google-benchmark micro-benchmarks of individual vectorized primitives:
// per-tuple cost of map / select / aggregate / fetch / hash kernels on
// cache-resident vectors — the raw numbers behind Table 5's cycles/tuple.

#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "primitives/primitive.h"

namespace x100 {
namespace {

constexpr int kVec = 1024;

struct Data {
  std::vector<double> a, b, res;
  std::vector<int32_t> i32;
  std::vector<uint8_t> codes;
  std::vector<double> dict;
  std::vector<uint64_t> hashes;
  std::vector<int> sel;
  std::vector<uint32_t> groups;
  std::vector<double> acc;

  Data() : a(kVec), b(kVec), res(kVec), i32(kVec), codes(kVec), dict(64),
           hashes(kVec), sel(kVec), groups(kVec), acc(64, 0) {
    Rng rng(3);
    for (int i = 0; i < kVec; i++) {
      a[i] = rng.NextDouble();
      b[i] = rng.NextDouble() + 1;
      i32[i] = static_cast<int32_t>(rng.Uniform(0, 99));
      codes[i] = static_cast<uint8_t>(rng.Uniform(0, 63));
      groups[i] = static_cast<uint32_t>(rng.Uniform(0, 63));
    }
    for (int i = 0; i < 64; i++) dict[i] = i / 100.0;
  }
};

Data& D() {
  static Data d;
  return d;
}

void BM_MapMulF64(benchmark::State& state) {
  const MapPrimitive* p =
      PrimitiveRegistry::Get().FindMap("map_mul_f64_col_f64_col");
  const void* args[2] = {D().a.data(), D().b.data()};
  for (auto _ : state) {
    p->fn(kVec, D().res.data(), args, nullptr);
    benchmark::DoNotOptimize(D().res.data());
  }
  state.SetItemsProcessed(state.iterations() * kVec);
}
BENCHMARK(BM_MapMulF64);

void BM_SelectLtBranch(benchmark::State& state) {
  const SelectPrimitive* p =
      PrimitiveRegistry::Get().FindSelect("select_lt_i32_col_i32_val_branch");
  int32_t v = static_cast<int32_t>(state.range(0));
  const void* args[2] = {D().i32.data(), &v};
  for (auto _ : state) {
    int k = p->fn(kVec, D().sel.data(), args, nullptr);
    benchmark::DoNotOptimize(k);
  }
  state.SetItemsProcessed(state.iterations() * kVec);
}
BENCHMARK(BM_SelectLtBranch)->Arg(5)->Arg(50)->Arg(95);

void BM_SelectLtPredicated(benchmark::State& state) {
  const SelectPrimitive* p =
      PrimitiveRegistry::Get().FindSelect("select_lt_i32_col_i32_val");
  int32_t v = static_cast<int32_t>(state.range(0));
  const void* args[2] = {D().i32.data(), &v};
  for (auto _ : state) {
    int k = p->fn(kVec, D().sel.data(), args, nullptr);
    benchmark::DoNotOptimize(k);
  }
  state.SetItemsProcessed(state.iterations() * kVec);
}
BENCHMARK(BM_SelectLtPredicated)->Arg(5)->Arg(50)->Arg(95);

void BM_FetchDecode(benchmark::State& state) {
  const MapPrimitive* p =
      PrimitiveRegistry::Get().FindMap("map_fetch_f64_col_u8_col");
  const void* args[2] = {D().codes.data(), D().dict.data()};
  for (auto _ : state) {
    p->fn(kVec, D().res.data(), args, nullptr);
    benchmark::DoNotOptimize(D().res.data());
  }
  state.SetItemsProcessed(state.iterations() * kVec);
}
BENCHMARK(BM_FetchDecode);

void BM_HashI32(benchmark::State& state) {
  const MapPrimitive* p = PrimitiveRegistry::Get().FindMap("map_hash_i32_col");
  const void* args[1] = {D().i32.data()};
  for (auto _ : state) {
    p->fn(kVec, D().hashes.data(), args, nullptr);
    benchmark::DoNotOptimize(D().hashes.data());
  }
  state.SetItemsProcessed(state.iterations() * kVec);
}
BENCHMARK(BM_HashI32);

void BM_AggrSumGrouped(benchmark::State& state) {
  const AggrPrimitive* p = PrimitiveRegistry::Get().FindAggr("aggr_sum_f64_col");
  for (auto _ : state) {
    p->fn(kVec, D().acc.data(), D().groups.data(), D().a.data(), nullptr);
    benchmark::DoNotOptimize(D().acc.data());
  }
  state.SetItemsProcessed(state.iterations() * kVec);
}
BENCHMARK(BM_AggrSumGrouped);

void BM_FusedSubMul(benchmark::State& state) {
  const MapPrimitive* p =
      PrimitiveRegistry::Get().FindMap("map_fused_sub_vc_mul_pc_f64");
  double one = 1.0;
  const void* args[3] = {&one, D().a.data(), D().b.data()};
  for (auto _ : state) {
    p->fn(kVec, D().res.data(), args, nullptr);
    benchmark::DoNotOptimize(D().res.data());
  }
  state.SetItemsProcessed(state.iterations() * kVec);
}
BENCHMARK(BM_FusedSubMul);

}  // namespace
}  // namespace x100

BENCHMARK_MAIN();

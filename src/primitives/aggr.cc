#include <cstdint>
#include <type_traits>

#include "primitives/kernels.h"
#include "primitives/primitive.h"

// Aggregate-update primitives (§4.2 "aggr_* primitives"). The operator owns
// initialization and the epilogue (AVG = SUM/COUNT happens in a Project, as in
// Figure 9); these primitives are the per-vector update step. Integer sums
// accumulate into int64 so SF=100-scale sums cannot overflow.

namespace x100 {
namespace {

using namespace x100::kernels;

void AggrCount(int n, void* agg, const uint32_t* groups, const void* col,
               const int* sel) {
  (void)col;
  int64_t* __restrict__ acc = static_cast<int64_t*>(agg);
  if (groups) {
    if (sel) {
      for (int j = 0; j < n; j++) acc[groups[sel[j]]]++;
    } else {
      for (int i = 0; i < n; i++) acc[groups[i]]++;
    }
  } else {
    acc[0] += n;
  }
}

// ---- aggr_rows ---------------------------------------------------------------
//
// The row is updated in passes over the vector, one per run of up to kMaxRun
// adjacent slots of one kind (the binder sorts slots by kind, so a row
// usually has one run per kind). Within a pass the updates of a tuple's slots
// are independent, so their store-to-load chains overlap, and the first count
// slot rides along with the first pass. Every pass visits the tuples in input
// order, so each slot sees its inputs in input order. One body per kind (and
// riding count) serves every run length: a fall-through switch on the length
// unrolls the slots of a tuple (see DESIGN.md, "Aggregation").

constexpr int kMaxRun = 8;  // the switch's cases; longer runs are split

struct CountOp {};

struct RowPassArgs {
  int n;
  const int* sel;
  const uint32_t* groups;
  char* base;
  size_t stride;
  const void* const* cols;  // the run's input columns
  int c;                    // slots in the run
  uint32_t off;             // byte offset of the run's first slot
  uint32_t count_off;       // the riding count slot (kCount passes only)
};

template <typename S, typename A, typename Op, bool kCount>
void RowPass(const RowPassArgs& a) {
  // Locals: the accumulator stores may alias anything reached through `a`.
  const int n = a.n;
  const int c = a.c;
  const int* const sel = a.sel;
  const uint32_t* const groups = a.groups;
  const A* in[kMaxRun];
  for (int x = 0; x < c; x++) in[x] = static_cast<const A*>(a.cols[x]);
  const size_t stride = a.stride;
  char* const run = a.base + a.off;
  char* const count = a.base + a.count_off;
  auto update = [&](int i) __attribute__((always_inline)) {
    size_t row = groups[i] * stride;
    S* acc = reinterpret_cast<S*>(run + row);
    auto slot = [&](int x) __attribute__((always_inline)) {
      if constexpr (std::is_same_v<Op, CountOp>) {
        ++acc[x];
      } else {
        Op::Update(&acc[x], in[x][i]);
      }
    };
    switch (c) {
      case 8: slot(7); [[fallthrough]];
      case 7: slot(6); [[fallthrough]];
      case 6: slot(5); [[fallthrough]];
      case 5: slot(4); [[fallthrough]];
      case 4: slot(3); [[fallthrough]];
      case 3: slot(2); [[fallthrough]];
      case 2: slot(1); [[fallthrough]];
      default: slot(0);
    }
    if constexpr (kCount) ++*reinterpret_cast<int64_t*>(count + row);
  };
  if (sel) {
    for (int j = 0; j < n; j++) update(sel[j]);
  } else {
    for (int i = 0; i < n; i++) update(i);
  }
}

using RowPassFn = void (*)(const RowPassArgs&);

template <typename S, typename A, typename Op>
RowPassFn PickRowPass(bool count) {
  return count ? &RowPass<S, A, Op, true> : &RowPass<S, A, Op, false>;
}

RowPassFn FindRowPass(AggrSlotKind kind, bool count) {
  switch (kind) {
    case AggrSlotKind::kCount: return PickRowPass<int64_t, int64_t, CountOp>(count);
    case AggrSlotKind::kSumI32: return PickRowPass<int64_t, int32_t, SumOp>(count);
    case AggrSlotKind::kSumI64: return PickRowPass<int64_t, int64_t, SumOp>(count);
    case AggrSlotKind::kSumF64: return PickRowPass<double, double, SumOp>(count);
    case AggrSlotKind::kMinI32: return PickRowPass<int32_t, int32_t, MinOp>(count);
    case AggrSlotKind::kMinI64: return PickRowPass<int64_t, int64_t, MinOp>(count);
    case AggrSlotKind::kMinF64: return PickRowPass<double, double, MinOp>(count);
    case AggrSlotKind::kMaxI32: return PickRowPass<int32_t, int32_t, MaxOp>(count);
    case AggrSlotKind::kMaxI64: return PickRowPass<int64_t, int64_t, MaxOp>(count);
    case AggrSlotKind::kMaxF64: return PickRowPass<double, double, MaxOp>(count);
  }
  return nullptr;
}

uint32_t SlotWidth(AggrSlotKind kind) {
  return kind == AggrSlotKind::kMinI32 || kind == AggrSlotKind::kMaxI32 ? 4 : 8;
}

// aggr_rows: the NSM multi-aggregate update (see AggrRowLayout).
void AggrRows(int n, void* agg, const uint32_t* groups, const void* col,
              const int* sel) {
  const AggrRowLayout& l = *static_cast<const AggrRowLayout*>(col);
  const AggrRowSlot* s = l.slots;
  RowPassArgs a{};
  a.n = n;
  a.sel = sel;
  a.groups = groups;
  a.base = static_cast<char*>(agg);
  a.stride = l.stride;
  int rider = -1;  // the count slot that rides along with the first pass
  for (int j = 0; j < l.k && rider < 0; j++) {
    if (s[j].kind == AggrSlotKind::kCount) rider = j;
  }
  if (rider >= 0 && l.k == 1) rider = -1;
  bool first = true;
  for (int j = 0; j < l.k;) {
    if (j == rider) {
      j++;
      continue;
    }
    // Extend the run over adjacent slots of the same kind.
    uint32_t w = SlotWidth(s[j].kind);
    int c = 1;
    while (c < kMaxRun && j + c < l.k && j + c != rider &&
           s[j + c].kind == s[j].kind &&
           s[j + c].offset == s[j].offset + static_cast<uint32_t>(c) * w) {
      c++;
    }
    a.cols = l.cols + j;
    a.c = c;
    a.off = s[j].offset;
    bool count = rider >= 0 && first;
    if (count) a.count_off = s[rider].offset;
    FindRowPass(s[j].kind, count)(a);
    first = false;
    j += c;
  }
}

}  // namespace

void RegisterAggrPrimitives(PrimitiveRegistry* r) {
  r->RegisterAggr("aggr_sum_f64_col", TypeId::kF64, &AggrUpdate<double, double, SumOp>);
  r->RegisterAggr("aggr_sum_i32_col", TypeId::kI64, &AggrUpdate<int64_t, int32_t, SumOp>);
  r->RegisterAggr("aggr_sum_i64_col", TypeId::kI64, &AggrUpdate<int64_t, int64_t, SumOp>);

  r->RegisterAggr("aggr_min_f64_col", TypeId::kF64, &AggrUpdate<double, double, MinOp>);
  r->RegisterAggr("aggr_min_i32_col", TypeId::kI32, &AggrUpdate<int32_t, int32_t, MinOp>);
  r->RegisterAggr("aggr_min_i64_col", TypeId::kI64, &AggrUpdate<int64_t, int64_t, MinOp>);

  r->RegisterAggr("aggr_max_f64_col", TypeId::kF64, &AggrUpdate<double, double, MaxOp>);
  r->RegisterAggr("aggr_max_i32_col", TypeId::kI32, &AggrUpdate<int32_t, int32_t, MaxOp>);
  r->RegisterAggr("aggr_max_i64_col", TypeId::kI64, &AggrUpdate<int64_t, int64_t, MaxOp>);

  r->RegisterAggr("aggr_count", TypeId::kI64, &AggrCount);
  // The state of aggr_rows is a row of mixed slots; its state_type is unused.
  r->RegisterAggr("aggr_rows", TypeId::kI64, &AggrRows);
}

}  // namespace x100

#ifndef X100_PRIMITIVES_KERNELS_H_
#define X100_PRIMITIVES_KERNELS_H_

// Internal kernel templates behind the primitive generator. Each kernel is a
// tight loop over __restrict__ pointers so the compiler can loop-pipeline —
// the whole point of vectorized execution (§2, §4.2). Not part of the public
// API; include only from primitives/*.cc.

#include <cstdint>

namespace x100::kernels {

// ---- map kernels -----------------------------------------------------------

template <typename R, typename A, typename B, typename Op>
void MapColCol(int n, void* res, const void* const* args, const int* sel) {
  R* __restrict__ r = static_cast<R*>(res);
  const A* __restrict__ a = static_cast<const A*>(args[0]);
  const B* __restrict__ b = static_cast<const B*>(args[1]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = Op::Apply(a[i], b[i]);
    }
  } else {
    for (int i = 0; i < n; i++) r[i] = Op::Apply(a[i], b[i]);
  }
}

template <typename R, typename A, typename B, typename Op>
void MapColVal(int n, void* res, const void* const* args, const int* sel) {
  R* __restrict__ r = static_cast<R*>(res);
  const A* __restrict__ a = static_cast<const A*>(args[0]);
  const B v = *static_cast<const B*>(args[1]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = Op::Apply(a[i], v);
    }
  } else {
    for (int i = 0; i < n; i++) r[i] = Op::Apply(a[i], v);
  }
}

template <typename R, typename A, typename B, typename Op>
void MapValCol(int n, void* res, const void* const* args, const int* sel) {
  R* __restrict__ r = static_cast<R*>(res);
  const A v = *static_cast<const A*>(args[0]);
  const B* __restrict__ b = static_cast<const B*>(args[1]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = Op::Apply(v, b[i]);
    }
  } else {
    for (int i = 0; i < n; i++) r[i] = Op::Apply(v, b[i]);
  }
}

template <typename R, typename A, typename Op>
void MapUnaryCol(int n, void* res, const void* const* args, const int* sel) {
  R* __restrict__ r = static_cast<R*>(res);
  const A* __restrict__ a = static_cast<const A*>(args[0]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = Op::Apply(a[i]);
    }
  } else {
    for (int i = 0; i < n; i++) r[i] = Op::Apply(a[i]);
  }
}

// ---- select kernels --------------------------------------------------------

// Branching variant ("branch" in Figure 2): data-dependent IF. Registered only
// under the `_branch` suffix, for Figure 2 and the kernel tests.
template <typename A, typename B, typename Op>
int SelectColValBranch(int n, int* res_sel, const void* const* args, const int* sel) {
  const A* __restrict__ a = static_cast<const A*>(args[0]);
  const B v = *static_cast<const B*>(args[1]);
  int k = 0;
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      if (Op::Apply(a[i], v)) res_sel[k++] = i;
    }
  } else {
    for (int i = 0; i < n; i++) {
      if (Op::Apply(a[i], v)) res_sel[k++] = i;
    }
  }
  return k;
}

// Predicated variant ("predicated" in Figure 2 / [17]): the comparison result
// advances the output cursor, no branch in the loop body. The paper-style
// names bind it, so it is the select the engine runs.
template <typename A, typename B, typename Op>
int SelectColValPred(int n, int* res_sel, const void* const* args, const int* sel) {
  const A* __restrict__ a = static_cast<const A*>(args[0]);
  const B v = *static_cast<const B*>(args[1]);
  int k = 0;
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      res_sel[k] = i;
      k += Op::Apply(a[i], v) ? 1 : 0;
    }
  } else {
    for (int i = 0; i < n; i++) {
      res_sel[k] = i;
      k += Op::Apply(a[i], v) ? 1 : 0;
    }
  }
  return k;
}

template <typename A, typename B, typename Op>
int SelectColColBranch(int n, int* res_sel, const void* const* args, const int* sel) {
  const A* __restrict__ a = static_cast<const A*>(args[0]);
  const B* __restrict__ b = static_cast<const B*>(args[1]);
  int k = 0;
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      if (Op::Apply(a[i], b[i])) res_sel[k++] = i;
    }
  } else {
    for (int i = 0; i < n; i++) {
      if (Op::Apply(a[i], b[i])) res_sel[k++] = i;
    }
  }
  return k;
}

template <typename A, typename B, typename Op>
int SelectColColPred(int n, int* res_sel, const void* const* args, const int* sel) {
  const A* __restrict__ a = static_cast<const A*>(args[0]);
  const B* __restrict__ b = static_cast<const B*>(args[1]);
  int k = 0;
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      res_sel[k] = i;
      k += Op::Apply(a[i], b[i]) ? 1 : 0;
    }
  } else {
    for (int i = 0; i < n; i++) {
      res_sel[k] = i;
      k += Op::Apply(a[i], b[i]) ? 1 : 0;
    }
  }
  return k;
}

// ---- aggregate-update kernels -----------------------------------------------

template <typename S, typename A, typename Op>
void AggrUpdate(int n, void* agg, const uint32_t* groups, const void* col,
                const int* sel) {
  S* __restrict__ acc = static_cast<S*>(agg);
  const A* __restrict__ a = static_cast<const A*>(col);
  if (groups) {
    if (sel) {
      for (int j = 0; j < n; j++) {
        int i = sel[j];
        Op::Update(&acc[groups[i]], a[i]);
      }
    } else {
      for (int i = 0; i < n; i++) Op::Update(&acc[groups[i]], a[i]);
    }
  } else {
    // Scalar aggregate: single accumulator, loop-pipelines fully.
    S local = acc[0];
    if (sel) {
      for (int j = 0; j < n; j++) Op::Update(&local, a[sel[j]]);
    } else {
      for (int i = 0; i < n; i++) Op::Update(&local, a[i]);
    }
    acc[0] = local;
  }
}

// ---- operator functors ------------------------------------------------------

struct AddOp { template <typename T> static T Apply(T a, T b) { return a + b; } };
struct SubOp { template <typename T> static T Apply(T a, T b) { return a - b; } };
struct MulOp { template <typename T> static T Apply(T a, T b) { return a * b; } };
struct DivOp { template <typename T> static T Apply(T a, T b) { return a / b; } };

struct LtOp { template <typename T> static bool Apply(T a, T b) { return a < b; } };
struct LeOp { template <typename T> static bool Apply(T a, T b) { return a <= b; } };
struct GtOp { template <typename T> static bool Apply(T a, T b) { return a > b; } };
struct GeOp { template <typename T> static bool Apply(T a, T b) { return a >= b; } };
struct EqOp { template <typename T> static bool Apply(T a, T b) { return a == b; } };
struct NeOp { template <typename T> static bool Apply(T a, T b) { return a != b; } };

struct SumOp {
  template <typename S, typename A>
  static void Update(S* acc, A v) { *acc += static_cast<S>(v); }
};
// Min/Max store unconditionally so the compare becomes a conditional move:
// per-group values arrive in data order, and a branch on them mispredicts.
// The result equals a conditional store's: a NaN input compares false and
// leaves the accumulator unchanged either way.
struct MinOp {
  template <typename S, typename A>
  static void Update(S* acc, A v) {
    S x = static_cast<S>(v);
    S cur = *acc;
    *acc = x < cur ? x : cur;
  }
};
struct MaxOp {
  template <typename S, typename A>
  static void Update(S* acc, A v) {
    S x = static_cast<S>(v);
    S cur = *acc;
    *acc = x > cur ? x : cur;
  }
};

}  // namespace x100::kernels

#endif  // X100_PRIMITIVES_KERNELS_H_

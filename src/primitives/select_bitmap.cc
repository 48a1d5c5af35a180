#include <cstdint>

#include "primitives/primitive.h"

// Domain-bitmap select primitives: the dense-key join filter of HashJoin
// (exec/join_hash.cc). select_inbitmap_<t>_col keeps the positions whose key
// has its bit set in a DenseDomain, so missing probes leave the selection
// vector before any hashing. The loop is predicated (Figure 2): TPC-H probe
// hit rates run from 0.1% to 97%, and a branch mispredicts in between.

namespace x100 {
namespace {

// args = {key column, const DenseDomain*}. Keys outside [lo, lo + span) are
// clamped onto bit `span`, which DenseDomain guarantees is a zero padding
// bit, so the loop has no branch and never reads past the bitmap.
template <typename T>
int SelectInBitmap(int n, int* res_sel, const void* const* args,
                   const int* sel) {
  const T* __restrict__ a = static_cast<const T*>(args[0]);
  const DenseDomain& d = *static_cast<const DenseDomain*>(args[1]);
  const uint64_t* __restrict__ bits = d.bits;
  const uint64_t lo = static_cast<uint64_t>(d.lo);
  const uint64_t span = d.span;
  auto member = [&](int i) -> int {
    uint64_t off = static_cast<uint64_t>(static_cast<int64_t>(a[i])) - lo;
    off = off < span ? off : span;
    return static_cast<int>((bits[off >> 6] >> (off & 63)) & 1);
  };
  int k = 0;
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      res_sel[k] = i;
      k += member(i);
    }
  } else {
    for (int i = 0; i < n; i++) {
      res_sel[k] = i;
      k += member(i);
    }
  }
  return k;
}

}  // namespace

void RegisterSelectBitmap(PrimitiveRegistry* r) {
  r->RegisterSelect("select_inbitmap_i32_col", 2, &SelectInBitmap<int32_t>);
  r->RegisterSelect("select_inbitmap_i64_col", 2, &SelectInBitmap<int64_t>);
}

}  // namespace x100

#include <cstdint>
#include <string>
#include <type_traits>

#include "primitives/primitive.h"

namespace x100 {
namespace {

// Mixed-radix group ids (direct aggregation, §4.1.2; the map_directgrp of
// Table 5). map_directgrp_<t>_col starts an id from the first key,
// map_directgrp_<t>_col_<t>_col from the first two keys of one type, and
// map_redirectgrp_<t>_col adds a further key's digit to an id; args = {key
// column, const DirectGrpDigit*}, {key, key, DirectGrpDigit[2]} and {key
// column, id column, digit}. A key outside its span, or an id already out,
// yields `slots` (no branch: the selects compile to conditional moves). The
// first key's stride is 1.
//
// One-byte keys compute in 16 bits, other keys of at most four bytes in 32:
// spans stay inside the key type's range, so the wrapped difference
// k - base is below span exactly when k is inside it. (Narrow lanes let the
// loops vectorize wider.)
template <typename T>
struct Digit {
  using U = std::conditional_t<
      sizeof(T) == 1, uint16_t,
      std::conditional_t<sizeof(T) <= 4, uint32_t, uint64_t>>;
  U base, span;
  uint32_t stride, slots;

  explicit Digit(const DirectGrpDigit& d)
      : base(static_cast<U>(d.base)),
        span(static_cast<U>(d.span)),
        stride(d.stride),
        slots(d.slots) {}
  U Off(T k) const { return static_cast<U>(static_cast<U>(k) - base); }
};

// Writes id(i) to r[i] for the live positions. A selection that keeps at
// least half of its range is computed densely, up to its last position: the
// loop then vectorizes. The extra ids come from the filtered-out tuples' key
// slots by arithmetic alone, and the operator never reads them; every step
// of an id chain makes the same choice, so a step reads only ids that the
// one before it wrote.
template <typename IdFn>
void FillIds(int n, const int* sel, uint32_t* __restrict__ r, IdFn id) {
  if (sel && n > 0 && sel[n - 1] < 2 * n) {
    n = sel[n - 1] + 1;
    sel = nullptr;
  }
  if (sel) {
    for (int j = 0; j < n; j++) r[sel[j]] = id(sel[j]);
  } else {
    for (int i = 0; i < n; i++) r[i] = id(i);
  }
}

template <typename T>
void MapDirectGrp(int n, void* res, const void* const* args, const int* sel) {
  uint32_t* __restrict__ r = static_cast<uint32_t*>(res);
  const T* __restrict__ a = static_cast<const T*>(args[0]);
  const Digit<T> d(*static_cast<const DirectGrpDigit*>(args[1]));
  auto id = [&](int i) {
    auto off = d.Off(a[i]);
    return off < d.span ? static_cast<uint32_t>(off) : d.slots;
  };
  FillIds(n, sel, r, id);
}

template <typename T>
void MapDirectGrp2(int n, void* res, const void* const* args, const int* sel) {
  uint32_t* __restrict__ r = static_cast<uint32_t*>(res);
  const T* __restrict__ a = static_cast<const T*>(args[0]);
  const T* __restrict__ b = static_cast<const T*>(args[1]);
  const DirectGrpDigit* digits = static_cast<const DirectGrpDigit*>(args[2]);
  const Digit<T> da(digits[0]), db(digits[1]);
  // In-span ids are below slots <= 2^31, and for two one-byte keys below
  // 2^16, so they are computed in the digits' lane width (at least 16 bits).
  using W = std::conditional_t<sizeof(T) == 1, uint16_t, uint32_t>;
  auto id = [&](int i) {
    auto oa = da.Off(a[i]);
    auto ob = db.Off(b[i]);
    uint32_t v = static_cast<W>(static_cast<W>(oa) +
                                static_cast<W>(ob) * static_cast<W>(db.stride));
    return (oa < da.span) & (ob < db.span) ? v : da.slots;
  };
  FillIds(n, sel, r, id);
}

template <typename T>
void MapRedirectGrp(int n, void* res, const void* const* args, const int* sel) {
  uint32_t* __restrict__ r = static_cast<uint32_t*>(res);
  const T* __restrict__ a = static_cast<const T*>(args[0]);
  const uint32_t* __restrict__ prev = static_cast<const uint32_t*>(args[1]);
  const Digit<T> d(*static_cast<const DirectGrpDigit*>(args[2]));
  auto id = [&](int i) {
    auto off = d.Off(a[i]);
    uint32_t v = prev[i] + static_cast<uint32_t>(off) * d.stride;
    return (off < d.span) & (prev[i] < d.slots) ? v : d.slots;
  };
  FillIds(n, sel, r, id);
}

template <typename T>
void RegisterDirectGrpType(PrimitiveRegistry* r, const std::string& t) {
  r->RegisterMap("map_directgrp_" + t + "_col", TypeId::kI32, 2,
                 &MapDirectGrp<T>);
  r->RegisterMap("map_directgrp_" + t + "_col_" + t + "_col", TypeId::kI32, 3,
                 &MapDirectGrp2<T>);
  r->RegisterMap("map_redirectgrp_" + t + "_col", TypeId::kI32, 3,
                 &MapRedirectGrp<T>);
}

}  // namespace

void RegisterDirectGrp(PrimitiveRegistry* r) {
  RegisterDirectGrpType<int8_t>(r, "i8");
  RegisterDirectGrpType<uint8_t>(r, "u8");
  RegisterDirectGrpType<int16_t>(r, "i16");
  RegisterDirectGrpType<uint16_t>(r, "u16");
  RegisterDirectGrpType<int32_t>(r, "i32");
  RegisterDirectGrpType<int64_t>(r, "i64");
}

}  // namespace x100

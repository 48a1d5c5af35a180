#include <cstdint>
#include <type_traits>

#include "common/hash.h"
#include "primitives/kernels.h"
#include "primitives/primitive.h"

// Fetch (positional gather), hash and direct-grouping primitives.
//
// map_fetch_* is the kernel behind Fetch1Join and enumeration-type decoding
// (§4.3): res[i] = base[idx[i]], where `base` is an entire stored column and
// `idx` a vector of #rowIds / enum codes. map_hash_* / map_rehash_* feed hash
// aggregation and hash join; map_directgrp_* computes array indices for
// direct aggregation from small bit-domains (§4.1.2, the Table 5 trace).

namespace x100 {
namespace {

// res[i] = base[idx[i]]; args = {idx column, base array (whole column)}.
template <typename T, typename Idx>
void MapFetch(int n, void* res, const void* const* args, const int* sel) {
  T* __restrict__ r = static_cast<T*>(res);
  const Idx* __restrict__ idx = static_cast<const Idx*>(args[0]);
  const T* __restrict__ base = static_cast<const T*>(args[1]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = base[idx[i]];
    }
  } else {
    for (int i = 0; i < n; i++) r[i] = base[idx[i]];
  }
}

template <typename T>
void MapHash(int n, void* res, const void* const* args, const int* sel) {
  uint64_t* __restrict__ r = static_cast<uint64_t*>(res);
  const T* __restrict__ a = static_cast<const T*>(args[0]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = HashU64(static_cast<uint64_t>(a[i]));
    }
  } else {
    for (int i = 0; i < n; i++) r[i] = HashU64(static_cast<uint64_t>(a[i]));
  }
}

void MapHashF64(int n, void* res, const void* const* args, const int* sel) {
  uint64_t* __restrict__ r = static_cast<uint64_t*>(res);
  const double* __restrict__ a = static_cast<const double*>(args[0]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = HashF64(a[i]);
    }
  } else {
    for (int i = 0; i < n; i++) r[i] = HashF64(a[i]);
  }
}

void MapHashStr(int n, void* res, const void* const* args, const int* sel) {
  uint64_t* __restrict__ r = static_cast<uint64_t*>(res);
  const char* const* __restrict__ a = static_cast<const char* const*>(args[0]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = HashStr(a[i]);
    }
  } else {
    for (int i = 0; i < n; i++) r[i] = HashStr(a[i]);
  }
}

// res[i] = combine(prev[i], hash(a[i])); args = {value column, prev hash column}.
template <typename T>
void MapRehash(int n, void* res, const void* const* args, const int* sel) {
  uint64_t* __restrict__ r = static_cast<uint64_t*>(res);
  const T* __restrict__ a = static_cast<const T*>(args[0]);
  const uint64_t* __restrict__ prev = static_cast<const uint64_t*>(args[1]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = HashCombine(prev[i], HashU64(static_cast<uint64_t>(a[i])));
    }
  } else {
    for (int i = 0; i < n; i++) {
      r[i] = HashCombine(prev[i], HashU64(static_cast<uint64_t>(a[i])));
    }
  }
}

void MapRehashF64(int n, void* res, const void* const* args, const int* sel) {
  uint64_t* __restrict__ r = static_cast<uint64_t*>(res);
  const double* __restrict__ a = static_cast<const double*>(args[0]);
  const uint64_t* __restrict__ prev = static_cast<const uint64_t*>(args[1]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = HashCombine(prev[i], HashF64(a[i]));
    }
  } else {
    for (int i = 0; i < n; i++) r[i] = HashCombine(prev[i], HashF64(a[i]));
  }
}

void MapRehashStr(int n, void* res, const void* const* args, const int* sel) {
  uint64_t* __restrict__ r = static_cast<uint64_t*>(res);
  const char* const* __restrict__ a = static_cast<const char* const*>(args[0]);
  const uint64_t* __restrict__ prev = static_cast<const uint64_t*>(args[1]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = HashCombine(prev[i], HashStr(a[i]));
    }
  } else {
    for (int i = 0; i < n; i++) r[i] = HashCombine(prev[i], HashStr(a[i]));
  }
}

// Group index from two single-byte columns: g = hi<<8 | lo (the hard-coded
// Q1 trick of §3.3, and the map_directgrp of Table 5).
template <typename A, typename B>
void MapDirectGrp2(int n, void* res, const void* const* args, const int* sel) {
  uint32_t* __restrict__ r = static_cast<uint32_t*>(res);
  const A* __restrict__ a = static_cast<const A*>(args[0]);
  const B* __restrict__ b = static_cast<const B*>(args[1]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = (static_cast<uint32_t>(static_cast<uint8_t>(a[i])) << 8) |
             static_cast<uint32_t>(static_cast<uint8_t>(b[i]));
    }
  } else {
    for (int i = 0; i < n; i++) {
      r[i] = (static_cast<uint32_t>(static_cast<uint8_t>(a[i])) << 8) |
             static_cast<uint32_t>(static_cast<uint8_t>(b[i]));
    }
  }
}

// Group index from one column of at most two bytes: its unsigned bit pattern.
template <typename A>
void MapDirectGrp1(int n, void* res, const void* const* args, const int* sel) {
  using U = std::make_unsigned_t<A>;
  uint32_t* __restrict__ r = static_cast<uint32_t*>(res);
  const A* __restrict__ a = static_cast<const A*>(args[0]);
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      r[i] = static_cast<uint32_t>(static_cast<U>(a[i]));
    }
  } else {
    for (int i = 0; i < n; i++) {
      r[i] = static_cast<uint32_t>(static_cast<U>(a[i]));
    }
  }
}

template <typename T, typename Idx>
void RegisterFetch(PrimitiveRegistry* r, const char* t, const char* idx) {
  r->RegisterMap(std::string("map_fetch_") + t + "_col_" + idx + "_col",
                 TypeTraits<T>::kId, 2, &MapFetch<T, Idx>);
}

template <typename Idx>
void RegisterFetchAll(PrimitiveRegistry* r, const char* idx) {
  RegisterFetch<int8_t, Idx>(r, "i8", idx);
  RegisterFetch<uint8_t, Idx>(r, "u8", idx);
  RegisterFetch<int16_t, Idx>(r, "i16", idx);
  RegisterFetch<uint16_t, Idx>(r, "u16", idx);
  RegisterFetch<int32_t, Idx>(r, "i32", idx);
  RegisterFetch<int64_t, Idx>(r, "i64", idx);
  RegisterFetch<double, Idx>(r, "f64", idx);
  RegisterFetch<const char*, Idx>(r, "str", idx);
}

}  // namespace

void RegisterFetchHash(PrimitiveRegistry* r) {
  RegisterFetchAll<uint8_t>(r, "u8");
  RegisterFetchAll<uint16_t>(r, "u16");
  RegisterFetchAll<int32_t>(r, "i32");
  RegisterFetchAll<int64_t>(r, "i64");

  r->RegisterMap("map_hash_i8_col", TypeId::kI64, 1, &MapHash<int8_t>);
  r->RegisterMap("map_hash_u8_col", TypeId::kI64, 1, &MapHash<uint8_t>);
  r->RegisterMap("map_hash_i16_col", TypeId::kI64, 1, &MapHash<int16_t>);
  r->RegisterMap("map_hash_u16_col", TypeId::kI64, 1, &MapHash<uint16_t>);
  r->RegisterMap("map_hash_i32_col", TypeId::kI64, 1, &MapHash<int32_t>);
  r->RegisterMap("map_hash_i64_col", TypeId::kI64, 1, &MapHash<int64_t>);
  r->RegisterMap("map_hash_f64_col", TypeId::kI64, 1, &MapHashF64);
  r->RegisterMap("map_hash_str_col", TypeId::kI64, 1, &MapHashStr);

  r->RegisterMap("map_rehash_i8_col", TypeId::kI64, 2, &MapRehash<int8_t>);
  r->RegisterMap("map_rehash_u8_col", TypeId::kI64, 2, &MapRehash<uint8_t>);
  r->RegisterMap("map_rehash_i16_col", TypeId::kI64, 2, &MapRehash<int16_t>);
  r->RegisterMap("map_rehash_u16_col", TypeId::kI64, 2, &MapRehash<uint16_t>);
  r->RegisterMap("map_rehash_i32_col", TypeId::kI64, 2, &MapRehash<int32_t>);
  r->RegisterMap("map_rehash_i64_col", TypeId::kI64, 2, &MapRehash<int64_t>);
  r->RegisterMap("map_rehash_f64_col", TypeId::kI64, 2, &MapRehashF64);
  r->RegisterMap("map_rehash_str_col", TypeId::kI64, 2, &MapRehashStr);

  r->RegisterMap("map_directgrp_i8_col_i8_col", TypeId::kI32, 2,
                 &MapDirectGrp2<int8_t, int8_t>);
  r->RegisterMap("map_directgrp_u8_col_u8_col", TypeId::kI32, 2,
                 &MapDirectGrp2<uint8_t, uint8_t>);
  r->RegisterMap("map_directgrp_i8_col", TypeId::kI32, 1, &MapDirectGrp1<int8_t>);
  r->RegisterMap("map_directgrp_u8_col", TypeId::kI32, 1, &MapDirectGrp1<uint8_t>);
  r->RegisterMap("map_directgrp_u16_col", TypeId::kI32, 1, &MapDirectGrp1<uint16_t>);
}

}  // namespace x100

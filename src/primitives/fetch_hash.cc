#include <cstdint>

#include "common/hash.h"
#include "primitives/kernels.h"
#include "primitives/primitive.h"

// Fetch (positional gather) and hash primitives.
//
// map_fetch_* is the kernel behind Fetch1Join and enumeration-type decoding
// (§4.3): res[i] = base[idx[i]], where `base` is an entire stored column and
// `idx` a vector of #rowIds / enum codes. map_hash_* / map_rehash_* feed hash
// aggregation and hash join.

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

}

}  // namespace x100

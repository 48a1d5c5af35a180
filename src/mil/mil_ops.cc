#include "mil/mil_ops.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "common/date.h"
#include "common/hash.h"
#include "common/profiling.h"
#include "primitives/string_prims.h"
#include "storage/table.h"

namespace x100 {

namespace {

/// RAII statement timer + bandwidth logger.
class StmtScope {
 public:
  StmtScope(MilSession* s, const char* label) : s_(s), label_(label) {
    if (s_ && s_->trace) t0_ = NowNanos();
  }
  void Finish(size_t bytes, int64_t result_size) {
    if (s_ && s_->trace) {
      double ms = static_cast<double>(NowNanos() - t0_) / 1e6;
      s_->Log(label_, ms, bytes, result_size);
    }
    finished_ = true;
  }
  ~StmtScope() {
    if (!finished_ && s_ && s_->trace) Finish(0, 0);
  }

 private:
  MilSession* s_;
  const char* label_;
  uint64_t t0_ = 0;
  bool finished_ = false;
};

template <typename Fn>
void DispatchType(TypeId t, Fn&& fn) {
  switch (t) {
    case TypeId::kI8:   fn(int8_t{}); break;
    case TypeId::kU8:   fn(uint8_t{}); break;
    case TypeId::kI16:  fn(int16_t{}); break;
    case TypeId::kU16:  fn(uint16_t{}); break;
    case TypeId::kI32:
    case TypeId::kDate: fn(int32_t{}); break;
    case TypeId::kI64:  fn(int64_t{}); break;
    case TypeId::kF64:  fn(double{}); break;
    default:
      X100_CHECK(false);
  }
}

template <typename T, typename V>
bool CmpApply(MilCmp cmp, T a, V b) {
  switch (cmp) {
    case MilCmp::kLt: return a < b;
    case MilCmp::kLe: return a <= b;
    case MilCmp::kGt: return a > b;
    case MilCmp::kGe: return a >= b;
    case MilCmp::kEq: return a == b;
    case MilCmp::kNe: return a != b;
  }
  return false;
}

/// 64-bit key for hashing/grouping a BAT entry (f64 via bit pattern).
int64_t KeyAt(const Bat& b, int64_t i) {
  int64_t k = 0;
  DispatchType(b.type(), [&](auto tag) {
    using T = decltype(tag);
    T v = b.Data<T>()[i];
    if constexpr (std::is_same_v<T, double>) {
      if (v == 0.0) v = 0.0;
      std::memcpy(&k, &v, sizeof(k));
    } else {
      k = static_cast<int64_t>(v);
    }
  });
  return k;
}

}  // namespace

Value Bat::ValueAt(int64_t i) const {
  switch (type_) {
    case TypeId::kStr:  return Value::Str(Data<const char*>()[i]);
    case TypeId::kF64:  return Value::F64(Data<double>()[i]);
    case TypeId::kDate: return Value::Date(Data<int32_t>()[i]);
    default: {
      int64_t v = 0;
      DispatchType(type_, [&](auto tag) {
        using T = decltype(tag);
        v = static_cast<int64_t>(Data<T>()[i]);
      });
      return Value::I64(v);
    }
  }
}

std::string MilSession::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%9s %9s %11s %9s  %s\n", "ms", "BW(MB/s)",
                "MB", "result", "MIL statement");
  out += line;
  for (const MilStmt& s : stmts) {
    std::snprintf(line, sizeof(line), "%9.2f %9.0f %11.1f %9lld  %s\n", s.ms,
                  s.Bandwidth(), s.megabytes,
                  static_cast<long long>(s.result_size), s.text.c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line), "%9.2f %31s TOTAL\n", TotalMs(), "");
  out += line;
  return out;
}

Bat BatFromColumn(MilSession* s, const Table& table, const std::string& col,
                  const char* label) {
  StmtScope scope(s, label);
  int ci = table.ColumnIndex(col);
  const Column& c = table.column(ci);
  Bat out(c.type() == TypeId::kDate ? TypeId::kDate : c.type());

  bool plain = !c.is_enum() && table.num_deleted() == 0 && table.delta_rows() == 0;
  if (plain) {
    out.ResizeUninitialized(c.size());
    // An empty Bat's data is null, and memcpy to null is undefined even
    // for zero bytes.
    if (c.bytes() > 0) std::memcpy(out.mutable_raw(), c.raw(), c.bytes());
  } else {
    for (int64_t r = 0; r < table.total_rows(); r++) {
      if (table.IsDeleted(r)) continue;
      Value v = table.GetValue(r, ci);
      switch (out.type()) {
        case TypeId::kStr: {
          // Enum dictionaries / column heaps own the bytes; pointers are
          // stable, so the BAT stores the pointer.
          const Column& src = r < table.fragment_rows()
                                  ? table.column(ci)
                                  : table.delta_column(ci);
          int64_t rr = r < table.fragment_rows() ? r : r - table.fragment_rows();
          out.PushBack(src.GetStr(rr));
          break;
        }
        case TypeId::kF64:
          out.PushBack(v.AsF64());
          break;
        default:
          DispatchType(out.type(), [&](auto tag) {
            using T = decltype(tag);
            out.PushBack(static_cast<T>(v.AsI64()));
          });
      }
    }
  }
  scope.Finish(out.bytes(), out.size());
  return out;
}

Bat MilMark(int64_t n) {
  Bat out(TypeId::kI64);
  out.ResizeUninitialized(n);
  int64_t* d = out.MutableData<int64_t>();
  for (int64_t i = 0; i < n; i++) d[i] = i;
  return out;
}

Bat MilUSelect(MilSession* s, const Bat& b, MilCmp cmp, const Value& v,
               const char* label) {
  StmtScope scope(s, label);
  Bat out(TypeId::kI64);
  if (b.type() == TypeId::kStr) {
    const char* const* d = b.Data<const char*>();
    const std::string& sv = v.AsStr();
    for (int64_t i = 0; i < b.size(); i++) {
      int c = std::strcmp(d[i], sv.c_str());
      if (CmpApply(cmp, c, 0)) out.PushBack(i);
    }
  } else {
    DispatchType(b.type(), [&](auto tag) {
      using T = decltype(tag);
      const T* d = b.Data<T>();
      T val;
      if constexpr (std::is_same_v<T, double>) {
        val = static_cast<T>(v.AsF64());
      } else {
        val = static_cast<T>(v.AsI64());
      }
      for (int64_t i = 0; i < b.size(); i++) {
        if (CmpApply(cmp, d[i], val)) out.PushBack(i);
      }
    });
  }
  scope.Finish(b.bytes() + out.bytes(), out.size());
  return out;
}

Bat MilUSelectRange(MilSession* s, const Bat& b, const Value& lo, const Value& hi,
                    const char* label) {
  StmtScope scope(s, label);
  Bat out(TypeId::kI64);
  DispatchType(b.type(), [&](auto tag) {
    using T = decltype(tag);
    const T* d = b.Data<T>();
    T vlo, vhi;
    if constexpr (std::is_same_v<T, double>) {
      vlo = static_cast<T>(lo.AsF64());
      vhi = static_cast<T>(hi.AsF64());
    } else {
      vlo = static_cast<T>(lo.AsI64());
      vhi = static_cast<T>(hi.AsI64());
    }
    for (int64_t i = 0; i < b.size(); i++) {
      if (d[i] >= vlo && d[i] <= vhi) out.PushBack(i);
    }
  });
  scope.Finish(b.bytes() + out.bytes(), out.size());
  return out;
}

Bat MilUSelectLike(MilSession* s, const Bat& b, const std::string& pat,
                   bool negate, const char* label) {
  StmtScope scope(s, label);
  X100_CHECK(b.type() == TypeId::kStr);
  Bat out(TypeId::kI64);
  const char* const* d = b.Data<const char*>();
  for (int64_t i = 0; i < b.size(); i++) {
    if (LikeMatch(d[i], pat.c_str()) != negate) out.PushBack(i);
  }
  scope.Finish(b.bytes() + out.bytes(), out.size());
  return out;
}

Bat MilUSelectColCol(MilSession* s, const Bat& a, const Bat& b, MilCmp cmp,
                     const char* label) {
  StmtScope scope(s, label);
  X100_CHECK(a.size() == b.size());
  Bat out(TypeId::kI64);
  if (a.type() == TypeId::kStr) {
    const char* const* da = a.Data<const char*>();
    const char* const* db = b.Data<const char*>();
    for (int64_t i = 0; i < a.size(); i++) {
      if (CmpApply(cmp, std::strcmp(da[i], db[i]), 0)) out.PushBack(i);
    }
  } else if (a.type() == b.type()) {
    DispatchType(a.type(), [&](auto tag) {
      using T = decltype(tag);
      const T* da = a.Data<T>();
      const T* db = b.Data<T>();
      for (int64_t i = 0; i < a.size(); i++) {
        if (CmpApply(cmp, da[i], db[i])) out.PushBack(i);
      }
    });
  } else {
    for (int64_t i = 0; i < a.size(); i++) {
      double x = a.ValueAt(i).AsF64(), y = b.ValueAt(i).AsF64();
      if (CmpApply(cmp, x, y)) out.PushBack(i);
    }
  }
  scope.Finish(a.bytes() + b.bytes() + out.bytes(), out.size());
  return out;
}

Bat MilFetchJoin(MilSession* s, const Bat& oids, const Bat& b, const char* label) {
  StmtScope scope(s, label);
  X100_CHECK(oids.type() == TypeId::kI64);
  Bat out(b.type());
  out.ResizeUninitialized(oids.size());
  const int64_t* o = oids.Data<int64_t>();
  size_t w = TypeWidth(b.type());
  const char* src = static_cast<const char*>(b.raw());
  char* dst = static_cast<char*>(out.mutable_raw());
  switch (w) {
    case 1:
      for (int64_t i = 0; i < oids.size(); i++) dst[i] = src[o[i]];
      break;
    case 2:
      for (int64_t i = 0; i < oids.size(); i++) {
        reinterpret_cast<uint16_t*>(dst)[i] =
            reinterpret_cast<const uint16_t*>(src)[o[i]];
      }
      break;
    case 4:
      for (int64_t i = 0; i < oids.size(); i++) {
        reinterpret_cast<uint32_t*>(dst)[i] =
            reinterpret_cast<const uint32_t*>(src)[o[i]];
      }
      break;
    default:
      for (int64_t i = 0; i < oids.size(); i++) {
        reinterpret_cast<uint64_t*>(dst)[i] =
            reinterpret_cast<const uint64_t*>(src)[o[i]];
      }
  }
  scope.Finish(oids.bytes() + out.bytes() * 2, out.size());
  return out;
}

namespace {

template <typename T, typename Op>
void MapLoop(const T* a, const T* b, T* r, int64_t n, Op op) {
  for (int64_t i = 0; i < n; i++) r[i] = op(a[i], b[i]);
}

template <typename T>
void MapDispatch(MilArith op, const T* a, const T* b, T* r, int64_t n) {
  switch (op) {
    case MilArith::kAdd: MapLoop(a, b, r, n, [](T x, T y) { return x + y; }); break;
    case MilArith::kSub: MapLoop(a, b, r, n, [](T x, T y) { return x - y; }); break;
    case MilArith::kMul: MapLoop(a, b, r, n, [](T x, T y) { return x * y; }); break;
    case MilArith::kDiv: MapLoop(a, b, r, n, [](T x, T y) { return x / y; }); break;
  }
}

}  // namespace

Bat MilMap(MilSession* s, MilArith op, const Bat& a, const Bat& b,
           const char* label) {
  StmtScope scope(s, label);
  X100_CHECK(a.size() == b.size());
  Bat out(TypeId::kF64);
  out.ResizeUninitialized(a.size());
  if (a.type() == TypeId::kF64 && b.type() == TypeId::kF64) {
    MapDispatch(op, a.Data<double>(), b.Data<double>(),
                out.MutableData<double>(), a.size());
  } else {
    double* r = out.MutableData<double>();
    for (int64_t i = 0; i < a.size(); i++) {
      double x = a.ValueAt(i).AsF64(), y = b.ValueAt(i).AsF64();
      switch (op) {
        case MilArith::kAdd: r[i] = x + y; break;
        case MilArith::kSub: r[i] = x - y; break;
        case MilArith::kMul: r[i] = x * y; break;
        case MilArith::kDiv: r[i] = x / y; break;
      }
    }
  }
  scope.Finish(a.bytes() + b.bytes() + out.bytes(), out.size());
  return out;
}

Bat MilMapVal(MilSession* s, MilArith op, const Value& v, const Bat& b,
              const char* label) {
  StmtScope scope(s, label);
  Bat out(TypeId::kF64);
  out.ResizeUninitialized(b.size());
  double val = v.AsF64();
  double* r = out.MutableData<double>();
  if (b.type() == TypeId::kF64) {
    const double* d = b.Data<double>();
    switch (op) {
      case MilArith::kAdd:
        for (int64_t i = 0; i < b.size(); i++) r[i] = val + d[i];
        break;
      case MilArith::kSub:
        for (int64_t i = 0; i < b.size(); i++) r[i] = val - d[i];
        break;
      case MilArith::kMul:
        for (int64_t i = 0; i < b.size(); i++) r[i] = val * d[i];
        break;
      case MilArith::kDiv:
        for (int64_t i = 0; i < b.size(); i++) r[i] = val / d[i];
        break;
    }
  } else {
    for (int64_t i = 0; i < b.size(); i++) {
      double y = b.ValueAt(i).AsF64();
      switch (op) {
        case MilArith::kAdd: r[i] = val + y; break;
        case MilArith::kSub: r[i] = val - y; break;
        case MilArith::kMul: r[i] = val * y; break;
        case MilArith::kDiv: r[i] = val / y; break;
      }
    }
  }
  scope.Finish(b.bytes() + out.bytes(), out.size());
  return out;
}

Bat MilMapYear(MilSession* s, const Bat& dates, const char* label) {
  StmtScope scope(s, label);
  Bat out(TypeId::kI32);
  out.ResizeUninitialized(dates.size());
  const int32_t* d = dates.Data<int32_t>();
  int32_t* r = out.MutableData<int32_t>();
  for (int64_t i = 0; i < dates.size(); i++) {
    int y;
    unsigned m, dd;
    CivilFromDays(d[i], &y, &m, &dd);
    r[i] = y;
  }
  scope.Finish(dates.bytes() + out.bytes(), out.size());
  return out;
}

namespace {

struct StrHashEq {
  size_t operator()(const char* s) const { return HashStr(s); }
  bool operator()(const char* a, const char* b) const {
    return std::strcmp(a, b) == 0;
  }
};

}  // namespace

MilJoinResult MilJoin(MilSession* s, const Bat& a, const Bat& b,
                      const char* label) {
  StmtScope scope(s, label);
  MilJoinResult res;
  res.left_oids = Bat(TypeId::kI64);
  res.right_oids = Bat(TypeId::kI64);
  if (a.type() == TypeId::kStr) {
    X100_CHECK(b.type() == TypeId::kStr);
    std::unordered_map<const char*, std::vector<int64_t>, StrHashEq, StrHashEq>
        ht;
    const char* const* db = b.Data<const char*>();
    for (int64_t i = 0; i < b.size(); i++) ht[db[i]].push_back(i);
    const char* const* da = a.Data<const char*>();
    for (int64_t i = 0; i < a.size(); i++) {
      auto it = ht.find(da[i]);
      if (it == ht.end()) continue;
      for (int64_t r : it->second) {
        res.left_oids.PushBack(i);
        res.right_oids.PushBack(r);
      }
    }
  } else {
    std::unordered_map<int64_t, std::vector<int64_t>> ht;
    for (int64_t i = 0; i < b.size(); i++) ht[KeyAt(b, i)].push_back(i);
    for (int64_t i = 0; i < a.size(); i++) {
      auto it = ht.find(KeyAt(a, i));
      if (it == ht.end()) continue;
      for (int64_t r : it->second) {
        res.left_oids.PushBack(i);
        res.right_oids.PushBack(r);
      }
    }
  }
  scope.Finish(a.bytes() + b.bytes() + res.left_oids.bytes() * 2,
               res.left_oids.size());
  return res;
}

namespace {

Bat SemiAntiJoin(MilSession* s, const Bat& a, const Bat& b, bool want_present,
                 const char* label) {
  StmtScope scope(s, label);
  Bat out(TypeId::kI64);
  if (a.type() == TypeId::kStr) {
    std::unordered_map<const char*, char, StrHashEq, StrHashEq> set;
    const char* const* db = b.Data<const char*>();
    for (int64_t i = 0; i < b.size(); i++) set[db[i]] = 1;
    const char* const* da = a.Data<const char*>();
    for (int64_t i = 0; i < a.size(); i++) {
      if ((set.find(da[i]) != set.end()) == want_present) out.PushBack(i);
    }
  } else {
    std::unordered_map<int64_t, char> set;
    for (int64_t i = 0; i < b.size(); i++) set[KeyAt(b, i)] = 1;
    for (int64_t i = 0; i < a.size(); i++) {
      if ((set.find(KeyAt(a, i)) != set.end()) == want_present) out.PushBack(i);
    }
  }
  scope.Finish(a.bytes() + b.bytes() + out.bytes(), out.size());
  return out;
}

}  // namespace

Bat MilSemiJoin(MilSession* s, const Bat& a, const Bat& b, const char* label) {
  return SemiAntiJoin(s, a, b, true, label);
}

Bat MilAntiJoin(MilSession* s, const Bat& a, const Bat& b, const char* label) {
  return SemiAntiJoin(s, a, b, false, label);
}

Bat MilGroup(MilSession* s, const Bat& b, int64_t* ngroups, const char* label) {
  StmtScope scope(s, label);
  Bat out(TypeId::kI64);
  out.ResizeUninitialized(b.size());
  int64_t* g = out.MutableData<int64_t>();
  int64_t ng = 0;
  if (b.type() == TypeId::kStr) {
    std::unordered_map<const char*, int64_t, StrHashEq, StrHashEq> ids;
    const char* const* d = b.Data<const char*>();
    for (int64_t i = 0; i < b.size(); i++) {
      auto [it, fresh] = ids.try_emplace(d[i], ng);
      if (fresh) ng++;
      g[i] = it->second;
    }
  } else {
    std::unordered_map<int64_t, int64_t> ids;
    for (int64_t i = 0; i < b.size(); i++) {
      auto [it, fresh] = ids.try_emplace(KeyAt(b, i), ng);
      if (fresh) ng++;
      g[i] = it->second;
    }
  }
  *ngroups = ng;
  scope.Finish(b.bytes() + out.bytes(), out.size());
  return out;
}

Bat MilGroupRefine(MilSession* s, const Bat& groups, int64_t ngroups_in,
                   const Bat& b, int64_t* ngroups, const char* label) {
  StmtScope scope(s, label);
  X100_CHECK(groups.size() == b.size());
  (void)ngroups_in;
  Bat out(TypeId::kI64);
  out.ResizeUninitialized(b.size());
  int64_t* g = out.MutableData<int64_t>();
  const int64_t* gin = groups.Data<int64_t>();
  int64_t ng = 0;
  if (b.type() == TypeId::kStr) {
    std::unordered_map<std::string, int64_t> ids;
    const char* const* d = b.Data<const char*>();
    for (int64_t i = 0; i < b.size(); i++) {
      std::string key = std::to_string(gin[i]) + "|" + d[i];
      auto [it, fresh] = ids.try_emplace(std::move(key), ng);
      if (fresh) ng++;
      g[i] = it->second;
    }
  } else {
    // Exact composite key (a hashed key would merge distinct groups on
    // collision, silently corrupting counts).
    struct PairHash {
      size_t operator()(const std::pair<int64_t, int64_t>& p) const {
        return HashCombine(static_cast<uint64_t>(p.first),
                           HashU64(static_cast<uint64_t>(p.second)));
      }
    };
    std::unordered_map<std::pair<int64_t, int64_t>, int64_t, PairHash> ids;
    for (int64_t i = 0; i < b.size(); i++) {
      auto [it, fresh] = ids.try_emplace({gin[i], KeyAt(b, i)}, ng);
      if (fresh) ng++;
      g[i] = it->second;
    }
  }
  *ngroups = ng;
  scope.Finish(groups.bytes() + b.bytes() + out.bytes(), out.size());
  return out;
}

Bat MilGroupReps(MilSession* s, const Bat& groups, int64_t ngroups,
                 const char* label) {
  StmtScope scope(s, label);
  Bat out(TypeId::kI64);
  out.ResizeUninitialized(ngroups);
  int64_t* r = out.MutableData<int64_t>();
  for (int64_t g = 0; g < ngroups; g++) r[g] = -1;
  const int64_t* gi = groups.Data<int64_t>();
  for (int64_t i = 0; i < groups.size(); i++) {
    if (r[gi[i]] < 0) r[gi[i]] = i;
  }
  scope.Finish(groups.bytes() + out.bytes(), ngroups);
  return out;
}

Bat MilUnionOids(MilSession* s, const Bat& a, const Bat& b, const char* label) {
  StmtScope scope(s, label);
  Bat out(TypeId::kI64);
  const int64_t* da = a.Data<int64_t>();
  const int64_t* db = b.Data<int64_t>();
  int64_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (da[i] < db[j]) {
      out.PushBack(da[i++]);
    } else if (da[i] > db[j]) {
      out.PushBack(db[j++]);
    } else {
      out.PushBack(da[i++]);
      j++;
    }
  }
  while (i < a.size()) out.PushBack(da[i++]);
  while (j < b.size()) out.PushBack(db[j++]);
  scope.Finish(a.bytes() + b.bytes() + out.bytes(), out.size());
  return out;
}

Bat MilSumGrouped(MilSession* s, const Bat& v, const Bat& groups, int64_t ng,
                  const char* label) {
  StmtScope scope(s, label);
  const int64_t* g = groups.Data<int64_t>();
  Bat out(v.type() == TypeId::kF64 ? TypeId::kF64 : TypeId::kI64);
  out.ResizeUninitialized(ng);
  if (out.type() == TypeId::kF64) {
    double* r = out.MutableData<double>();
    // An empty Bat's data is null, and memset(nullptr, 0, 0) is undefined.
    if (ng > 0) std::memset(r, 0, static_cast<size_t>(ng) * 8);
    const double* d = v.Data<double>();
    for (int64_t i = 0; i < v.size(); i++) r[g[i]] += d[i];
  } else {
    int64_t* r = out.MutableData<int64_t>();
    if (ng > 0) std::memset(r, 0, static_cast<size_t>(ng) * 8);
    for (int64_t i = 0; i < v.size(); i++) r[g[i]] += v.ValueAt(i).AsI64();
  }
  scope.Finish(v.bytes() + groups.bytes() + out.bytes(), ng);
  return out;
}

namespace {

Bat MinMaxGrouped(MilSession* s, const Bat& v, const Bat& groups, int64_t ng,
                  bool want_min, const char* label) {
  StmtScope scope(s, label);
  const int64_t* g = groups.Data<int64_t>();
  Bat out(v.type());
  out.ResizeUninitialized(ng);
  if (v.type() == TypeId::kStr) {
    const char** r = reinterpret_cast<const char**>(out.mutable_raw());
    for (int64_t i = 0; i < ng; i++) r[i] = nullptr;
    const char* const* d = v.Data<const char*>();
    for (int64_t i = 0; i < v.size(); i++) {
      const char*& slot = r[g[i]];
      if (slot == nullptr || (std::strcmp(d[i], slot) < 0) == want_min) {
        slot = d[i];
      }
    }
  } else {
    DispatchType(v.type(), [&](auto tag) {
      using T = decltype(tag);
      T* r = reinterpret_cast<T*>(out.mutable_raw());
      for (int64_t i = 0; i < ng; i++) {
        r[i] = want_min ? std::numeric_limits<T>::max()
                        : std::numeric_limits<T>::lowest();
      }
      const T* d = v.Data<T>();
      for (int64_t i = 0; i < v.size(); i++) {
        T& slot = r[g[i]];
        if (want_min ? d[i] < slot : d[i] > slot) slot = d[i];
      }
    });
  }
  scope.Finish(v.bytes() + groups.bytes() + out.bytes(), ng);
  return out;
}

}  // namespace

Bat MilMinGrouped(MilSession* s, const Bat& v, const Bat& groups, int64_t ng,
                  const char* label) {
  return MinMaxGrouped(s, v, groups, ng, true, label);
}

Bat MilMaxGrouped(MilSession* s, const Bat& v, const Bat& groups, int64_t ng,
                  const char* label) {
  return MinMaxGrouped(s, v, groups, ng, false, label);
}

Bat MilCountGrouped(MilSession* s, const Bat& groups, int64_t ng,
                    const char* label) {
  StmtScope scope(s, label);
  Bat out(TypeId::kI64);
  out.ResizeUninitialized(ng);
  int64_t* r = out.MutableData<int64_t>();
  if (ng > 0) std::memset(r, 0, static_cast<size_t>(ng) * 8);
  const int64_t* g = groups.Data<int64_t>();
  for (int64_t i = 0; i < groups.size(); i++) r[g[i]]++;
  scope.Finish(groups.bytes() + out.bytes(), ng);
  return out;
}

double MilSum(MilSession* s, const Bat& v, const char* label) {
  StmtScope scope(s, label);
  double total = 0;
  if (v.type() == TypeId::kF64) {
    const double* d = v.Data<double>();
    for (int64_t i = 0; i < v.size(); i++) total += d[i];
  } else {
    for (int64_t i = 0; i < v.size(); i++) total += v.ValueAt(i).AsF64();
  }
  scope.Finish(v.bytes(), 1);
  return total;
}

int64_t MilCount(MilSession* s, const Bat& v, const char* label) {
  StmtScope scope(s, label);
  scope.Finish(0, 1);
  return v.size();
}

Value MilMin(MilSession* s, const Bat& v, const char* label) {
  StmtScope scope(s, label);
  X100_CHECK(v.size() > 0);
  Value best = v.ValueAt(0);
  for (int64_t i = 1; i < v.size(); i++) {
    Value x = v.ValueAt(i);
    bool less = v.type() == TypeId::kStr ? x.AsStr() < best.AsStr()
                : v.type() == TypeId::kF64 ? x.AsF64() < best.AsF64()
                                           : x.AsI64() < best.AsI64();
    if (less) best = x;
  }
  scope.Finish(v.bytes(), 1);
  return best;
}

Value MilMax(MilSession* s, const Bat& v, const char* label) {
  StmtScope scope(s, label);
  X100_CHECK(v.size() > 0);
  Value best = v.ValueAt(0);
  for (int64_t i = 1; i < v.size(); i++) {
    Value x = v.ValueAt(i);
    bool more = v.type() == TypeId::kStr ? x.AsStr() > best.AsStr()
                : v.type() == TypeId::kF64 ? x.AsF64() > best.AsF64()
                                           : x.AsI64() > best.AsI64();
    if (more) best = x;
  }
  scope.Finish(v.bytes(), 1);
  return best;
}

Bat MilUnique(MilSession* s, const Bat& b, const char* label) {
  StmtScope scope(s, label);
  Bat out(b.type());
  if (b.type() == TypeId::kStr) {
    std::unordered_map<const char*, char, StrHashEq, StrHashEq> seen;
    const char* const* d = b.Data<const char*>();
    for (int64_t i = 0; i < b.size(); i++) {
      if (seen.try_emplace(d[i], 1).second) out.PushBack(d[i]);
    }
  } else {
    std::unordered_map<int64_t, char> seen;
    for (int64_t i = 0; i < b.size(); i++) {
      if (seen.try_emplace(KeyAt(b, i), 1).second) {
        DispatchType(b.type(), [&](auto tag) {
          using T = decltype(tag);
          out.PushBack(b.Data<T>()[i]);
        });
      }
    }
  }
  scope.Finish(b.bytes() + out.bytes(), out.size());
  return out;
}

Bat MilSortOids(MilSession* s, const std::vector<const Bat*>& keys,
                const std::vector<bool>& desc, const char* label) {
  StmtScope scope(s, label);
  X100_CHECK(!keys.empty() && keys.size() == desc.size());
  int64_t n = keys[0]->size();
  std::vector<int64_t> idx(n);
  for (int64_t i = 0; i < n; i++) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < keys.size(); k++) {
      const Bat& key = *keys[k];
      int c;
      if (key.type() == TypeId::kStr) {
        c = std::strcmp(key.Data<const char*>()[a], key.Data<const char*>()[b]);
      } else if (key.type() == TypeId::kF64) {
        double x = key.Data<double>()[a], y = key.Data<double>()[b];
        c = x < y ? -1 : x > y ? 1 : 0;
      } else {
        int64_t x = KeyAt(key, a), y = KeyAt(key, b);
        c = x < y ? -1 : x > y ? 1 : 0;
      }
      if (c != 0) return desc[k] ? c > 0 : c < 0;
    }
    return false;
  });
  Bat out(TypeId::kI64);
  out.ResizeUninitialized(n);
  if (n > 0) {
    std::memcpy(out.mutable_raw(), idx.data(), static_cast<size_t>(n) * 8);
  }
  size_t in_bytes = 0;
  for (const Bat* k : keys) in_bytes += k->bytes();
  scope.Finish(in_bytes + out.bytes(), n);
  return out;
}

Bat MilSlice(MilSession* s, const Bat& order, int64_t n, const char* label) {
  StmtScope scope(s, label);
  Bat out(TypeId::kI64);
  int64_t m = std::min(n, order.size());
  out.ResizeUninitialized(m);
  if (m > 0) {
    std::memcpy(out.mutable_raw(), order.raw(), static_cast<size_t>(m) * 8);
  }
  scope.Finish(out.bytes(), m);
  return out;
}

}  // namespace x100

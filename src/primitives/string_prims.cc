#include <cstring>
#include <string>

#include "primitives/primitive.h"

// String select primitives: comparisons on heap-pointer columns, plus SQL
// LIKE matching. These give string-typed ADTs first-class primitive status,
// the extensibility point §4.2 contrasts with UDF-style per-value calls.

namespace x100 {

// SQL LIKE with '%' (any run) and '_' (any single char); iterative
// backtracking matcher, no allocation.
bool LikeMatch(const char* s, const char* pat) {
  const char* star_pat = nullptr;
  const char* star_s = nullptr;
  while (*s) {
    if (*pat == '%') {
      star_pat = ++pat;
      star_s = s;
      if (!*pat) return true;
    } else if (*pat == '_' || *pat == *s) {
      pat++;
      s++;
    } else if (star_pat) {
      pat = star_pat;
      s = ++star_s;
    } else {
      return false;
    }
  }
  while (*pat == '%') pat++;
  return *pat == '\0';
}

namespace {

struct StrLt { static bool Apply(const char* a, const char* b) { return std::strcmp(a, b) < 0; } };
struct StrLe { static bool Apply(const char* a, const char* b) { return std::strcmp(a, b) <= 0; } };
struct StrGt { static bool Apply(const char* a, const char* b) { return std::strcmp(a, b) > 0; } };
struct StrGe { static bool Apply(const char* a, const char* b) { return std::strcmp(a, b) >= 0; } };
struct StrEq { static bool Apply(const char* a, const char* b) { return std::strcmp(a, b) == 0; } };
struct StrNe { static bool Apply(const char* a, const char* b) { return std::strcmp(a, b) != 0; } };
struct StrLike {
  static bool Apply(const char* a, const char* b) { return LikeMatch(a, b); }
};
struct StrNotLike {
  static bool Apply(const char* a, const char* b) { return !LikeMatch(a, b); }
};

// A constant LIKE pattern classified by shape, once per primitive call. The
// pattern is copied into a stack buffer with every '%' overwritten by NUL,
// so each literal segment is a NUL-terminated string for strcmp/strstr.
// Patterns with '_', with literals at both ends around a '%' ('a%b'), or
// longer than the buffer keep the general LikeMatch.
struct LikePattern {
  enum Shape { kExact, kPrefix, kSuffix, kSegments, kGeneral };
  static constexpr size_t kMaxLen = 63;
  static constexpr int kMaxSegs = (kMaxLen + 1) / 2;

  Shape shape = kGeneral;
  int nseg = 0;
  const char* seg[kMaxSegs];
  size_t len[kMaxSegs];
  char buf[kMaxLen + 1];

  explicit LikePattern(const char* pat) {
    size_t n = std::strlen(pat);
    if (n > kMaxLen || std::memchr(pat, '_', n) != nullptr) return;
    std::memcpy(buf, pat, n + 1);
    bool any_pct = false;
    for (size_t i = 0; i < n;) {
      if (buf[i] == '%') {
        buf[i++] = '\0';
        any_pct = true;
        continue;
      }
      size_t start = i;
      while (i < n && buf[i] != '%') i++;
      seg[nseg] = buf + start;
      len[nseg++] = i - start;
    }
    bool head = n > 0 && pat[0] != '%';
    bool tail = n > 0 && pat[n - 1] != '%';
    if (!any_pct) {
      shape = kExact;
    } else if (!head && !tail) {
      shape = kSegments;
    } else if (nseg == 1) {
      shape = head ? kPrefix : kSuffix;
    }  // else anchored at both ends or several segments: kGeneral
  }

  // Greedy leftmost match of the segments in order: the first hit of each
  // segment leaves the most room for the rest, so no backtracking.
  bool MatchSegments(const char* s) const {
    for (int i = 0; i < nseg; i++) {
      s = std::strstr(s, seg[i]);
      if (s == nullptr) return false;
      s += len[i];
    }
    return true;
  }
};

// The predicated select loop of Figure 2, shared by every string select: the
// match result advances the output cursor, with no branch in the loop body.
template <bool kNegate, typename Match>
int SelectMatching(int n, int* res_sel, const char* const* a, const int* sel,
                   Match match) {
  int k = 0;
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      res_sel[k] = i;
      k += match(a[i]) != kNegate;
    }
  } else {
    for (int i = 0; i < n; i++) {
      res_sel[k] = i;
      k += match(a[i]) != kNegate;
    }
  }
  return k;
}

// select_[not]like_str_col_str_val: one specialized loop per pattern shape.
template <bool kNegate>
int SelectLikeColVal(int n, int* res_sel, const void* const* args,
                     const int* sel) {
  const char* const* a = static_cast<const char* const*>(args[0]);
  const char* pat = *static_cast<const char* const*>(args[1]);
  const LikePattern p(pat);
  switch (p.shape) {
    case LikePattern::kExact:
      return SelectMatching<kNegate>(n, res_sel, a, sel, [pat](const char* s) {
        return std::strcmp(s, pat) == 0;
      });
    case LikePattern::kPrefix: {
      const char* lit = p.seg[0];
      const size_t len = p.len[0];
      return SelectMatching<kNegate>(
          n, res_sel, a, sel,
          [lit, len](const char* s) { return std::strncmp(s, lit, len) == 0; });
    }
    case LikePattern::kSuffix: {
      const char* lit = p.seg[0];
      const size_t len = p.len[0];
      return SelectMatching<kNegate>(
          n, res_sel, a, sel, [lit, len](const char* s) {
            size_t sl = std::strlen(s);
            return sl >= len && std::memcmp(s + sl - len, lit, len) == 0;
          });
    }
    case LikePattern::kSegments:
      return SelectMatching<kNegate>(
          n, res_sel, a, sel,
          [&p](const char* s) { return p.MatchSegments(s); });
    case LikePattern::kGeneral:
      break;
  }
  return SelectMatching<kNegate>(n, res_sel, a, sel, [pat](const char* s) {
    return LikeMatch(s, pat);
  });
}

template <typename Op>
int SelectStrColVal(int n, int* res_sel, const void* const* args, const int* sel) {
  const char* const* a = static_cast<const char* const*>(args[0]);
  const char* v = *static_cast<const char* const*>(args[1]);
  return SelectMatching<false>(n, res_sel, a, sel,
                               [v](const char* s) { return Op::Apply(s, v); });
}

template <typename Op>
int SelectStrColCol(int n, int* res_sel, const void* const* args, const int* sel) {
  const char* const* a = static_cast<const char* const*>(args[0]);
  const char* const* b = static_cast<const char* const*>(args[1]);
  int k = 0;
  if (sel) {
    for (int j = 0; j < n; j++) {
      int i = sel[j];
      res_sel[k] = i;
      k += Op::Apply(a[i], b[i]);
    }
  } else {
    for (int i = 0; i < n; i++) {
      res_sel[k] = i;
      k += Op::Apply(a[i], b[i]);
    }
  }
  return k;
}

template <typename Op>
void RegisterStrCmp(PrimitiveRegistry* r, const char* op) {
  r->RegisterSelect(std::string("select_") + op + "_str_col_str_val", 2,
                    &SelectStrColVal<Op>);
  r->RegisterSelect(std::string("select_") + op + "_str_col_str_col", 2,
                    &SelectStrColCol<Op>);
}

}  // namespace

void RegisterStringPrimitives(PrimitiveRegistry* r) {
  RegisterStrCmp<StrLt>(r, "lt");
  RegisterStrCmp<StrLe>(r, "le");
  RegisterStrCmp<StrGt>(r, "gt");
  RegisterStrCmp<StrGe>(r, "ge");
  RegisterStrCmp<StrEq>(r, "eq");
  RegisterStrCmp<StrNe>(r, "ne");
  r->RegisterSelect("select_like_str_col_str_val", 2, &SelectLikeColVal<false>);
  r->RegisterSelect("select_notlike_str_col_str_val", 2,
                    &SelectLikeColVal<true>);
  r->RegisterSelect("select_like_str_col_str_col", 2,
                    &SelectStrColCol<StrLike>);
  r->RegisterSelect("select_notlike_str_col_str_col", 2,
                    &SelectStrColCol<StrNotLike>);
}

}  // namespace x100

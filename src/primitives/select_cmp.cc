#include <cstdint>

#include "primitives/kernels.h"
#include "primitives/primitive.h"

// Comparison select primitives: fill a selection vector with qualifying
// positions and return the count (§4.2 "select_* primitives"). The
// paper-style names bind the predicated loop of Figure 2, whose cost does not
// depend on selectivity; it is the only shape the engine binds. The branching
// loop is registered under the suffix `_branch` for Figure 2's comparison
// and the kernel tests.

namespace x100 {
namespace {

using namespace x100::kernels;

template <typename T, typename Op>
void RegisterCmp(PrimitiveRegistry* r, const char* op, const char* t) {
  std::string base = std::string("select_") + op + "_" + t + "_col_" + t;
  r->RegisterSelect(base + "_val", 2, &SelectColValPred<T, T, Op>);
  r->RegisterSelect(base + "_val_branch", 2, &SelectColValBranch<T, T, Op>);
  r->RegisterSelect(base + "_col", 2, &SelectColColPred<T, T, Op>);
  r->RegisterSelect(base + "_col_branch", 2, &SelectColColBranch<T, T, Op>);
}

template <typename T>
void RegisterAllCmp(PrimitiveRegistry* r, const char* t) {
  RegisterCmp<T, LtOp>(r, "lt", t);
  RegisterCmp<T, LeOp>(r, "le", t);
  RegisterCmp<T, GtOp>(r, "gt", t);
  RegisterCmp<T, GeOp>(r, "ge", t);
  RegisterCmp<T, EqOp>(r, "eq", t);
  RegisterCmp<T, NeOp>(r, "ne", t);
}

}  // namespace

void RegisterSelectCmp(PrimitiveRegistry* r) {
  RegisterAllCmp<int8_t>(r, "i8");
  RegisterAllCmp<uint8_t>(r, "u8");
  RegisterAllCmp<int16_t>(r, "i16");
  RegisterAllCmp<uint16_t>(r, "u16");
  RegisterAllCmp<int32_t>(r, "i32");
  RegisterAllCmp<int64_t>(r, "i64");
  RegisterAllCmp<double>(r, "f64");
}

}  // namespace x100

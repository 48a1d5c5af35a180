#ifndef X100_TPCH_QUERIES_X100_INTERNAL_H_
#define X100_TPCH_QUERIES_X100_INTERNAL_H_

// Internal: per-query X100 plan functions + shared plan helpers.
// Include only from tpch/queries_x100_*.cc and tests.

#include <memory>

#include "exec/plan.h"
#include "storage/catalog.h"

namespace x100::tpch_x100 {

using TablePtr = std::unique_ptr<Table>;

#define X100_DECLARE_Q(n) TablePtr Q##n(ExecContext* ctx, const Catalog& db)
X100_DECLARE_Q(1);  X100_DECLARE_Q(2);  X100_DECLARE_Q(3);  X100_DECLARE_Q(4);
X100_DECLARE_Q(5);  X100_DECLARE_Q(6);  X100_DECLARE_Q(7);  X100_DECLARE_Q(8);
X100_DECLARE_Q(9);  X100_DECLARE_Q(10); X100_DECLARE_Q(11); X100_DECLARE_Q(12);
X100_DECLARE_Q(13); X100_DECLARE_Q(14); X100_DECLARE_Q(15); X100_DECLARE_Q(16);
X100_DECLARE_Q(17); X100_DECLARE_Q(18); X100_DECLARE_Q(19); X100_DECLARE_Q(20);
X100_DECLARE_Q(21); X100_DECLARE_Q(22);
#undef X100_DECLARE_Q

/// Q21's per-order sub-plans, materialized as q21_multi (orders with at
/// least two distinct suppliers) and q21_single (orders whose `late` lines
/// come from exactly one supplier). Each outputs l_orderkey in first
/// encounter order.
TablePtr Q21MultiSupplierOrders(ExecContext* ctx, const Catalog& db);
TablePtr Q21SingleSupplierOrders(ExecContext* ctx, const Table& late);

/// Move-only-friendly vector builders (NamedExpr / AggrSpec hold ExprPtr).
template <typename... Ts>
std::vector<NamedExpr> NE(Ts&&... ts) {
  std::vector<NamedExpr> v;
  v.reserve(sizeof...(ts));
  (v.push_back(std::move(ts)), ...);
  return v;
}

template <typename... Ts>
std::vector<AggrSpec> AG(Ts&&... ts) {
  std::vector<AggrSpec> v;
  v.reserve(sizeof...(ts));
  (v.push_back(std::move(ts)), ...);
  return v;
}

/// revenue term: l_extendedprice * (1 - l_discount).
inline ExprPtr Rev() {
  return exprs::Mul(exprs::Sub(LitF64(1.0), Col("l_discount")),
                    Col("l_extendedprice"));
}

inline double ScalarF64(const Table& t, const char* col) {
  X100_CHECK(t.num_rows() >= 1);
  return t.GetValue(0, t.ColumnIndex(col)).AsF64();
}
inline int64_t ScalarI64(const Table& t, const char* col) {
  X100_CHECK(t.num_rows() >= 1);
  return t.GetValue(0, t.ColumnIndex(col)).AsI64();
}

}  // namespace x100::tpch_x100

#endif  // X100_TPCH_QUERIES_X100_INTERNAL_H_

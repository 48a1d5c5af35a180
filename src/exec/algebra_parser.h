#ifndef X100_EXEC_ALGEBRA_PARSER_H_
#define X100_EXEC_ALGEBRA_PARSER_H_

#include <memory>
#include <string>

#include "exec/operator.h"
#include "storage/catalog.h"

namespace x100 {

/// Parser for textual X100 algebra — the "X100 Parser" box of Figure 5,
/// accepting the notation of Figures 6/9. Example (the paper's simplified
/// Query 1 verbatim, §4.1.1):
///
///   Aggr(
///     Project(
///       Select(
///         Table(lineitem),
///         < (l_shipdate, date('1998-09-03'))),
///       [ discountprice = *( -( flt('1.0'), l_discount), l_extendedprice) ]),
///     [ l_returnflag ],
///     [ sum_disc_price = sum(discountprice) ])
///
/// Supported operators: Table(name[, col, ...]), Select(op, exp),
/// Project(op, [name = exp | name, ...]),
/// Aggr/OrdAggr(op, [group cols], [name = agg(exp)]) (HashAggr and
/// DirectAggr are accepted as names for Aggr),
/// TopN(op, [col ASC|DESC, ...], n), Order(op, [col ASC|DESC, ...]),
/// Fetch1Join(op, table, rowid_exp_col, [src AS dst, ...]).
/// Expressions use the paper's prefix forms: <,<=,>,>=,==,!= and +,-,*,/
/// plus named calls (and, or, like, notlike, year, sum/min/max/count in
/// aggregate lists) and literals: 123, 1.5, flt('1.0'), date('1998-09-03'),
/// str('MAIL') or 'MAIL'.
///
/// Table(name) with no column list scans every declared column.
class AlgebraParser {
 public:
  /// `ctx` and `catalog` must outlive the returned plan.
  AlgebraParser(ExecContext* ctx, const Catalog& catalog);

  /// Parses `text` into an executable operator tree. On error returns null
  /// and describes the problem (with offset) in *error.
  std::unique_ptr<Operator> Parse(const std::string& text, std::string* error);

 private:
  struct Impl;
  ExecContext* ctx_;
  const Catalog& catalog_;
};

}  // namespace x100

#endif  // X100_EXEC_ALGEBRA_PARSER_H_

#ifndef X100_EXEC_SCAN_H_
#define X100_EXEC_SCAN_H_

#include <optional>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "storage/snapshot.h"
#include "storage/table.h"

namespace x100 {

/// Options struct describing one table scan — the single entry point behind
/// plan::Scan (the former Scan/ScanRange/ScanRowId factory triplet).
/// Designated initializers keep call sites readable:
///
///   Scan(ctx, t, {.cols = {"a", "b"},
///                 .range = {{"a", 0.0, 10.0}},
///                 .morsel = {w, n}})
struct ScanSpec {
  /// Summary-index range restriction on one column (lo/hi inclusive; use
  /// ±infinity for open sides), cf. §4.3.
  struct Range {
    std::string col;
    double lo = 0, hi = 0;
  };
  /// Which contiguous share of the table this scan covers. The default is
  /// the whole table; ExchangeOp factories pass {worker, num_workers} so
  /// each worker pipeline reads a disjoint morsel.
  struct Morsel {
    int worker = 0;
    int num_workers = 1;
  };

  std::vector<std::string> cols;
  std::optional<Range> range;
  std::string rowid;  // non-empty: also emit #rowId under this name
  Morsel morsel;
};

/// Scan(Table): retrieves data vector-at-a-time from vertical fragments
/// (§4.1.1). Only the requested columns are touched. Vectors are zero-copy
/// views into fragment storage whenever the window contains no deleted rows;
/// windows intersecting the deletion list are compacted by copy. After the
/// fragment, the (uncompressed-code) delta columns are scanned the same way.
///
/// Enumeration-typed columns are emitted as their code vectors with the
/// dictionary attached to the schema Field; the expression binder inserts the
/// decoding Fetch1Join automatically (§4.3).
///
/// With a morsel restriction, the scan covers worker w's share of both the
/// (SMA-pruned) fragment region and the delta region; fragment split points
/// are aligned to summary-index granules so no granule is read twice.
class ScanOp : public Operator {
 public:
  ScanOp(ExecContext* ctx, const Table& table, ScanSpec spec);
  /// Convenience: full-table scan of `cols`.
  ScanOp(ExecContext* ctx, const Table& table, std::vector<std::string> cols);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  VectorBatch* Next() override;

 private:
  ExecContext* ctx_;
  const Table& table_;
  std::vector<int> col_idx_;
  Schema schema_;
  int rowid_field_ = -1;  // #rowId output field, or -1

  // Summary-index range: only #rowIds that may satisfy lo <= col <= hi are
  // scanned (resolved at Open; no-op without a summary index on col). The
  // delta region is always scanned; the plan's Select applies the exact
  // predicate.
  std::optional<ScanSpec::Range> range_;

  // Morsel restriction (resolved after SMA pruning at Open).
  ScanSpec::Morsel morsel_;

  // Scan state.
  const TableSnapshot* snap_ = nullptr;  // pinned view, or null for live
  int64_t frag_rows_ = 0;  // fragment/delta boundary (snapshot or live)
  int64_t frag_begin_ = 0, frag_end_ = 0;  // fragment region after SMA+morsel
  int64_t delta_begin_ = 0, delta_end_ = 0;  // delta region (morsel share)
  int64_t pos_ = 0;                          // next #rowId to deliver
  bool in_delta_ = false;

  VectorBatch batch_;
  std::vector<Vector> copy_bufs_;  // per output column, for delete compaction
  Vector rowid_buf_;
};

/// True when a full ScanOp of `table` under `ctx`'s snapshots delivers
/// column `col` in non-decreasing order, so equal values arrive adjacently.
/// Checks the fragment and then the visible delta rows, with the same bounds
/// ScanOp::Open takes; the fragment's pass runs once per column
/// (Column::OrderOf keeps its answer), the delta's per snapshot. Deleted
/// rows are checked too: dropping rows from a non-decreasing sequence keeps
/// it so. Integer and date columns only; any other column (floats, strings,
/// enum codes) returns false.
bool ScanIsNonDecreasing(ExecContext* ctx, const Table& table,
                         const std::string& col);

}  // namespace x100

#endif  // X100_EXEC_SCAN_H_

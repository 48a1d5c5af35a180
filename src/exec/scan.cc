#include "exec/scan.h"

#include <algorithm>
#include <cstring>

namespace x100 {

ScanOp::ScanOp(ExecContext* ctx, const Table& table, ScanSpec spec)
    : ctx_(ctx),
      table_(table),
      range_(std::move(spec.range)),
      morsel_(spec.morsel) {
  X100_CHECK(morsel_.num_workers >= 1 && morsel_.worker >= 0 &&
             morsel_.worker < morsel_.num_workers);
  for (const std::string& name : spec.cols) {
    int ci = table.ColumnIndex(name);
    col_idx_.push_back(ci);
    const Column& col = table.column(ci);
    Field f;
    f.name = name;
    f.type = col.storage_type();
    if (col.is_enum()) {
      // Dictionary base resolved at Open (delta inserts may grow the dict).
      f.dict = {true, nullptr, col.dict()->value_type(), 0};
    }
    schema_.Add(f);
  }
  if (!spec.rowid.empty()) {
    rowid_field_ = schema_.num_fields();
    schema_.Add(spec.rowid, TypeId::kI64);
  }
}

ScanOp::ScanOp(ExecContext* ctx, const Table& table,
               std::vector<std::string> cols)
    : ScanOp(ctx, table, ScanSpec{.cols = std::move(cols)}) {}

void ScanOp::Open() {
  // Under MVCC serving, every bound — fragment rows, delta high-water mark,
  // deletion list — comes from the pinned snapshot, never the live table:
  // concurrent writers keep moving the latter. (Column data pointers stay
  // valid for the pin's lifetime; structural changes fence pins out first.)
  snap_ = ctx_->snapshots != nullptr ? ctx_->snapshots->Find(table_.name())
                                     : nullptr;
  frag_rows_ = snap_ != nullptr ? snap_->fragment_rows : table_.fragment_rows();

  // Refresh dictionary refs (bases are stable only between appends).
  for (int i = 0; i < static_cast<int>(col_idx_.size()); i++) {
    const Column& col = table_.column(col_idx_[i]);
    if (col.is_enum()) {
      Field* f = const_cast<Field*>(&schema_.field(i));
      f->dict = {true, col.dict()->base(), col.dict()->value_type(),
                 col.dict()->size()};
    }
  }

  frag_begin_ = 0;
  frag_end_ = frag_rows_;
  if (range_) {
    int ci = table_.ColumnIndex(range_->col);
    const SummaryIndex* sma = table_.summary_index(ci);
    if (sma != nullptr) {
      SummaryIndex::RowRange r = sma->Range(range_->lo, range_->hi);
      frag_begin_ = r.begin;
      frag_end_ = r.end;
    }
  }
  delta_begin_ = frag_rows_;
  delta_end_ = snap_ != nullptr ? snap_->total_rows : table_.total_rows();
  if (morsel_.num_workers > 1) {
    // The morsel is this worker's share of what survives SMA pruning, with
    // fragment split points granule-aligned (absolute alignment, matching
    // the summary index), and of the delta region, split per-row.
    Table::RowRange fr =
        Table::MorselRange(frag_begin_, frag_end_, morsel_.worker,
                           morsel_.num_workers, kSummaryIndexGranule);
    frag_begin_ = fr.begin;
    frag_end_ = fr.end;
    Table::RowRange dr = Table::MorselRange(
        delta_begin_, delta_end_, morsel_.worker, morsel_.num_workers, 1);
    delta_begin_ = dr.begin;
    delta_end_ = dr.end;
  }
  pos_ = frag_begin_;
  in_delta_ = false;

  batch_ = VectorBatch(schema_, ctx_->vector_size);
  copy_bufs_.clear();
  for (int i = 0; i < schema_.num_fields(); i++) {
    if (i == rowid_field_) continue;
    copy_bufs_.emplace_back(schema_.field(i).type, ctx_->vector_size);
  }
  if (rowid_field_ >= 0) rowid_buf_.Allocate(TypeId::kI64, ctx_->vector_size);

  if (delta_end_ > delta_begin_) {
    // Delta columns exist only for declared columns, not join-index columns;
    // scanning a join-index column of a table with deltas requires a
    // Reorganize() + join-index rebuild first.
    for (int ci : col_idx_) {
      X100_CHECK(ci < table_.num_delta_columns());
    }
  }
}

VectorBatch* ScanOp::Next() {
  ctx_->CheckCancel();
  while (true) {
    int64_t region_end = in_delta_ ? delta_end_ : frag_end_;
    if (pos_ >= region_end) {
      if (!in_delta_ && delta_end_ > delta_begin_) {
        in_delta_ = true;
        pos_ = delta_begin_;
        continue;
      }
      return nullptr;
    }

    int64_t n = std::min<int64_t>(ctx_->vector_size, region_end - pos_);
    int64_t lo = pos_, hi = pos_ + n;

    // Deleted #rowIds inside the window (the snapshot's immutable
    // copy-on-write list under MVCC).
    const std::vector<int64_t>& dels =
        snap_ != nullptr ? *snap_->deleted : table_.deletion_list();
    auto dbegin = std::lower_bound(dels.begin(), dels.end(), lo);
    auto dend = std::lower_bound(dbegin, dels.end(), hi);
    int64_t ndel = dend - dbegin;

    batch_.ClearSel();
    int out = 0;
    for (int i = 0, bi = 0; i < schema_.num_fields(); i++) {
      if (i == rowid_field_) continue;
      const Column& col = in_delta_ ? table_.delta_column(col_idx_[bi])
                                    : table_.column(col_idx_[bi]);
      int64_t off = in_delta_ ? lo - frag_rows_ : lo;
      size_t w = TypeWidth(schema_.field(i).type);
      const char* base = static_cast<const char*>(col.raw()) + off * w;
      if (ndel == 0) {
        batch_.column(i).SetView(schema_.field(i).type, base,
                                 static_cast<int>(n));
      } else {
        // Compact live rows into the copy buffer.
        char* dst = static_cast<char*>(copy_bufs_[bi].data());
        auto d = dbegin;
        int k = 0;
        for (int64_t r = lo; r < hi; r++) {
          if (d != dend && *d == r) {
            ++d;
            continue;
          }
          std::memcpy(dst + static_cast<size_t>(k) * w,
                      base + static_cast<size_t>(r - lo) * w, w);
          k++;
        }
        out = k;
        batch_.column(i).SetView(schema_.field(i).type, copy_bufs_[bi].data(), k);
      }
      bi++;
    }
    int count = ndel == 0 ? static_cast<int>(n) : out;
    if (rowid_field_ >= 0) {
      int64_t* ids = rowid_buf_.Data<int64_t>();
      auto d = dbegin;
      int k = 0;
      for (int64_t r = lo; r < hi; r++) {
        if (d != dend && *d == r) {
          ++d;
          continue;
        }
        ids[k++] = r;
      }
      batch_.column(rowid_field_).SetView(TypeId::kI64, rowid_buf_.data(), k);
    }
    pos_ = hi;
    if (count == 0) continue;  // fully deleted window; try the next one
    batch_.set_count(count);
    return &batch_;
  }
}

bool ScanIsNonDecreasing(ExecContext* ctx, const Table& table,
                         const std::string& col) {
  int ci = table.ColumnIndex(col);
  const TableSnapshot* snap =
      ctx->snapshots != nullptr ? ctx->snapshots->Find(table.name()) : nullptr;
  int64_t frag_rows =
      snap != nullptr ? snap->fragment_rows : table.fragment_rows();
  int64_t total_rows = snap != nullptr ? snap->total_rows : table.total_rows();
  // The fragment's answer is kept on its column; the delta region is
  // checked for this snapshot's rows, and must continue from the fragment.
  Column::Order frag = table.column(ci).OrderOf(frag_rows);
  if (!frag.non_decreasing) return false;
  if (total_rows == frag_rows) return true;
  if (ci >= table.num_delta_columns()) return false;
  Column::Order delta = table.delta_column(ci).OrderOf(total_rows - frag_rows);
  return delta.non_decreasing && (frag_rows == 0 || delta.first >= frag.last);
}

}  // namespace x100

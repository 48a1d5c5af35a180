#include "storage/snapshot.h"

#include <algorithm>
#include <utility>

namespace x100 {

MvccTable::MvccTable(Table* table, int64_t reserve_delta_rows)
    : table_(table),
      num_specs_(static_cast<int>(table->specs().size())),
      delta_capacity_(std::max<int64_t>(reserve_delta_rows, 1024)) {
  X100_CHECK(table_->frozen());
  // Every column past the declared specs must be a join index; Append
  // refuses to run until each has a registration.
  for (int c = num_specs_; c < table_->num_columns(); c++) {
    X100_CHECK(table_->schema().field(c).name.rfind("#ji_", 0) == 0);
  }
  table_->EnsureDeltaStorage();
  delta_capacity_ = std::max(delta_capacity_, table_->delta_rows() * 2);
  ReserveDeltas();
  std::lock_guard<std::mutex> lk(state_mu_);
  PublishLocked();
}

void MvccTable::RegisterJoinIndex(std::vector<std::string> fk_cols,
                                  const Table* target,
                                  std::vector<std::string> key_cols,
                                  std::string target_name) {
  std::lock_guard<std::mutex> lk(write_mu_);
  JiSpec spec;
  for (const std::string& c : fk_cols) spec.fk_idx.push_back(table_->ColumnIndex(c));
  for (const std::string& c : key_cols) {
    int i = target->schema().Find(c);
    X100_CHECK(i >= 0);
    spec.key_idx.push_back(i);
  }
  spec.target = target;
  spec.target_name = std::move(target_name);
  spec.self_col = table_->ColumnIndex(Table::JoinIndexName(spec.target_name));
  ji_.push_back(std::move(spec));
}

void MvccTable::ReserveDeltas() {
  for (int i = 0; i < table_->num_delta_columns(); i++) {
    table_->mutable_delta_column(i)->Reserve(delta_capacity_);
  }
}

void MvccTable::PublishLocked() {
  auto snap = std::make_shared<TableSnapshot>();
  snap->epoch = ++epoch_;
  snap->fragment_rows = table_->fragment_rows();
  snap->fragment_version = table_->fragment_version();
  snap->total_rows = table_->total_rows();
  if (current_ != nullptr && current_->fragment_rows == snap->fragment_rows &&
      table_->num_deleted() ==
          static_cast<int64_t>(current_->deleted->size())) {
    snap->deleted = current_->deleted;  // unchanged list: share the copy
  } else {
    snap->deleted =
        std::make_shared<const std::vector<int64_t>>(table_->deletion_list());
  }
  current_ = std::move(snap);
}

std::shared_ptr<const TableSnapshot> MvccTable::Pin() {
  std::unique_lock<std::mutex> lk(state_mu_);
  cv_fence_.wait(lk, [&] { return !fence_; });
  pins_++;
  std::shared_ptr<const TableSnapshot> snap = current_;
  // The returned pointer aliases the snapshot but its deleter releases the
  // pin; the inner shared_ptr keeps the snapshot alive until then.
  return std::shared_ptr<const TableSnapshot>(
      snap.get(), [this, keep = snap](const TableSnapshot*) mutable {
        keep.reset();
        std::lock_guard<std::mutex> lk2(state_mu_);
        if (--pins_ == 0) cv_pins_.notify_all();
      });
}

template <typename Fn>
void MvccTable::FenceAndRun(Fn fn) {
  std::unique_lock<std::mutex> lk(state_mu_);
  fence_ = true;
  cv_pins_.wait(lk, [&] { return pins_ == 0; });
  fn();
  PublishLocked();
  fence_ = false;
  lk.unlock();
  cv_fence_.notify_all();
}

Status MvccTable::JiLookup(JiSpec* spec, const std::vector<Value>& row,
                           int64_t* out) {
  const Table& target = *spec->target;
  if (spec->cached_version != target.fragment_version()) {
    spec->key_to_row.clear();
    spec->scanned_rows = 0;
    spec->cached_version = target.fragment_version();
  }
  auto composite_row = [&]() {
    uint64_t h = static_cast<uint64_t>(row[spec->fk_idx[0]].AsI64());
    for (size_t c = 1; c < spec->fk_idx.size(); c++) {
      h = (h << 32) ^ static_cast<uint64_t>(row[spec->fk_idx[c]].AsI64());
    }
    return static_cast<int64_t>(h);
  };
  int64_t key = composite_row();
  auto it = spec->key_to_row.find(key);
  if (it == spec->key_to_row.end() && spec->scanned_rows < target.total_rows()) {
    // Catch up on target rows appended since the last build.
    for (int64_t r = spec->scanned_rows; r < target.total_rows(); r++) {
      if (target.IsDeleted(r)) continue;
      uint64_t h = static_cast<uint64_t>(target.GetValue(r, spec->key_idx[0]).AsI64());
      for (size_t c = 1; c < spec->key_idx.size(); c++) {
        h = (h << 32) ^
            static_cast<uint64_t>(target.GetValue(r, spec->key_idx[c]).AsI64());
      }
      spec->key_to_row[static_cast<int64_t>(h)] = r;
    }
    spec->scanned_rows = target.total_rows();
    it = spec->key_to_row.find(key);
  }
  if (it == spec->key_to_row.end()) {
    return Status::Error("append: dangling foreign key into " +
                         spec->target_name);
  }
  *out = it->second;
  return Status::OK();
}

Status MvccTable::Append(const std::vector<Value>& row) {
  std::lock_guard<std::mutex> lk(write_mu_);
  if (static_cast<int>(row.size()) != num_specs_) {
    return Status::Error("append: expected " + std::to_string(num_specs_) +
                         " values, got " + std::to_string(row.size()));
  }
  if (table_->num_columns() - num_specs_ != static_cast<int>(ji_.size())) {
    return Status::Error(
        "append: table has join-index columns without a registered spec");
  }
  // Validate types up front: a bad value must produce an error, not an
  // engine abort inside AppendValue.
  bool novel_enum = false;
  for (int c = 0; c < num_specs_; c++) {
    const Table::ColumnSpec& s = table_->specs()[c];
    const Value& v = row[c];
    if (s.type == TypeId::kStr) {
      if (v.type() != TypeId::kStr) {
        return Status::Error("append: column " + s.name + " expects a string");
      }
    } else if (s.type == TypeId::kF64) {
      if (v.type() == TypeId::kStr) {
        return Status::Error("append: column " + s.name + " expects a number");
      }
    } else if (!IsIntegral(v.type())) {
      return Status::Error("append: column " + s.name + " expects an integer");
    }
    const Column& frag = table_->column(c);
    if (frag.is_enum() && frag.dict()->Lookup(v) < 0) {
      if (frag.dict()->size() >= 65536) {
        return Status::Error("append: enum dictionary for " + s.name +
                             " exceeds 65536 distinct values");
      }
      novel_enum = true;
    }
  }

  // Join-index values for the new row (reads target tables; the store-wide
  // write mutex keeps them stable).
  std::vector<Value> full = row;
  for (JiSpec& spec : ji_) {
    int64_t target_row = 0;
    Status s = JiLookup(&spec, row, &target_row);
    if (!s.ok()) return s;
    full.push_back(Value::I64(target_row));
  }

  bool need_capacity = table_->delta_rows() + 1 > delta_capacity_;
  if (!novel_enum && !need_capacity) {
    // Fast path: write beyond the published high-water mark, then publish.
    // Pinned readers never look past their snapshot's total_rows, and the
    // pre-reserved buffers keep their raw pointers stable.
    table_->Insert(full);
    std::lock_guard<std::mutex> st(state_mu_);
    PublishLocked();
    return Status::OK();
  }

  // Structural slow path: dictionary inserts (decode-base reallocation,
  // lookup-map mutation racing predicate rewrites) and capacity growth need
  // exclusive access.
  FenceAndRun([&] {
    if (need_capacity) {
      delta_capacity_ *= 2;
      ReserveDeltas();
    }
    for (int c = 0; c < num_specs_; c++) {
      const Column& frag = table_->column(c);
      if (frag.is_enum() && frag.storage_type() == TypeId::kU8 &&
          frag.dict()->size() >= 256 && frag.dict()->Lookup(row[c]) < 0) {
        table_->WidenEnumCodes(c);
      }
    }
    table_->Insert(full);
  });
  return Status::OK();
}

Status MvccTable::Delete(int64_t rowid) {
  std::lock_guard<std::mutex> lk(write_mu_);
  if (rowid < 0 || rowid >= table_->total_rows()) {
    return Status::Error("delete: rowid out of range");
  }
  std::vector<int64_t> next = table_->deletion_list();
  auto it = std::lower_bound(next.begin(), next.end(), rowid);
  if (it != next.end() && *it == rowid) {
    return Status::Error("delete: row already deleted");
  }
  next.insert(it, rowid);
  // Mirror into the Table (checkpoints serialize it from there); publish a
  // fresh copy-on-write list for new pins. Old pins keep the old vector.
  table_->RestoreDeletionList(next);
  std::lock_guard<std::mutex> st(state_mu_);
  PublishLocked();
  return Status::OK();
}

Status MvccTable::Merge() {
  std::lock_guard<std::mutex> lk(write_mu_);
  if (table_->delta_rows() == 0 && table_->num_deleted() == 0) {
    return Status::OK();
  }
  // Stage the fold off-fence: queries keep running against the old
  // fragments while we build the new ones.
  Table::Merged merged = table_->BuildMerged();
  std::vector<std::pair<std::string, std::unique_ptr<Column>>> extra;
  for (int c = num_specs_; c < table_->num_columns(); c++) {
    auto col = std::make_unique<Column>(TypeId::kI64, false);
    int64_t total = table_->total_rows();
    for (int64_t r = 0; r < total; r++) {
      if (table_->IsDeleted(r)) continue;
      // This table's own #ji_ values survive unchanged: targets keep their
      // rowids (only merges of the TARGET invalidate them, and DurableStore
      // never merges a table that has dependents in the background).
      col->AppendI64(table_->GetValue(r, c).AsI64());
    }
    extra.emplace_back(table_->schema().field(c).name, std::move(col));
  }
  FenceAndRun([&] {
    table_->InstallMerged(std::move(merged), std::move(extra));
    table_->EnsureDeltaStorage();
    ReserveDeltas();
  });
  return Status::OK();
}

int64_t MvccTable::delta_rows() const {
  // Reads the published snapshot, not the live column: callers (the
  // background merge thread) poll this concurrently with writers.
  std::lock_guard<std::mutex> lk(state_mu_);
  return current_->total_rows - current_->fragment_rows;
}

int64_t MvccTable::delta_capacity() const {
  std::lock_guard<std::mutex> lk(write_mu_);
  return delta_capacity_;
}

uint64_t MvccTable::epoch() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return epoch_;
}

}  // namespace x100

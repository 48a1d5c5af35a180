#include "exec/sort.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "exec/join_internal.h"
#include "exec/row_util.h"

namespace x100 {

namespace {

using join_internal::DrainedStore;
using join_internal::GatherByRow;

Schema DecodedSchema(const Schema& child) {
  Schema s;
  for (const Field& f : child.fields()) {
    s.Add(f.name, f.logical_type());
  }
  return s;
}

/// Child column of sort key `k`; throws when there is none.
int SortKeyColumn(const Schema& child, const OrdKey& k) {
  int ci = child.Find(k.name);
  if (ci < 0) {
    throw std::invalid_argument("no sort key column '" + k.name + "' in " +
                                child.ToString());
  }
  return ci;
}

/// Columnar sort state: the child Dataflow is drained into a column store
/// (physical values, dictionaries kept), an index vector is sorted with
/// typed comparators, and output batches are gathered — no per-row boxing.
class ColumnarSort {
 public:
  ColumnarSort(ExecContext* ctx, Operator* child, const Schema& out_schema,
               const std::vector<OrdKey>& keys)
      : ctx_(ctx), out_schema_(out_schema) {
    std::vector<std::string> cols;
    for (const Field& f : child->schema().fields()) cols.push_back(f.name);
    store_.Init(child->schema(), cols);
    for (const OrdKey& k : keys) {
      key_cols_.push_back(SortKeyColumn(child->schema(), k));
      desc_.push_back(k.desc);
    }
  }

  void Drain(Operator* child) {
    while (VectorBatch* b = child->Next()) store_.Append(b);
  }

  int64_t rows() const { return static_cast<int64_t>(store_.rows); }

  /// Three-way compare of rows a, b on key column `k` (logical values;
  /// dictionary columns decode through their base).
  int CompareKey(size_t k, int64_t a, int64_t b) const {
    int ci = key_cols_[k];
    const Field& f = store_.schema.field(ci);
    const char* data = store_.ColData(ci);
    size_t w = store_.widths[ci];
    auto load_i64 = [&](int64_t r) -> int64_t {
      const char* p = data + static_cast<size_t>(r) * w;
      switch (f.type) {
        case TypeId::kI8:   return *reinterpret_cast<const int8_t*>(p);
        case TypeId::kU8:   return *reinterpret_cast<const uint8_t*>(p);
        case TypeId::kI16:  return *reinterpret_cast<const int16_t*>(p);
        case TypeId::kU16:  return *reinterpret_cast<const uint16_t*>(p);
        case TypeId::kI32:
        case TypeId::kDate: return *reinterpret_cast<const int32_t*>(p);
        default:            return *reinterpret_cast<const int64_t*>(p);
      }
    };
    if (f.dict.valid()) {
      int ca = static_cast<int>(load_i64(a));
      int cb = static_cast<int>(load_i64(b));
      if (ca == cb) return 0;  // same code, same value
      if (f.dict.value_type == TypeId::kStr) {
        const char* const* base = static_cast<const char* const*>(f.dict.base);
        int c = std::strcmp(base[ca], base[cb]);
        return c < 0 ? -1 : c > 0 ? 1 : 0;
      }
      double va, vb;
      switch (f.dict.value_type) {
        case TypeId::kF64:
          va = static_cast<const double*>(f.dict.base)[ca];
          vb = static_cast<const double*>(f.dict.base)[cb];
          break;
        default:
          va = static_cast<const int32_t*>(f.dict.base)[ca];
          vb = static_cast<const int32_t*>(f.dict.base)[cb];
      }
      return va < vb ? -1 : va > vb ? 1 : 0;
    }
    switch (f.type) {
      case TypeId::kF64: {
        double va = reinterpret_cast<const double*>(data)[a];
        double vb = reinterpret_cast<const double*>(data)[b];
        return va < vb ? -1 : va > vb ? 1 : 0;
      }
      case TypeId::kStr: {
        const char* sa = reinterpret_cast<const char* const*>(data)[a];
        const char* sb = reinterpret_cast<const char* const*>(data)[b];
        int c = std::strcmp(sa, sb);
        return c < 0 ? -1 : c > 0 ? 1 : 0;
      }
      default: {
        int64_t va = load_i64(a), vb = load_i64(b);
        return va < vb ? -1 : va > vb ? 1 : 0;
      }
    }
  }

  bool RowLess(int64_t a, int64_t b) const {
    for (size_t k = 0; k < key_cols_.size(); k++) {
      int c = CompareKey(k, a, b);
      if (c != 0) return desc_[k] ? c > 0 : c < 0;
    }
    return false;
  }

  void SortAll() {
    order_.resize(store_.rows);
    for (size_t i = 0; i < store_.rows; i++) order_[i] = static_cast<int64_t>(i);
    std::stable_sort(order_.begin(), order_.end(),
                     [this](int64_t a, int64_t b) { return RowLess(a, b); });
  }

  /// Keeps only the first `limit` rows in sort order (bounded heap).
  void SortTop(int64_t limit) {
    order_.clear();
    auto worse = [this](int64_t a, int64_t b) { return RowLess(a, b); };
    for (size_t r = 0; r < store_.rows; r++) {
      int64_t row = static_cast<int64_t>(r);
      if (static_cast<int64_t>(order_.size()) < limit) {
        order_.push_back(row);
        std::push_heap(order_.begin(), order_.end(), worse);
      } else if (limit > 0 && RowLess(row, order_.front())) {
        std::pop_heap(order_.begin(), order_.end(), worse);
        order_.back() = row;
        std::push_heap(order_.begin(), order_.end(), worse);
      }
    }
    std::sort_heap(order_.begin(), order_.end(), worse);
  }

  void PrepareEmit() {
    out_ = VectorBatch(out_schema_, ctx_->vector_size);
    emit_pos_ = 0;
  }

  /// Emits the next batch of decoded rows in sorted order.
  VectorBatch* Emit() {
    if (emit_pos_ >= order_.size()) return nullptr;
    int n = static_cast<int>(std::min<size_t>(
        ctx_->vector_size, order_.size() - emit_pos_));
    const int64_t* rows = order_.data() + emit_pos_;
    for (int c = 0; c < out_schema_.num_fields(); c++) {
      const Field& f = store_.schema.field(c);
      void* dst = out_.column(c).data();
      if (!f.dict.valid()) {
        GatherByRow(dst, store_.ColData(c), store_.widths[c], rows, n,
                    f.type == TypeId::kStr, "");
      } else {
        // Decode through the dictionary while gathering.
        const char* codes = store_.ColData(c);
        for (int i = 0; i < n; i++) {
          int code = f.type == TypeId::kU8
                         ? reinterpret_cast<const uint8_t*>(codes)[rows[i]]
                         : reinterpret_cast<const uint16_t*>(codes)[rows[i]];
          switch (f.dict.value_type) {
            case TypeId::kStr:
              static_cast<const char**>(dst)[i] =
                  static_cast<const char* const*>(f.dict.base)[code];
              break;
            case TypeId::kF64:
              static_cast<double*>(dst)[i] =
                  static_cast<const double*>(f.dict.base)[code];
              break;
            default:
              static_cast<int32_t*>(dst)[i] =
                  static_cast<const int32_t*>(f.dict.base)[code];
          }
        }
      }
    }
    out_.set_count(n);
    out_.ClearSel();
    emit_pos_ += static_cast<size_t>(n);
    return &out_;
  }

 private:
  ExecContext* ctx_;
  Schema out_schema_;
  DrainedStore store_;
  std::vector<int> key_cols_;
  std::vector<bool> desc_;
  std::vector<int64_t> order_;
  VectorBatch out_;
  size_t emit_pos_ = 0;
};

}  // namespace

// ---- OrderOp ----------------------------------------------------------------

struct OrderOp::Impl {
  std::unique_ptr<ColumnarSort> sort;
  bool built = false;
};

OrderOp::OrderOp(ExecContext* ctx, std::unique_ptr<Operator> child,
                 std::vector<OrdKey> keys)
    : ctx_(ctx), child_(std::move(child)), keys_(std::move(keys)) {
  schema_ = DecodedSchema(child_->schema());
  for (const OrdKey& k : keys_) SortKeyColumn(child_->schema(), k);
}

OrderOp::~OrderOp() = default;

void OrderOp::Open() {
  child_->Open();
  impl_ = std::make_unique<Impl>();
  // Refresh logical types (dictionaries resolved in the child's Open).
  schema_ = DecodedSchema(child_->schema());
  impl_->sort = std::make_unique<ColumnarSort>(ctx_, child_.get(), schema_, keys_);
}

VectorBatch* OrderOp::Next() {
  Impl& im = *impl_;
  if (!im.built) {
    im.sort->Drain(child_.get());
    im.sort->SortAll();
    im.sort->PrepareEmit();
    im.built = true;
  }
  return im.sort->Emit();
}

// ---- TopNOp -----------------------------------------------------------------

struct TopNOp::Impl {
  std::unique_ptr<ColumnarSort> sort;
  bool built = false;
};

TopNOp::TopNOp(ExecContext* ctx, std::unique_ptr<Operator> child,
               std::vector<OrdKey> keys, int64_t n)
    : ctx_(ctx), child_(std::move(child)), keys_(std::move(keys)), limit_(n) {
  schema_ = DecodedSchema(child_->schema());
  for (const OrdKey& k : keys_) SortKeyColumn(child_->schema(), k);
}

TopNOp::~TopNOp() = default;

void TopNOp::Open() {
  child_->Open();
  impl_ = std::make_unique<Impl>();
  schema_ = DecodedSchema(child_->schema());
  impl_->sort = std::make_unique<ColumnarSort>(ctx_, child_.get(), schema_, keys_);
}

VectorBatch* TopNOp::Next() {
  Impl& im = *impl_;
  if (!im.built) {
    im.sort->Drain(child_.get());
    im.sort->SortTop(limit_);
    im.sort->PrepareEmit();
    im.built = true;
  }
  return im.sort->Emit();
}

}  // namespace x100

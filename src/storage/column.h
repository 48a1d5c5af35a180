#ifndef X100_STORAGE_COLUMN_H_
#define X100_STORAGE_COLUMN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/string_heap.h"
#include "common/types.h"
#include "common/value.h"
#include "storage/buffer.h"

namespace x100 {

/// Dictionary behind an enumeration-typed column (§4.3): the distinct logical
/// values in code order. The decode path is a Fetch1Join on the code column
/// with this array as fetch base.
class Dictionary {
 public:
  explicit Dictionary(TypeId value_type) : value_type_(value_type) {}

  TypeId value_type() const { return value_type_; }
  int size() const { return size_; }

  /// Base pointer for map_fetch primitives: a `double*`, `int32_t*`, ...
  /// or `const char**` array of `size()` logical values.
  const void* base() const { return values_.data(); }

  /// Code for `v`, inserting if new.
  int CodeOf(const Value& v);
  /// Code for `v` if present, else -1 (predicate rewrite uses this).
  int Lookup(const Value& v) const;

  Value ValueAt(int code) const;

 private:
  TypeId value_type_;
  Buffer values_;
  StringHeap heap_;                    // owns string dictionary entries
  std::map<std::string, int> str_lookup_;
  std::map<int64_t, int> int_lookup_;  // f64 keys stored via bit pattern
  int size_ = 0;
};

/// A vertical fragment: one column of a Table, stored contiguously so a Scan
/// can hand out zero-copy vector views. Optionally enumeration-compressed:
/// physical storage is then u8/u16 codes plus a Dictionary (promotion from u8
/// to u16 happens automatically when the 257th distinct value arrives).
class Column {
 public:
  /// `enum_encoded` requests dictionary compression; only sensible for
  /// low-cardinality columns (the generator decides, mirroring the paper's
  /// "using enumeration types where possible").
  explicit Column(TypeId type, bool enum_encoded = false);

  /// Delta column sharing the fragment column's dictionary (and code width),
  /// so fragment and delta vectors decode through the same fetch base.
  Column(TypeId type, Dictionary* shared_dict, TypeId code_type);

  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  TypeId type() const { return type_; }             // logical
  TypeId storage_type() const { return storage_; }  // physical (codes if enum)
  bool is_enum() const { return dict_ != nullptr; }
  const Dictionary* dict() const { return dict_; }
  Dictionary* mutable_dict() { return dict_; }

  int64_t size() const { return rows_; }
  size_t bytes() const { return data_.size_bytes(); }

  /// Physical data: logical values, or codes when is_enum().
  const void* raw() const { return data_.data(); }
  void* mutable_raw() { return data_.data(); }

  /// Pre-reserves physical storage for `rows` values so the data pointer
  /// stays stable while rows up to that count are appended (delta columns
  /// under MVCC: readers hold raw() across concurrent appends below the
  /// reserved capacity).
  void Reserve(int64_t rows) {
    data_.Reserve(static_cast<size_t>(rows) * TypeWidth(storage_));
  }

  // -- appends (logical values) --
  void AppendI64(int64_t v);   // all integral logical types incl. dates
  void AppendF64(double v);
  void AppendStr(std::string_view v);
  void AppendValue(const Value& v);

  /// Bulk-appends `n` physical values (plain fixed-width columns only;
  /// the vectorized load path of Materialize).
  void AppendRaw(const void* data, int64_t n) {
    X100_CHECK(dict_ == nullptr && type_ != TypeId::kStr);
    data_.Append(data, static_cast<size_t>(n) * TypeWidth(storage_));
    rows_ += n;
  }

  /// Appends the `n` physical values data[sel[0]], ..., data[sel[n - 1]]
  /// (plain fixed-width columns only): one resize, then a typed copy per
  /// value, for Materialize's selected rows.
  void AppendGather(const void* data, const int* sel, int64_t n);

  // -- logical point reads (delta merge, row engines, result checking) --
  int64_t GetI64(int64_t row) const;
  double GetF64(int64_t row) const;
  const char* GetStr(int64_t row) const;
  Value GetValue(int64_t row) const;

  /// Code at `row`; column must be enum-encoded.
  int64_t CodeAt(int64_t row) const;

  /// Sortedness of values [0, n) of a plain integer or date column: whether
  /// they are non-decreasing, and the first and last value. Enum, float and
  /// string columns report false. Appends never change a prefix, so the
  /// answer for the last n asked is kept, under a lock for concurrent
  /// sessions: a frozen fragment column is scanned once however many plans
  /// ask.
  struct Order {
    bool non_decreasing = false;
    int64_t first = 0, last = 0;
  };
  Order OrderOf(int64_t n) const;

  /// Widens u8 codes to u16 in place (no-op if already u16). Shared-dict
  /// delta columns normally keep a fixed code width; MVCC writers call this
  /// on fragment AND delta column together, behind a reader fence, when the
  /// shared dictionary outgrows 256 entries.
  void WidenCodesToU16();

  /// Serialization support (storage/serialize.cc): replaces this column's
  /// physical buffer with `rows` values of physical type `storage` (codes
  /// for enum columns — the dictionary must already be seeded in code
  /// order). Not for general use.
  void RestoreRaw(TypeId storage, const void* data, int64_t rows);

 private:
  void AppendCode(int code);

  TypeId type_;
  TypeId storage_ = TypeId::kI64;
  Buffer data_;
  StringHeap heap_;  // owns bytes of non-enum string columns
  std::unique_ptr<Dictionary> owned_dict_;
  Dictionary* dict_ = nullptr;  // owned_dict_.get() or a shared fragment dict
  bool allow_promote_ = true;   // shared-dict columns keep a fixed code width
  int64_t rows_ = 0;

  struct OrderMemo {
    std::mutex mu;
    int64_t rows = -1;  // the n of `order`; -1 while none is kept
    Order order;
  };
  std::unique_ptr<OrderMemo> order_memo_ = std::make_unique<OrderMemo>();
};

}  // namespace x100

#endif  // X100_STORAGE_COLUMN_H_

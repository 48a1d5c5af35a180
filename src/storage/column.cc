#include "storage/column.h"

#include <cstring>

namespace x100 {

namespace {

int64_t F64Key(double d) {
  if (d == 0.0) d = 0.0;  // normalize -0.0
  int64_t k;
  std::memcpy(&k, &d, sizeof(k));
  return k;
}

template <typename T>
void Gather(void* dst, const void* src, const int* sel, int64_t n) {
  T* __restrict__ d = static_cast<T*>(dst);
  const T* __restrict__ s = static_cast<const T*>(src);
  for (int64_t j = 0; j < n; j++) d[j] = s[sel[j]];
}

template <typename T>
Column::Order OrderOfValues(const void* raw, int64_t n) {
  const T* v = static_cast<const T*>(raw);
  if (n == 0) return {true, 0, 0};
  bool ok = true;
  for (int64_t i = 1; i < n; i++) ok &= !(v[i] < v[i - 1]);
  return {ok, static_cast<int64_t>(v[0]), static_cast<int64_t>(v[n - 1])};
}

}  // namespace

// ---- Dictionary -------------------------------------------------------------

int Dictionary::CodeOf(const Value& v) {
  int found = Lookup(v);
  if (found >= 0) return found;
  int code = size_++;
  switch (value_type_) {
    case TypeId::kStr: {
      const char* p = heap_.Add(v.AsStr());
      values_.PushBack(p);
      str_lookup_[v.AsStr()] = code;
      break;
    }
    case TypeId::kF64: {
      values_.PushBack(v.AsF64());
      int_lookup_[F64Key(v.AsF64())] = code;
      break;
    }
    case TypeId::kI32:
    case TypeId::kDate: {
      values_.PushBack(static_cast<int32_t>(v.AsI64()));
      int_lookup_[v.AsI64()] = code;
      break;
    }
    case TypeId::kI64: {
      values_.PushBack(v.AsI64());
      int_lookup_[v.AsI64()] = code;
      break;
    }
    default:
      X100_CHECK(false);
  }
  return code;
}

int Dictionary::Lookup(const Value& v) const {
  if (value_type_ == TypeId::kStr) {
    auto it = str_lookup_.find(v.AsStr());
    return it == str_lookup_.end() ? -1 : it->second;
  }
  int64_t key = value_type_ == TypeId::kF64 ? F64Key(v.AsF64()) : v.AsI64();
  auto it = int_lookup_.find(key);
  return it == int_lookup_.end() ? -1 : it->second;
}

Value Dictionary::ValueAt(int code) const {
  X100_CHECK(code >= 0 && code < size_);
  switch (value_type_) {
    case TypeId::kStr:  return Value::Str(values_.At<const char*>(code));
    case TypeId::kF64:  return Value::F64(values_.At<double>(code));
    case TypeId::kI32:  return Value::I32(values_.At<int32_t>(code));
    case TypeId::kDate: return Value::Date(values_.At<int32_t>(code));
    case TypeId::kI64:  return Value::I64(values_.At<int64_t>(code));
    default:
      X100_CHECK(false);
  }
  return Value();
}

// ---- Column -----------------------------------------------------------------

Column::Column(TypeId type, bool enum_encoded) : type_(type) {
  if (enum_encoded) {
    owned_dict_ = std::make_unique<Dictionary>(type);
    dict_ = owned_dict_.get();
    storage_ = TypeId::kU8;
  } else {
    storage_ = type;
  }
}

Column::Column(TypeId type, Dictionary* shared_dict, TypeId code_type)
    : type_(type), storage_(code_type), dict_(shared_dict), allow_promote_(false) {
  X100_CHECK(code_type == TypeId::kU8 || code_type == TypeId::kU16);
}

void Column::AppendCode(int code) {
  X100_CHECK(code >= 0 && code < 65536);
  if (storage_ == TypeId::kU8 && code > 255) {
    // A shared-dict (delta) column cannot change code width behind the
    // fragment's back; the table needs a Reorganize() first.
    X100_CHECK(allow_promote_);
    // Promote codes u8 -> u16 in place.
    Buffer wide;
    wide.Reserve(rows_ * 2);
    for (int64_t i = 0; i < rows_; i++) {
      wide.PushBack(static_cast<uint16_t>(data_.At<uint8_t>(i)));
    }
    data_ = std::move(wide);
    storage_ = TypeId::kU16;
  }
  if (storage_ == TypeId::kU8) {
    data_.PushBack(static_cast<uint8_t>(code));
  } else {
    data_.PushBack(static_cast<uint16_t>(code));
  }
  rows_++;
}

void Column::WidenCodesToU16() {
  X100_CHECK(dict_ != nullptr);
  if (storage_ == TypeId::kU16) return;
  Buffer wide;
  wide.Reserve(static_cast<size_t>(rows_) * 2);
  for (int64_t i = 0; i < rows_; i++) {
    wide.PushBack(static_cast<uint16_t>(data_.At<uint8_t>(i)));
  }
  data_ = std::move(wide);
  storage_ = TypeId::kU16;
}

void Column::AppendI64(int64_t v) {
  if (dict_) {
    AppendCode(dict_->CodeOf(type_ == TypeId::kI64 ? Value::I64(v)
                                                   : Value::I32(static_cast<int32_t>(v))));
    return;
  }
  switch (type_) {
    case TypeId::kI8:   data_.PushBack(static_cast<int8_t>(v)); break;
    case TypeId::kU8:   data_.PushBack(static_cast<uint8_t>(v)); break;
    case TypeId::kI16:  data_.PushBack(static_cast<int16_t>(v)); break;
    case TypeId::kU16:  data_.PushBack(static_cast<uint16_t>(v)); break;
    case TypeId::kI32:
    case TypeId::kDate: data_.PushBack(static_cast<int32_t>(v)); break;
    case TypeId::kI64:  data_.PushBack(v); break;
    case TypeId::kF64:  data_.PushBack(static_cast<double>(v)); break;
    default:
      X100_CHECK(false);
  }
  rows_++;
}

void Column::AppendGather(const void* data, const int* sel, int64_t n) {
  X100_CHECK(dict_ == nullptr && type_ != TypeId::kStr);
  size_t w = TypeWidth(storage_);
  size_t old = data_.size_bytes();
  data_.Resize(old + static_cast<size_t>(n) * w);
  void* dst = static_cast<char*>(data_.data()) + old;
  switch (w) {
    case 1: Gather<uint8_t>(dst, data, sel, n); break;
    case 2: Gather<uint16_t>(dst, data, sel, n); break;
    case 4: Gather<uint32_t>(dst, data, sel, n); break;
    default:
      X100_CHECK(w == 8);
      Gather<uint64_t>(dst, data, sel, n);
  }
  rows_ += n;
}

Column::Order Column::OrderOf(int64_t n) const {
  if (dict_ != nullptr) return {};
  {
    std::lock_guard<std::mutex> lock(order_memo_->mu);
    if (order_memo_->rows == n) return order_memo_->order;
  }
  Order o;
  switch (storage_) {
    case TypeId::kI8:  o = OrderOfValues<int8_t>(raw(), n); break;
    case TypeId::kU8:  o = OrderOfValues<uint8_t>(raw(), n); break;
    case TypeId::kI16: o = OrderOfValues<int16_t>(raw(), n); break;
    case TypeId::kU16: o = OrderOfValues<uint16_t>(raw(), n); break;
    case TypeId::kI32:
    case TypeId::kDate: o = OrderOfValues<int32_t>(raw(), n); break;
    case TypeId::kI64: o = OrderOfValues<int64_t>(raw(), n); break;
    default: return {};
  }
  std::lock_guard<std::mutex> lock(order_memo_->mu);
  order_memo_->rows = n;
  order_memo_->order = o;
  return o;
}

void Column::AppendF64(double v) {
  if (dict_) {
    AppendCode(dict_->CodeOf(Value::F64(v)));
    return;
  }
  X100_CHECK(type_ == TypeId::kF64);
  data_.PushBack(v);
  rows_++;
}

void Column::AppendStr(std::string_view v) {
  X100_CHECK(type_ == TypeId::kStr);
  if (dict_) {
    AppendCode(dict_->CodeOf(Value::Str(std::string(v))));
    return;
  }
  data_.PushBack(heap_.Add(v));
  rows_++;
}

void Column::AppendValue(const Value& v) {
  switch (type_) {
    case TypeId::kF64:
      AppendF64(v.AsF64());
      break;
    case TypeId::kStr:
      AppendStr(v.AsStr());
      break;
    default:
      AppendI64(v.AsI64());
  }
}

void Column::RestoreRaw(TypeId storage, const void* data, int64_t rows) {
  X100_CHECK(rows_ == 0 && (dict_ != nullptr || type_ != TypeId::kStr));
  if (dict_) {
    X100_CHECK(storage == TypeId::kU8 || storage == TypeId::kU16);
  } else {
    X100_CHECK(storage == storage_);
  }
  storage_ = storage;
  data_.Append(data, static_cast<size_t>(rows) * TypeWidth(storage));
  rows_ = rows;
}

int64_t Column::CodeAt(int64_t row) const {
  X100_CHECK(dict_ != nullptr);
  return storage_ == TypeId::kU8 ? data_.At<uint8_t>(row) : data_.At<uint16_t>(row);
}

int64_t Column::GetI64(int64_t row) const {
  if (dict_) return dict_->ValueAt(static_cast<int>(CodeAt(row))).AsI64();
  switch (storage_) {
    case TypeId::kI8:   return data_.At<int8_t>(row);
    case TypeId::kU8:   return data_.At<uint8_t>(row);
    case TypeId::kI16:  return data_.At<int16_t>(row);
    case TypeId::kU16:  return data_.At<uint16_t>(row);
    case TypeId::kI32:
    case TypeId::kDate: return data_.At<int32_t>(row);
    case TypeId::kI64:  return data_.At<int64_t>(row);
    default:
      X100_CHECK(false);
  }
  return 0;
}

double Column::GetF64(int64_t row) const {
  if (dict_) return dict_->ValueAt(static_cast<int>(CodeAt(row))).AsF64();
  if (storage_ == TypeId::kF64) return data_.At<double>(row);
  return static_cast<double>(GetI64(row));
}

const char* Column::GetStr(int64_t row) const {
  X100_CHECK(type_ == TypeId::kStr);
  if (dict_) {
    return static_cast<const char* const*>(dict_->base())[CodeAt(row)];
  }
  return data_.At<const char*>(row);
}

Value Column::GetValue(int64_t row) const {
  switch (type_) {
    case TypeId::kF64:  return Value::F64(GetF64(row));
    case TypeId::kStr:  return Value::Str(GetStr(row));
    case TypeId::kDate: return Value::Date(static_cast<int32_t>(GetI64(row)));
    case TypeId::kI8:   return Value::I8(static_cast<int8_t>(GetI64(row)));
    case TypeId::kU8:   return Value::U8(static_cast<uint8_t>(GetI64(row)));
    case TypeId::kI16:  return Value::I16(static_cast<int16_t>(GetI64(row)));
    case TypeId::kU16:  return Value::U16(static_cast<uint16_t>(GetI64(row)));
    case TypeId::kI32:  return Value::I32(static_cast<int32_t>(GetI64(row)));
    default:            return Value::I64(GetI64(row));
  }
}

}  // namespace x100

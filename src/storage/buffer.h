#ifndef X100_STORAGE_BUFFER_H_
#define X100_STORAGE_BUFFER_H_

#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/status.h"

namespace x100 {

/// Growable 64-byte-aligned byte buffer backing vertical fragments; columns
/// hand out raw pointers into it for zero-copy vector views, so growth uses
/// doubling and pointers are only stable between appends (Tables freeze their
/// fragments before queries run, per the immutable-fragment design of §4.3).
class Buffer {
 public:
  Buffer() = default;

  Buffer(Buffer&&) = default;
  Buffer& operator=(Buffer&&) = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  void* data() { return data_.get(); }
  const void* data() const { return data_.get(); }
  size_t size_bytes() const { return size_; }

  void Reserve(size_t bytes) {
    if (bytes <= capacity_) return;
    size_t cap = capacity_ ? capacity_ : 4096;
    while (cap < bytes) cap *= 2;
    void* p = std::aligned_alloc(64, (cap + 63) & ~size_t{63});
    X100_CHECK(p != nullptr);
    if (size_) std::memcpy(p, data_.get(), size_);
    data_.reset(p);
    capacity_ = cap;
  }

  template <typename T>
  void PushBack(T v) {
    Reserve(size_ + sizeof(T));
    std::memcpy(static_cast<char*>(data_.get()) + size_, &v, sizeof(T));
    size_ += sizeof(T);
  }

  /// Appends `n` raw bytes.
  void Append(const void* src, size_t n) {
    Reserve(size_ + n);
    std::memcpy(static_cast<char*>(data_.get()) + size_, src, n);
    size_ += n;
  }

  template <typename T>
  T At(size_t i) const {
    return static_cast<const T*>(data())[i];
  }

  template <typename T>
  void Set(size_t i, T v) {
    static_cast<T*>(data())[i] = v;
  }

  /// Sets the size to `bytes`; bytes past the old size are uninitialized.
  void Resize(size_t bytes) {
    Reserve(bytes);
    size_ = bytes;
  }

  void Clear() { size_ = 0; }

 private:
  struct Free {
    void operator()(void* p) const { std::free(p); }
  };
  std::unique_ptr<void, Free> data_;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace x100

#endif  // X100_STORAGE_BUFFER_H_

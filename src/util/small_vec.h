// A small fixed-capacity-inline vector used for Delta-tree keys.
//
// Orderby lists in real JStar programs are short (the paper's examples use
// 1–4 levels), so keys almost never need heap storage; this keeps the
// millions-of-puts hot path (PvWatts §6.2 pushes 8.76M tuples) allocation
// free.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <cstring>
#include <initializer_list>

#include "util/check.h"

namespace jstar {

template <typename T, std::size_t InlineCap>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec only supports trivially copyable payloads");

 public:
  SmallVec() = default;

  SmallVec(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }

  SmallVec(const SmallVec& o) { copy_from(o); }

  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) {
      release();
      copy_from(o);
    }
    return *this;
  }

  SmallVec(SmallVec&& o) noexcept { move_from(std::move(o)); }

  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      release();
      move_from(std::move(o));
    }
    return *this;
  }

  ~SmallVec() { release(); }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    data()[size_++] = v;
  }

  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T* data() const { return heap_ ? heap_ : inline_; }
  T* data() { return heap_ ? heap_ : inline_; }

  const T& operator[](std::size_t i) const {
    JSTAR_DCHECK(i < size_);
    return data()[i];
  }
  T& operator[](std::size_t i) {
    JSTAR_DCHECK(i < size_);
    return data()[i];
  }

  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    if (a.size_ != b.size_) return false;
    return std::equal(a.begin(), a.end(), b.begin());
  }

  /// Lexicographic comparison; a strict prefix compares less.
  friend std::strong_ordering operator<=>(const SmallVec& a,
                                          const SmallVec& b) {
    const std::size_t n = std::min(a.size_, b.size_);
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] < b[i]) return std::strong_ordering::less;
      if (b[i] < a[i]) return std::strong_ordering::greater;
    }
    return a.size_ <=> b.size_;
  }

 private:
  void grow() {
    const std::size_t new_cap = cap_ * 2;
    T* nh = new T[new_cap];
    std::memcpy(nh, data(), size_ * sizeof(T));
    if (heap_) delete[] heap_;
    heap_ = nh;
    cap_ = new_cap;
  }

  void release() {
    delete[] heap_;
    heap_ = nullptr;
    cap_ = InlineCap;
    size_ = 0;
  }

  void copy_from(const SmallVec& o) {
    if (o.heap_) {
      heap_ = new T[o.cap_];
      cap_ = o.cap_;
      std::memcpy(heap_, o.heap_, o.size_ * sizeof(T));
    } else {
      std::memcpy(inline_, o.inline_, o.size_ * sizeof(T));
    }
    size_ = o.size_;
  }

  void move_from(SmallVec&& o) {
    if (o.heap_) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      o.heap_ = nullptr;
      o.cap_ = InlineCap;
    } else {
      std::memcpy(inline_, o.inline_, o.size_ * sizeof(T));
    }
    size_ = o.size_;
    o.size_ = 0;
  }

  T inline_[InlineCap];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = InlineCap;
};

/// FNV-1a style hash combiner for tuple field hashing (TableDecl::hash).
inline std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

template <typename... Args>
std::size_t hash_fields(const Args&... args) {
  std::size_t seed = 0xcbf29ce484222325ULL;
  ((seed = hash_combine(seed, std::hash<std::decay_t<Args>>{}(args))), ...);
  return seed;
}

/// The SplitMix64 finalizer: every input bit reaches every output bit.
/// hash_fields' low bits cluster for nearby field values (and
/// std::hash of an integer is the integer), so every table that masks a
/// hash to a power of two masks mix64(hash) instead.
inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace jstar

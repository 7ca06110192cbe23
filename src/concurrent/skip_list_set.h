// Concurrent ordered set — the ConcurrentSkipListSet stand-in used as the
// default parallel Gamma table structure (§5: "queries of any ordered
// subset of the tuples can be performed reasonably efficiently").
#pragma once

#include <cstddef>

#include "concurrent/skip_list_map.h"

namespace jstar::concurrent {

template <typename T, typename Compare = std::less<T>>
class SkipListSet {
 public:
  /// Inserts `v` if absent; returns true if inserted (set semantics — the
  /// Delta tree relies on this to discard duplicate tuples, footnote 5).
  bool insert(const T& v) { return map_.insert(v, Unit{}); }

  bool contains(const T& v) const { return map_.contains(v); }

  bool erase(const T& v) { return map_.erase(v); }

  /// EXCLUSIVE-PHASE ONLY (see SkipListMap::pop_min).
  bool pop_min(T& out) {
    Unit u;
    return map_.pop_min(out, u);
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each([&](const T& k, const Unit&) { fn(k); });
  }

  template <typename Fn>
  void for_range(const T& lo, const T& hi, Fn&& fn) const {
    map_.for_range(lo, hi, [&](const T& k, const Unit&) { fn(k); });
  }

  template <typename Fn>
  void for_each_from(const T& lo, Fn&& fn) const {
    map_.for_each_from(lo, [&](const T& k, const Unit&) { fn(k); });
  }

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void collect_garbage() { map_.collect_garbage(); }
  std::size_t retired() const { return map_.retired(); }

 private:
  struct Unit {};
  SkipListMap<T, Unit, Compare> map_;
};

}  // namespace jstar::concurrent

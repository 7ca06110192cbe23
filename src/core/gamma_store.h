// Gamma database storage (§5, §6.2): one pluggable store per table.
//
// The paper's defaults are TreeSet (sequential) / ConcurrentSkipListSet
// (parallel), both "NavigableSet"s so ordered range queries work; §6.2 then
// shows overriding a table's structure — HashSet / ConcurrentHashMap when
// the query key is always fully known, or custom array-backed structures
// ("native arrays", §6.4) — *without touching the program*.  That
// late-commitment-to-data-structures story (§1.4) is reproduced here by
// TableDecl::store_factory overrides.
//
// Thread-safety contract: in parallel engine mode, insert/contains/scans
// may be called concurrently from rule tasks; implementations marked
// sequential are only used by the sequential engine.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>

#include "concurrent/skip_list_set.h"
#include "concurrent/striped_hash_map.h"

namespace jstar {

namespace sched {
class ForkJoinPool;
}  // namespace sched

/// Execution hints a table hands its store at configure time: the
/// engine's shared fork/join pool for morsel-parallel scans/kernels, and
/// the EngineOptions::simd / ::morsels flags.  The JSTAR_SIMD /
/// JSTAR_MORSELS env kill-switches are ANDed in by the stores themselves
/// (core/simd.h), so the env var always wins — differential harnesses
/// can pin the scalar/sequential reference path from outside.
struct ExecHints {
  sched::ForkJoinPool* pool = nullptr;
  bool simd = true;
  bool morsels = true;
};

/// Morsel geometry, shared by every substrate that implements
/// scan_morsels and by the columnar kernels' internal splits.  kRows is
/// the fixed morsel size — fixed (not ncores-derived) so the partition,
/// and with it every ordered reduction, is deterministic across pool
/// sizes.  Tables below kSequentialCutoff run as one morsel on the
/// calling thread, keeping small-table latency unchanged.
namespace morsel {
inline constexpr std::size_t kRows = 64 * 1024;
inline constexpr std::size_t kSequentialCutoff = 2 * kRows;
inline constexpr std::size_t count(std::size_t n) {
  return n == 0 ? 1 : (n + kRows - 1) / kRows;
}
}  // namespace morsel

/// Type-erased marker base so Engine can hold stores uniformly.
class GammaStoreBase {
 public:
  virtual ~GammaStoreBase() = default;
  virtual std::size_t size() const = 0;
  /// Human-readable substrate name, surfaced in TableStats / run logs so
  /// a tuning session can see which structure each table actually got.
  virtual std::string describe() const { return "custom"; }
  /// Execution hints (pool + SIMD/morsel switches).  Stores that cannot
  /// use them ignore the call.
  virtual void set_exec_hints(const ExecHints&) {}
};

/// Retention capability — stores that can drop tuples when a retain(N)
/// window advances: the bucketed EpochWindowStore (core/window_store.h)
/// erases whole epoch buckets, the flat substrate (core/flat_store.h)
/// compacts its arrays in place.  Table<T> drives either through this
/// interface at epoch boundaries.
template <typename T>
class RetiringStore {
 public:
  virtual ~RetiringStore() = default;
  /// Retires every tuple whose epoch is <= threshold; returns the count.
  virtual std::int64_t retire_up_to(std::int64_t threshold) = 0;
  /// Callback invoked once per retired tuple, after the store has
  /// released its own lock (the listener takes index-shard locks that
  /// queries hold while re-entering the store — notifying under the
  /// store lock would close a lock-order cycle).  This is how
  /// epoch-aware index maintenance works: the owning table sweeps
  /// retired tuples out of its secondary indexes, so indexes forget
  /// exactly when Gamma does.
  virtual void set_retire_listener(std::function<void(const T&)> fn) = 0;
};

/// Storage interface for one table's Gamma data.
template <typename T>
class GammaStore : public GammaStoreBase {
 public:
  /// Set-semantics insert; returns false when the tuple is a duplicate.
  virtual bool insert(const T& t) = 0;
  virtual bool contains(const T& t) const = 0;
  /// Visits every stored tuple (order depends on the structure).
  virtual void scan(const std::function<void(const T&)>& fn) const = 0;
  /// Visits tuples t with lo <= t < hi under the structure's order.
  /// Unordered stores fall back to a filtered full scan.
  virtual void scan_range(const T& lo, const T& hi,
                          const std::function<void(const T&)>& fn) const {
    scan([&](const T& t) {
      if (!(t < lo) && (t < hi)) fn(t);
    });
  }
  /// Visits tuples t with lo <= t, to the end of the structure's order —
  /// the open-above range-plan pushdown.  Unordered stores fall back to a
  /// filtered full scan.
  virtual void scan_from(const T& lo,
                         const std::function<void(const T&)>& fn) const {
    scan([&](const T& t) {
      if (!(t < lo)) fn(t);
    });
  }
  /// True when the store's iteration order is the tuple order and
  /// scan_range/scan_from seek instead of scanning — the query planner
  /// only compiles range plans against such stores.
  virtual bool ordered() const { return false; }
  /// Chunked scan pushdown (§6.4): visits the stored tuples as contiguous
  /// [data, data + n) spans, so hot loops run over cache-lined arrays and
  /// pay the type-erasure cost once per chunk instead of once per tuple.
  /// The default adapter degrades to one-tuple chunks over scan(); stores
  /// answering chunked() hand out real multi-tuple spans.
  virtual void scan_chunks(
      const std::function<void(const T*, std::size_t)>& fn) const {
    scan([&fn](const T& t) { fn(&t, 1); });
  }
  /// True when scan_chunks delivers genuinely contiguous multi-tuple
  /// spans — Table<T> then routes its scans through the chunked path.
  virtual bool chunked() const { return false; }
  /// Morsel-parallel scan pushdown: splits the stored tuples into
  /// fixed-size morsels and runs `body(data, n, morsel)` over them on
  /// the hinted fork/join pool.  `plan(morsels)` fires exactly once,
  /// before any body call, so the caller can size a per-morsel partials
  /// array; a morsel may deliver several spans (columnar reconstitution
  /// chunks), all carrying the same morsel index, and two morsels never
  /// share an index — per-slot writes need no synchronisation.  Morsel
  /// indexes follow storage order, so combining partials 0..morsels-1
  /// keeps sequential reduction order deterministic.  Returns false
  /// (nothing ran) when the store cannot morselize or the hints disable
  /// it — the caller falls back to scan_chunks; a `true` run with the
  /// table below the sequential threshold is a single morsel on the
  /// calling thread.  Body runs under the store's read lock, same
  /// re-entry contract as scan.
  virtual bool scan_morsels(
      const std::function<void(std::size_t)>& plan,
      const std::function<void(const T*, std::size_t, std::size_t)>& body)
      const {
    (void)plan;
    (void)body;
    return false;
  }
  /// Erase/tombstone contract (retractions, ROADMAP item 4): removes `t`
  /// if present; returns true exactly when a stored tuple was removed.
  /// After erase(t) returns true, contains(t) is false and no scan (plain,
  /// range, or chunked) may deliver t again — substrates that defer
  /// physical removal (flat anti-merge dead sets, open-addressing
  /// tombstones, columnar compaction) must hide the tuple immediately.
  /// Stores that cannot erase keep the default and report !erasable();
  /// Table<T> refuses counted()/retract() on top of those.
  virtual bool erase(const T&) { return false; }
  /// True when erase() actually removes tuples (NullStore and custom
  /// insert-only stores say false).
  virtual bool erasable() const { return false; }
  /// EXCLUSIVE PHASE.  Frees memory that erase() retired instead of
  /// freeing (a lock-free reader may still hold it).  The engine calls
  /// this between batches, on the Delta tree's GC schedule.
  virtual void collect_garbage() {}
};

/// Sequential ordered store — the Java TreeSet default.
template <typename T>
class TreeSetStore final : public GammaStore<T> {
 public:
  bool insert(const T& t) override { return set_.insert(t).second; }
  bool contains(const T& t) const override { return set_.count(t) != 0; }
  void scan(const std::function<void(const T&)>& fn) const override {
    for (const T& t : set_) fn(t);
  }
  void scan_range(const T& lo, const T& hi,
                  const std::function<void(const T&)>& fn) const override {
    for (auto it = set_.lower_bound(lo); it != set_.end() && *it < hi; ++it) {
      fn(*it);
    }
  }
  void scan_from(const T& lo,
                 const std::function<void(const T&)>& fn) const override {
    for (auto it = set_.lower_bound(lo); it != set_.end(); ++it) fn(*it);
  }
  bool ordered() const override { return true; }
  bool erase(const T& t) override { return set_.erase(t) != 0; }
  bool erasable() const override { return true; }
  std::size_t size() const override { return set_.size(); }
  std::string describe() const override { return "tree-set"; }

 private:
  std::set<T> set_;
};

/// Concurrent ordered store — the ConcurrentSkipListSet default for
/// parallel code.
template <typename T>
class SkipListStore final : public GammaStore<T> {
 public:
  bool insert(const T& t) override { return set_.insert(t); }
  bool contains(const T& t) const override { return set_.contains(t); }
  void scan(const std::function<void(const T&)>& fn) const override {
    set_.for_each(fn);
  }
  void scan_range(const T& lo, const T& hi,
                  const std::function<void(const T&)>& fn) const override {
    set_.for_range(lo, hi, fn);
  }
  void scan_from(const T& lo,
                 const std::function<void(const T&)>& fn) const override {
    set_.for_each_from(lo, fn);
  }
  bool ordered() const override { return true; }
  bool erase(const T& t) override { return set_.erase(t); }
  bool erasable() const override { return true; }
  void collect_garbage() override { set_.collect_garbage(); }
  /// Erased nodes awaiting collect_garbage().
  std::size_t retired() const { return set_.retired(); }
  std::size_t size() const override { return set_.size(); }
  std::string describe() const override { return "skip-list"; }

 private:
  concurrent::SkipListSet<T> set_;
};

/// Sequential hash store — the HashSet alternative of §6.2.  Requires a
/// Hash functor; range scans degrade to filtered full scans.
template <typename T, typename Hash>
class HashSetStore final : public GammaStore<T> {
 public:
  bool insert(const T& t) override { return set_.insert(t).second; }
  bool contains(const T& t) const override { return set_.count(t) != 0; }
  void scan(const std::function<void(const T&)>& fn) const override {
    for (const T& t : set_) fn(t);
  }
  bool erase(const T& t) override { return set_.erase(t) != 0; }
  bool erasable() const override { return true; }
  std::size_t size() const override { return set_.size(); }
  std::string describe() const override { return "hash-set"; }

 private:
  std::unordered_set<T, Hash> set_;
};

/// Concurrent hash store — the ConcurrentHashMap alternative of §6.2.
template <typename T, typename Hash>
class StripedHashStore final : public GammaStore<T> {
 public:
  /// Stripe count for this machine: 4x the hardware concurrency (so
  /// concurrent inserters rarely collide on a stripe lock), clamped to
  /// [16, 256]; the underlying set rounds up to a power of two.  A table
  /// on a 64-core box gets 256 stripes, a 2-core CI runner gets 16 —
  /// instead of the previous hardcoded 64 either way.
  static std::size_t default_stripes() {
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t want = 4 * static_cast<std::size_t>(hw == 0 ? 4 : hw);
    return std::clamp<std::size_t>(want, 16, 256);
  }

  /// `stripes == 0` picks default_stripes() for this machine.
  explicit StripedHashStore(std::size_t stripes = 0)
      : set_(stripes == 0 ? default_stripes() : stripes) {}
  bool insert(const T& t) override { return set_.insert(t); }
  bool contains(const T& t) const override { return set_.contains(t); }
  void scan(const std::function<void(const T&)>& fn) const override {
    set_.for_each(fn);
  }
  bool erase(const T& t) override { return set_.erase(t); }
  bool erasable() const override { return true; }
  std::size_t size() const override { return set_.size(); }
  /// The stripe count actually chosen (after power-of-two rounding),
  /// surfaced through describe() into run logs.
  std::size_t stripes() const { return set_.stripes(); }
  std::string describe() const override {
    return "striped-hash(" + std::to_string(stripes()) + ")";
  }

 private:
  concurrent::StripedHashSet<T, Hash> set_;
};

/// The `-noGamma T` store (§5.1): tuples are never retained, so there is
/// no set-semantics dedup either; every insert "succeeds".  Useful for
/// trigger-only tables (e.g. Estimate in the Dijkstra program, §6.5) and
/// it "does help to reduce the active heap size".
template <typename T>
class NullStore final : public GammaStore<T> {
 public:
  bool insert(const T&) override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bool contains(const T&) const override { return false; }
  void scan(const std::function<void(const T&)>&) const override {}
  std::size_t size() const override { return 0; }
  std::string describe() const override { return "null"; }
  /// Number of tuples that passed through (for stats only).
  std::int64_t passed_through() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> count_{0};
};

}  // namespace jstar

// Flat array-backed Gamma substrates — the §6.4 "native arrays" storage
// tier ("for some programs we have used custom data structures based on
// native arrays ... considerably faster than the general-purpose
// collections").
//
// Two structures, selectable per table through TableDecl::flat_store() /
// flat_hash_store() without touching rule bodies (the §1.4 late
// commitment to data structures):
//
//   * FlatOrderedStore<T> — one sorted contiguous vector plus a small
//     unsorted staging buffer with deferred merge.  Lookups binary-search
//     the sorted run and hash-probe the staging set; scan_range/scan_from
//     are real lower_bound seeks, so ordered() is true and the query
//     planner routes range plans here exactly as it does for the tree and
//     skip-list defaults.  Ordered reads merge the staging buffer first,
//     so every scan runs over one cache-contiguous span.  An optional
//     engine-epoch window (TableDecl::retain(N)) tags tuples with the
//     epoch clock on arrival; retire_up_to() compacts the arrays in
//     place.
//
//   * FlatHashStore<T> — open addressing over a power-of-two capacity
//     with linear probing.  erase() leaves a tombstone so probe chains
//     stay intact; tombstones are reclaimed by inserts and purged by the
//     load-factor-triggered rebuild.  Unordered, so range plans degrade
//     to residual scans; pair it with secondary indexes when the query
//     key is fully known.  T must be default-constructible (empty slots
//     hold T{}).
//
// Both override scan_chunks() to hand out contiguous [data, n) spans —
// the chunked scan pushdown that lets Table<T> hot loops inline their
// predicate instead of paying a type-erased call per tuple.
//
// Thread-safety: a shared_mutex per store — inserts and merges exclusive,
// lookups and scans shared.  Like EpochWindowStore, scan callbacks run
// under the store's lock: a rule must not put into the same -noDelta
// table from inside one of its own scan callbacks, and retire listeners
// must not call back into the store.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/gamma_store.h"
#include "core/simd.h"
#include "sched/fork_join_pool.h"
#include "util/small_vec.h"

namespace jstar {

/// Sorted contiguous-array store with a staged-merge write side.
template <typename T, typename Hash = std::hash<T>>
class FlatOrderedStore final : public GammaStore<T>, public RetiringStore<T> {
 public:
  explicit FlatOrderedStore(Hash hash = Hash{})
      : hash_(std::move(hash)), staging_set_(8, hash_) {}

  /// Engine-epoch windowed variant (TableDecl::retain(N)): every tuple is
  /// tagged with `clock`'s value at insert time and retire_up_to()
  /// compacts the arrays in place.  `clock` may be null (epoch 0
  /// forever, as in engine-free unit harnesses).  `keep_epochs >= 1`
  /// additionally enables insert-driven retirement with the same
  /// semantics as EpochWindowStore: an insert that advances the observed
  /// epoch clock retires everything behind the new window immediately,
  /// and stragglers behind it are silently dropped — so all three
  /// windowed substrates agree on re-insert-after-retire behaviour
  /// (regression: CrossSubstrateWindow.StragglerSemanticsAgree).
  /// `keep_epochs == 0` keeps the legacy retire_up_to-only ratchet.
  explicit FlatOrderedStore(const std::atomic<std::int64_t>* clock,
                            Hash hash = Hash{}, std::int64_t keep_epochs = 0)
      : hash_(std::move(hash)), staging_set_(8, hash_), clock_(clock),
        windowed_(true), keep_(keep_epochs) {}

  bool insert(const T& t) override {
    std::vector<T> victims;
    bool fresh;
    {
      std::unique_lock lk(mu_);
      std::int64_t e = 0;
      if (windowed_) {
        e = epoch_now();
        if (e <= retired_through_) {
          // A straggler behind the retain(N) window: no future query can
          // observe it, so drop — but report fresh, exactly like
          // EpochWindowStore, so rules still fire for it once.
          retired_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      }
      fresh = insert_staged_locked(t, e);
      if (fresh && windowed_ && keep_ >= 1 && e > max_epoch_) {
        // Insert-driven retirement, mirroring EpochWindowStore: the
        // observed clock advanced, so everything behind the new window
        // goes now and the straggler cutoff ratchets with it.
        max_epoch_ = e;
        if (max_epoch_ - keep_ > retired_through_) {
          retired_through_ = max_epoch_ - keep_;
          merge_locked();
          retire_sorted_locked(retired_through_, &victims);
        }
      }
    }
    for (const T& t2 : victims) on_retire_(t2);
    return fresh;
  }

  bool contains(const T& t) const override {
    std::shared_lock lk(mu_);
    if (staging_set_.count(t) != 0) return true;
    return std::binary_search(sorted_.begin(), sorted_.end(), t) &&
           dead_.count(t) == 0;
  }

  /// Retraction support: a staged tuple is removed from the staging
  /// buffer directly; a merged tuple joins the dead set and is hidden
  /// immediately (contains/dup-checks consult the set) but physically
  /// purged only by the next merge — the anti-merge — so erase stays
  /// O(staging) instead of O(N) per call under churn-heavy workloads.
  bool erase(const T& t) override {
    std::unique_lock lk(mu_);
    if (staging_set_.erase(t) != 0) {
      for (std::size_t i = 0; i < staging_.size(); ++i) {
        if (staging_[i] == t) {
          staging_[i] = std::move(staging_.back());
          staging_.pop_back();
          if (windowed_) {
            staging_epochs_[i] = staging_epochs_.back();
            staging_epochs_.pop_back();
          }
          break;
        }
      }
      return true;
    }
    if (std::binary_search(sorted_.begin(), sorted_.end(), t) &&
        dead_.insert(t).second) {
      return true;
    }
    return false;
  }

  bool erasable() const override { return true; }

  void scan(const std::function<void(const T&)>& fn) const override {
    with_merged([&] {
      for (const T& t : sorted_) fn(t);
    });
  }

  // Staged-region visibility: the ordered seeks below iterate only the
  // sorted_ run, which is safe *only because* with_merged() folds the
  // staging buffer into sorted_ before running the body — a staged-but-
  // unmerged tuple is therefore always visible to range plans (regression:
  // FlatOrderedStore.RangeSeeksSeeStagedUnmergedTuples).  Any future seek
  // path added here must either go through with_merged() or probe the
  // staging set explicitly.
  void scan_range(const T& lo, const T& hi,
                  const std::function<void(const T&)>& fn) const override {
    with_merged([&] {
      for (auto it = std::lower_bound(sorted_.begin(), sorted_.end(), lo);
           it != sorted_.end() && *it < hi; ++it) {
        fn(*it);
      }
    });
  }

  void scan_from(const T& lo,
                 const std::function<void(const T&)>& fn) const override {
    with_merged([&] {
      for (auto it = std::lower_bound(sorted_.begin(), sorted_.end(), lo);
           it != sorted_.end(); ++it) {
        fn(*it);
      }
    });
  }

  void scan_chunks(const std::function<void(const T*, std::size_t)>& fn)
      const override {
    with_merged([&] {
      if (!sorted_.empty()) fn(sorted_.data(), sorted_.size());
    });
  }

  /// Morsel-parallel flat scan (see GammaStore::scan_morsels): the
  /// sorted run is one contiguous array, so each morsel is a simple
  /// sub-span handed to the pool.  Engages only past the sequential
  /// cutoff with a hinted pool; bodies run under the shared lock the
  /// same way scan_chunks callbacks do.
  bool scan_morsels(
      const std::function<void(std::size_t)>& plan,
      const std::function<void(const T*, std::size_t, std::size_t)>& body)
      const override {
    bool ran = false;
    with_merged([&] {
      const std::size_t n = sorted_.size();
      if (pool_ == nullptr || !morsels_on_ || !simd::morsels_env_on() ||
          n < morsel::kSequentialCutoff) {
        return;
      }
      const std::size_t m = morsel::count(n);
      plan(m);
      const T* base = sorted_.data();
      pool_->for_each_index(
          static_cast<std::int64_t>(m),
          [&](std::int64_t mi) {
            const std::size_t a =
                static_cast<std::size_t>(mi) * morsel::kRows;
            const std::size_t b = std::min(n, a + morsel::kRows);
            body(base + a, b - a, static_cast<std::size_t>(mi));
          },
          /*grain=*/1);
      morsel_runs_.fetch_add(1, std::memory_order_relaxed);
      morsel_splits_.fetch_add(static_cast<std::int64_t>(m),
                               std::memory_order_relaxed);
      ran = true;
    });
    return ran;
  }

  void set_exec_hints(const ExecHints& h) override {
    pool_ = h.pool;
    morsels_on_ = h.morsels;
  }

  bool ordered() const override { return true; }
  bool chunked() const override { return true; }

  std::size_t size() const override {
    std::shared_lock lk(mu_);
    return sorted_.size() + staging_.size() - dead_.size();
  }

  /// "flat-ordered[(retain)]" — with a "(morsels=<splits>)" suffix once
  /// any scan actually split across the pool, so run logs show which
  /// tables went morsel-parallel (small tables keep the legacy string).
  std::string describe() const override {
    std::string s = windowed_ ? "flat-ordered(retain)" : "flat-ordered";
    const std::int64_t splits =
        morsel_splits_.load(std::memory_order_relaxed);
    if (splits > 0) s += "(morsels=" + std::to_string(splits) + ")";
    return s;
  }

  // --- RetiringStore (TableDecl::retain(N) integration) --------------------

  /// Compacts the arrays in place, dropping every tuple whose arrival
  /// epoch is <= threshold, and ratchets the straggler cutoff forward.
  /// Returns the number of tuples retired.  No-op for unwindowed stores.
  /// The retire listener fires *after* the store lock is released: the
  /// listener takes other locks (secondary-index shards) that queries
  /// hold while re-entering this store, so notifying under the lock
  /// would close a lock-order cycle.  The brief window where an index
  /// still lists a retired tuple is harmless — probe hits are
  /// revalidated against the store.
  std::int64_t retire_up_to(std::int64_t threshold) override {
    std::vector<T> victims;
    std::int64_t dropped = 0;
    {
      std::unique_lock lk(mu_);
      if (!windowed_) return 0;
      retired_through_ = std::max(retired_through_, threshold);
      if (keep_ >= 1) max_epoch_ = std::max(max_epoch_, threshold + keep_);
      merge_locked();
      dropped = retire_sorted_locked(threshold, &victims);
    }
    for (const T& t : victims) on_retire_(t);
    return dropped;
  }

  void set_retire_listener(std::function<void(const T&)> fn) override {
    on_retire_ = std::move(fn);
  }

  // --- introspection (tests, benches) --------------------------------------

  /// Tuples currently awaiting a merge.
  std::size_t staged() const {
    std::shared_lock lk(mu_);
    return staging_.size();
  }
  /// Staging merges performed so far.
  std::int64_t merges() const {
    return merges_.load(std::memory_order_relaxed);
  }
  /// Tuples dropped by window retirement so far.
  std::int64_t retired() const {
    return retired_.load(std::memory_order_relaxed);
  }

 private:
  /// Deferred-merge threshold: proportional to the sorted run so the
  /// total merge traffic stays O(N) amortised, floored so tiny tables
  /// don't merge on every insert.
  std::size_t staging_limit() const {
    return std::max<std::size_t>(64, sorted_.size() / 8);
  }

  std::int64_t epoch_now() const {
    return clock_ != nullptr ? clock_->load(std::memory_order_relaxed) : 0;
  }

  /// Dedup-checks t against the staging set, the sorted run and the dead
  /// set, then stages it.  A tuple that is physically in sorted_ but
  /// marked dead is NOT a duplicate: the staged copy becomes the live one
  /// and the dead copy is dropped by the next anti-merge before the two
  /// could ever meet in the same region.  Caller holds the exclusive
  /// lock; returns true when the tuple was fresh.
  bool insert_staged_locked(const T& t, std::int64_t e) {
    if (staging_set_.count(t) != 0) return false;
    if (std::binary_search(sorted_.begin(), sorted_.end(), t) &&
        dead_.count(t) == 0) {
      return false;
    }
    staging_.push_back(t);
    if (windowed_) staging_epochs_.push_back(e);
    staging_set_.insert(t);
    if (staging_.size() >= staging_limit()) merge_locked();
    return true;
  }

  /// Compacts sorted_ in place, dropping every tuple whose arrival epoch
  /// is <= threshold; dead tuples cannot appear (merge_locked purges them
  /// first).  Caller holds the exclusive lock and has already merged.
  std::int64_t retire_sorted_locked(std::int64_t threshold,
                                    std::vector<T>* victims) {
    std::int64_t dropped = 0;
    std::size_t w = 0;
    for (std::size_t r = 0; r < sorted_.size(); ++r) {
      if (sorted_epochs_[r] <= threshold) {
        ++dropped;
        if (on_retire_) victims->push_back(std::move(sorted_[r]));
      } else {
        if (w != r) {
          sorted_[w] = std::move(sorted_[r]);
          sorted_epochs_[w] = sorted_epochs_[r];
        }
        ++w;
      }
    }
    sorted_.resize(w);
    sorted_epochs_.resize(w);
    retired_.fetch_add(dropped, std::memory_order_relaxed);
    return dropped;
  }

  /// Runs fn with the staging buffer folded into the sorted run and the
  /// dead set purged.  Fast path: nothing pending — shared lock only.
  /// Otherwise merge under the exclusive lock, release, and retry under
  /// a shared lock so the O(N) scan itself never blocks concurrent
  /// readers.
  template <typename Fn>
  void with_merged(Fn&& fn) const {
    for (;;) {
      {
        std::shared_lock lk(mu_);
        if (staging_.empty() && dead_.empty()) {
          fn();
          return;
        }
      }
      std::unique_lock lk(mu_);
      merge_locked();
    }
  }

  /// The anti-merge: compacts dead tuples out of the sorted run, then
  /// sorts the staging buffer and merges it into the sorted run from the
  /// back (no extra allocation beyond the resize).  Caller holds the
  /// exclusive lock.  Cross-region duplicates cannot exist once the dead
  /// are purged — insert rejects live duplicates and a re-inserted dead
  /// tuple's stale copy is removed here before the staged copy lands —
  /// so the merge needs no dedup pass.
  void merge_locked() const {
    if (!dead_.empty()) {
      std::size_t w = 0;
      for (std::size_t r = 0; r < sorted_.size(); ++r) {
        if (dead_.count(sorted_[r]) != 0) continue;
        if (w != r) {
          sorted_[w] = std::move(sorted_[r]);
          if (windowed_) sorted_epochs_[w] = sorted_epochs_[r];
        }
        ++w;
      }
      sorted_.resize(w);
      if (windowed_) sorted_epochs_.resize(w);
      dead_.clear();
    }
    const std::size_t m = staging_.size();
    if (m == 0) return;
    if (windowed_) {
      // Co-sort the epoch tags with their tuples.
      std::vector<std::pair<T, std::int64_t>> tmp(m);
      for (std::size_t i = 0; i < m; ++i) {
        tmp[i] = {std::move(staging_[i]), staging_epochs_[i]};
      }
      std::sort(tmp.begin(), tmp.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t i = 0; i < m; ++i) {
        staging_[i] = std::move(tmp[i].first);
        staging_epochs_[i] = tmp[i].second;
      }
    } else {
      std::sort(staging_.begin(), staging_.end());
    }
    const std::size_t n = sorted_.size();
    sorted_.resize(n + m);
    if (windowed_) sorted_epochs_.resize(n + m);
    std::size_t i = n, j = m, k = n + m;
    while (j > 0) {
      if (i > 0 && staging_[j - 1] < sorted_[i - 1]) {
        --i;
        --k;
        sorted_[k] = std::move(sorted_[i]);
        if (windowed_) sorted_epochs_[k] = sorted_epochs_[i];
      } else {
        --j;
        --k;
        sorted_[k] = std::move(staging_[j]);
        if (windowed_) sorted_epochs_[k] = staging_epochs_[j];
      }
    }
    staging_.clear();
    staging_epochs_.clear();
    staging_set_.clear();
    merges_.fetch_add(1, std::memory_order_relaxed);
  }

  Hash hash_;
  mutable std::shared_mutex mu_;
  // Scans merge on demand, so the regions are mutable behind const reads.
  mutable std::vector<T> sorted_;
  mutable std::vector<std::int64_t> sorted_epochs_;  // windowed only
  mutable std::vector<T> staging_;
  mutable std::vector<std::int64_t> staging_epochs_;  // windowed only
  mutable std::unordered_set<T, Hash> staging_set_;
  // Erased-but-unpurged tuples still physically present in sorted_; every
  // read path subtracts them until the next merge compacts them away.
  mutable std::unordered_set<T, Hash> dead_{8, hash_};
  const std::atomic<std::int64_t>* clock_ = nullptr;
  const bool windowed_ = false;
  const std::int64_t keep_ = 0;
  std::int64_t max_epoch_ = std::numeric_limits<std::int64_t>::min() / 2;
  std::int64_t retired_through_ = std::numeric_limits<std::int64_t>::min() / 2;
  std::function<void(const T&)> on_retire_;
  mutable std::atomic<std::int64_t> merges_{0};
  std::atomic<std::int64_t> retired_{0};
  // Execution hints (set_exec_hints) + cumulative morsel counters.
  sched::ForkJoinPool* pool_ = nullptr;
  bool morsels_on_ = true;
  mutable std::atomic<std::int64_t> morsel_runs_{0};
  mutable std::atomic<std::int64_t> morsel_splits_{0};
};

/// Open-addressing hash store: power-of-two capacity, linear probing.
template <typename T, typename Hash = std::hash<T>>
class FlatHashStore final : public GammaStore<T> {
 public:
  explicit FlatHashStore(Hash hash = Hash{}, std::size_t initial_capacity = 64)
      : hash_(std::move(hash)) {
    grow_to(std::bit_ceil(std::max<std::size_t>(initial_capacity, 16)));
  }

  bool insert(const T& t) override {
    std::unique_lock lk(mu_);
    // Grow (or rebuild in place, purging tombstones) at 3/4 occupancy so
    // linear probes stay short even after heavy churn: tombstones extend
    // probe chains exactly like live slots do.
    if ((count_ + tombstones_ + 1) * 4 > slots_.size() * 3) {
      grow_to((count_ + 1) * 4 > slots_.size() * 3 ? slots_.size() * 2
                                                   : slots_.size());
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64(hash_(t)) & mask;
    std::size_t spot = kNpos;  // first tombstone on the chain, reusable
    while (used_[i] != kEmpty) {
      if (used_[i] == kUsed && slots_[i] == t) return false;
      if (used_[i] == kTomb && spot == kNpos) spot = i;
      i = (i + 1) & mask;
    }
    if (spot == kNpos) {
      spot = i;
    } else {
      --tombstones_;
    }
    slots_[spot] = t;
    used_[spot] = kUsed;
    ++count_;
    return true;
  }

  bool contains(const T& t) const override {
    std::shared_lock lk(mu_);
    return find(t) != kNpos;
  }

  /// Retraction support: the slot becomes a tombstone — probe chains for
  /// other tuples that ran through it stay intact — and is reclaimed by
  /// a later insert on the same chain or by the next rebuild.
  bool erase(const T& t) override {
    std::unique_lock lk(mu_);
    const std::size_t i = find(t);
    if (i == kNpos) return false;
    slots_[i] = T{};
    used_[i] = kTomb;
    --count_;
    ++tombstones_;
    return true;
  }

  bool erasable() const override { return true; }

  void scan(const std::function<void(const T&)>& fn) const override {
    std::shared_lock lk(mu_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i] == kUsed) fn(slots_[i]);
    }
  }

  /// Chunked pushdown: emits each maximal run of occupied slots as one
  /// contiguous span (tombstones break runs like empty slots do).
  void scan_chunks(const std::function<void(const T*, std::size_t)>& fn)
      const override {
    std::shared_lock lk(mu_);
    std::size_t i = 0;
    const std::size_t n = slots_.size();
    while (i < n) {
      while (i < n && used_[i] != kUsed) ++i;
      std::size_t j = i;
      while (j < n && used_[j] == kUsed) ++j;
      if (j > i) fn(slots_.data() + i, j - i);
      i = j;
    }
  }

  /// Morsel-parallel slot sweep: the slot array is partitioned into
  /// fixed morsels; each emits its occupied runs (clipped at the morsel
  /// boundary — multiple spans per morsel are allowed by the contract).
  /// Gates on the *live* count, not the capacity, so a sparse table
  /// does not fan out for a handful of tuples.
  bool scan_morsels(
      const std::function<void(std::size_t)>& plan,
      const std::function<void(const T*, std::size_t, std::size_t)>& body)
      const override {
    std::shared_lock lk(mu_);
    if (pool_ == nullptr || !morsels_on_ || !simd::morsels_env_on() ||
        count_ < morsel::kSequentialCutoff) {
      return false;
    }
    const std::size_t n = slots_.size();
    const std::size_t m = morsel::count(n);
    plan(m);
    pool_->for_each_index(
        static_cast<std::int64_t>(m),
        [&](std::int64_t mi) {
          const std::size_t a = static_cast<std::size_t>(mi) * morsel::kRows;
          const std::size_t b = std::min(n, a + morsel::kRows);
          std::size_t i = a;
          while (i < b) {
            while (i < b && used_[i] != kUsed) ++i;
            std::size_t j = i;
            while (j < b && used_[j] == kUsed) ++j;
            if (j > i) {
              body(slots_.data() + i, j - i, static_cast<std::size_t>(mi));
            }
            i = j;
          }
        },
        /*grain=*/1);
    morsel_runs_.fetch_add(1, std::memory_order_relaxed);
    morsel_splits_.fetch_add(static_cast<std::int64_t>(m),
                             std::memory_order_relaxed);
    return true;
  }

  void set_exec_hints(const ExecHints& h) override {
    pool_ = h.pool;
    morsels_on_ = h.morsels;
  }

  bool chunked() const override { return true; }

  std::size_t size() const override {
    std::shared_lock lk(mu_);
    return count_;
  }

  std::string describe() const override {
    std::string s = "flat-hash";
    const std::int64_t splits =
        morsel_splits_.load(std::memory_order_relaxed);
    if (splits > 0) s += "(morsels=" + std::to_string(splits) + ")";
    return s;
  }

  /// Current slot-array capacity (tests).
  std::size_t capacity() const {
    std::shared_lock lk(mu_);
    return slots_.size();
  }

  /// Erased-but-unreclaimed slots (tests).
  std::size_t tombstones() const {
    std::shared_lock lk(mu_);
    return tombstones_;
  }

 private:
  static constexpr std::uint8_t kEmpty = 0, kUsed = 1, kTomb = 2;
  static constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

  /// Index of t's occupied slot, or kNpos.  The search must run past
  /// tombstones: t may live beyond one left by an erased chain member.
  /// The load-factor bound guarantees an empty terminator exists.
  std::size_t find(const T& t) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64(hash_(t)) & mask;
    while (used_[i] != kEmpty) {
      if (used_[i] == kUsed && slots_[i] == t) return i;
      i = (i + 1) & mask;
    }
    return kNpos;
  }

  /// Rehashes live slots into a capacity-`cap` array; tombstones vanish
  /// (cap may equal the current capacity — a pure tombstone purge).
  void grow_to(std::size_t cap) {
    std::vector<T> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_ = std::vector<T>(cap);
    used_.assign(cap, 0);
    tombstones_ = 0;
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_used[i] != kUsed) continue;
      std::size_t j = mix64(hash_(old_slots[i])) & mask;
      while (used_[j] != kEmpty) j = (j + 1) & mask;
      slots_[j] = std::move(old_slots[i]);
      used_[j] = kUsed;
    }
  }

  Hash hash_;
  mutable std::shared_mutex mu_;
  std::vector<T> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t count_ = 0;
  std::size_t tombstones_ = 0;
  // Execution hints (set_exec_hints) + cumulative morsel counters.
  sched::ForkJoinPool* pool_ = nullptr;
  bool morsels_on_ = true;
  mutable std::atomic<std::int64_t> morsel_runs_{0};
  mutable std::atomic<std::int64_t> morsel_splits_{0};
};

}  // namespace jstar

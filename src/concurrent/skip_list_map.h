// A concurrent ordered map: the C++ stand-in for Java's
// ConcurrentSkipListMap, which the JStar runtime uses for the parallel
// Delta tree and as the default parallel Gamma table structure (§5).
//
// The algorithm is the lazy lock-based skip list of Herlihy & Shavit
// ("The Art of Multiprocessor Programming", ch. 14):
//   * wait-free contains / ordered traversal,
//   * fine-grained (per-predecessor) locking on insert and erase,
//   * logical deletion via a `marked` flag, then physical unlinking.
//
// Node layout: each node is one allocation holding the node and its
// `top_level + 1` forward pointers, and locks with a one-byte
// test-and-test-and-set flag, so a search hop touches one block.
//
// Insert finger: each thread remembers the predecessors of its last
// insert into a map.  When the next key lands right after that insert
// (ascending runs, like a CSV region in file order), get_or_insert walks
// only the levels it links from those predecessors instead of searching
// from the head.  A map id that is never reused and a generation bumped
// whenever nodes are freed keep a finger from pointing into freed
// memory; a finger node may be marked, and then lock validation fails and
// the insert retries from the head.  The size is a ShardedCounter, so
// parallel inserts write no shared line outside the nodes they link.
//
// Memory reclamation: Java relies on GC; here erased nodes are *retired* to
// a list and physically freed only by collect_garbage() / the destructor.
// The JStar engine calls collect_garbage() only between Delta batches, when
// it has exclusive access, so readers never touch freed memory.  pop_min()
// is likewise documented exclusive-phase-only (the engine's coordinator is
// the single caller, between parallel batches).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/rng.h"
#include "util/sharded_counter.h"

namespace jstar::concurrent {

namespace detail {
/// Source of SkipListMap ids (0 is no map), so a thread's finger never
/// matches a later map that reuses a destroyed one's address.
inline std::atomic<std::uint64_t> next_skip_list_id{1};
}  // namespace detail

template <typename K, typename V, typename Compare = std::less<K>>
class SkipListMap {
 public:
  static constexpr int kMaxLevel = 24;

  SkipListMap()
      : head_(make_node(K{}, V{}, kMaxLevel - 1)),
        id_(detail::next_skip_list_id.fetch_add(1,
                                                std::memory_order_relaxed)) {
    head_->fully_linked.store(true, std::memory_order_release);
  }

  ~SkipListMap() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next(0).load(std::memory_order_relaxed);
      destroy_node(n);
      n = next;
    }
    for (Node* r : retired_) destroy_node(r);
  }

  SkipListMap(const SkipListMap&) = delete;
  SkipListMap& operator=(const SkipListMap&) = delete;

  /// Finds the value for `key`, inserting `make()` if absent.  Returns a
  /// reference valid until the node is erased *and* garbage-collected.
  /// Thread-safe against concurrent get_or_insert/contains/traversal.
  template <typename Factory>
  V& get_or_insert(const K& key, Factory&& make) {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    const int top = random_level();
    Finger& finger = tl_finger_;
    bool from_finger = finger_fits(finger, key);
    for (;;) {
      const int found_level =
          from_finger ? find(key, preds, succs, &finger, top)
                      : find(key, preds, succs);
      if (found_level != -1) {
        Node* found = succs[found_level];
        if (!found->marked.load(std::memory_order_acquire)) {
          while (!found->fully_linked.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          return found->value;
        }
        // Node logically deleted; retry until physically gone.
        std::this_thread::yield();
        from_finger = false;
        continue;
      }
      // Lock the predecessors bottom-up and validate.
      std::unique_lock<NodeLock> locks[kMaxLevel];
      Node* last_locked = nullptr;
      bool valid = true;
      for (int level = 0; valid && level <= top; ++level) {
        Node* pred = preds[level];
        if (pred != last_locked) {
          locks[level] = std::unique_lock<NodeLock>(pred->lock);
          last_locked = pred;
        }
        valid = !pred->marked.load(std::memory_order_acquire) &&
                pred->next(level).load(std::memory_order_acquire) ==
                    succs[level];
      }
      if (!valid) {
        from_finger = false;
        continue;
      }
      Node* node = make_node(key, make(), top);
      for (int level = 0; level <= top; ++level) {
        node->next(level).store(succs[level], std::memory_order_relaxed);
      }
      for (int level = 0; level <= top; ++level) {
        preds[level]->next(level).store(node, std::memory_order_release);
      }
      node->fully_linked.store(true, std::memory_order_release);
      size_.fetch_add(1, std::memory_order_relaxed);
      // A finger walk filled preds only up to `top`; the levels above
      // keep their older predecessors, which still precede this key.
      if (!from_finger) {
        for (int level = top + 1; level < kMaxLevel; ++level) {
          finger.preds[level] = preds[level];
        }
        finger.map_id = id_;
        finger.gen = gen_.load(std::memory_order_relaxed);
      }
      for (int level = 0; level <= top; ++level) finger.preds[level] = node;
      return node->value;
    }
  }

  /// Inserts (key, value) if absent.  Returns true if inserted.
  bool insert(const K& key, V value) {
    bool inserted = false;
    get_or_insert(key, [&] {
      inserted = true;
      return std::move(value);
    });
    return inserted;
  }

  /// Wait-free membership test.
  bool contains(const K& key) const {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    const int found = find(key, preds, succs);
    return found != -1 &&
           succs[found]->fully_linked.load(std::memory_order_acquire) &&
           !succs[found]->marked.load(std::memory_order_acquire);
  }

  /// Returns a pointer to the value for `key`, or nullptr.  The pointer is
  /// stable until the node is erased and garbage-collected.
  V* find_value(const K& key) const {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    const int found = find(key, preds, succs);
    if (found == -1) return nullptr;
    Node* n = succs[found];
    if (!n->fully_linked.load(std::memory_order_acquire) ||
        n->marked.load(std::memory_order_acquire)) {
      return nullptr;
    }
    return &n->value;
  }

  /// Erases `key` (lazy: mark then unlink).  Returns true if erased.
  bool erase(const K& key) {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    Node* victim = nullptr;
    bool is_marked = false;
    int top = -1;
    for (;;) {
      const int found_level = find(key, preds, succs);
      if (found_level != -1) victim = succs[found_level];
      if (is_marked ||
          (found_level != -1 &&
           victim->fully_linked.load(std::memory_order_acquire) &&
           victim->top_level == found_level &&
           !victim->marked.load(std::memory_order_acquire))) {
        if (!is_marked) {
          top = victim->top_level;
          victim->lock.lock();
          if (victim->marked.load(std::memory_order_acquire)) {
            victim->lock.unlock();
            return false;
          }
          victim->marked.store(true, std::memory_order_release);
          is_marked = true;
        }
        std::unique_lock<NodeLock> locks[kMaxLevel];
        Node* last_locked = nullptr;
        bool valid = true;
        for (int level = 0; valid && level <= top; ++level) {
          Node* pred = preds[level];
          if (pred != last_locked) {
            locks[level] = std::unique_lock<NodeLock>(pred->lock);
            last_locked = pred;
          }
          valid = !pred->marked.load(std::memory_order_acquire) &&
                  pred->next(level).load(std::memory_order_acquire) == victim;
        }
        if (!valid) continue;
        for (int level = top; level >= 0; --level) {
          preds[level]->next(level).store(
              victim->next(level).load(std::memory_order_acquire),
              std::memory_order_release);
        }
        victim->lock.unlock();
        retire(victim);
        size_.fetch_add(-1, std::memory_order_relaxed);
        return true;
      }
      return false;
    }
  }

  /// EXCLUSIVE-PHASE ONLY.  Removes and returns the minimum entry.
  /// The caller must guarantee no concurrent operations (the engine calls
  /// this from the single coordinator between parallel batches).
  bool pop_min(K& key_out, V& value_out) {
    Node* first = head_->next(0).load(std::memory_order_acquire);
    if (first == nullptr) return false;
    for (int level = 0; level <= first->top_level; ++level) {
      head_->next(level).store(
          first->next(level).load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    key_out = first->key;
    value_out = std::move(first->value);
    destroy_node(first);
    gen_.fetch_add(1, std::memory_order_relaxed);
    size_.fetch_add(-1, std::memory_order_relaxed);
    return true;
  }

  /// EXCLUSIVE-PHASE ONLY.  Peek at the minimum key.
  const K* peek_min() const {
    Node* first = head_->next(0).load(std::memory_order_acquire);
    return first == nullptr ? nullptr : &first->key;
  }

  /// Ordered traversal of all live entries.  Safe concurrently with
  /// inserts; entries inserted during traversal may or may not be seen.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Node* n = head_->next(0).load(std::memory_order_acquire); n != nullptr;
         n = n->next(0).load(std::memory_order_acquire)) {
      if (n->fully_linked.load(std::memory_order_acquire) &&
          !n->marked.load(std::memory_order_acquire)) {
        fn(n->key, n->value);
      }
    }
  }

  /// Ordered traversal of entries with lo <= key < hi.
  template <typename Fn>
  void for_range(const K& lo, const K& hi, Fn&& fn) const {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    find(lo, preds, succs);
    for (Node* n = succs[0]; n != nullptr && less_(n->key, hi);
         n = n->next(0).load(std::memory_order_acquire)) {
      if (n->fully_linked.load(std::memory_order_acquire) &&
          !n->marked.load(std::memory_order_acquire)) {
        fn(n->key, n->value);
      }
    }
  }

  /// Ordered traversal of entries with lo <= key, to the end (the
  /// open-above form of for_range, used by unbounded range plans).
  template <typename Fn>
  void for_each_from(const K& lo, Fn&& fn) const {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    find(lo, preds, succs);
    for (Node* n = succs[0]; n != nullptr;
         n = n->next(0).load(std::memory_order_acquire)) {
      if (n->fully_linked.load(std::memory_order_acquire) &&
          !n->marked.load(std::memory_order_acquire)) {
        fn(n->key, n->value);
      }
    }
  }

  std::size_t size() const {
    const auto s = size_.load(std::memory_order_relaxed);
    return s > 0 ? static_cast<std::size_t>(s) : 0;
  }

  bool empty() const {
    return head_->next(0).load(std::memory_order_acquire) == nullptr;
  }

  /// EXCLUSIVE-PHASE ONLY.  Frees retired (erased) nodes.
  void collect_garbage() {
    std::lock_guard<std::mutex> lk(retired_mu_);
    if (retired_.empty()) return;
    for (Node* r : retired_) destroy_node(r);
    retired_.clear();
    gen_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Erased nodes not yet freed by collect_garbage().
  std::size_t retired() const {
    std::lock_guard<std::mutex> lk(retired_mu_);
    return retired_.size();
  }

 private:
  /// A one-byte test-and-test-and-set lock: node locks are held for a
  /// few stores, so a waiter spins on a shared read and yields.
  class NodeLock {
   public:
    void lock() noexcept {
      while (held_.exchange(true, std::memory_order_acquire)) {
        while (held_.load(std::memory_order_relaxed)) std::this_thread::yield();
      }
    }
    void unlock() noexcept { held_.store(false, std::memory_order_release); }

   private:
    std::atomic<bool> held_{false};
  };

  struct Node;
  using Link = std::atomic<Node*>;

  /// The tower of `top_level + 1` links lives in the same block, right
  /// after the node (see make_node).
  struct Node {
    Node(const K& k, V v, int top)
        : key(k), value(std::move(v)), top_level(top) {}
    K key;
    V value;
    const int top_level;
    std::atomic<bool> marked{false};
    std::atomic<bool> fully_linked{false};
    NodeLock lock;

    Link& next(int level) {
      return *std::launder(reinterpret_cast<Link*>(
          reinterpret_cast<unsigned char*>(this) + kTowerOffset +
          static_cast<std::size_t>(level) * sizeof(Link)));
    }
  };

  static constexpr std::size_t kTowerOffset =
      (sizeof(Node) + alignof(Link) - 1) / alignof(Link) * alignof(Link);
  static constexpr std::align_val_t kNodeAlign{
      alignof(Node) > alignof(Link) ? alignof(Node) : alignof(Link)};

  static std::size_t node_bytes(int top) {
    return kTowerOffset + static_cast<std::size_t>(top + 1) * sizeof(Link);
  }

  /// One allocation per node: the node, then its tower of null links.
  static Node* make_node(const K& key, V value, int top) {
    void* mem = ::operator new(node_bytes(top), kNodeAlign);
    Node* n;
    try {
      n = ::new (mem) Node(key, std::move(value), top);
    } catch (...) {
      ::operator delete(mem, node_bytes(top), kNodeAlign);
      throw;
    }
    unsigned char* tower = static_cast<unsigned char*>(mem) + kTowerOffset;
    for (int level = 0; level <= top; ++level) {
      ::new (tower + static_cast<std::size_t>(level) * sizeof(Link))
          Link(nullptr);
    }
    return n;
  }

  static void destroy_node(Node* n) {
    const int top = n->top_level;
    for (int level = 0; level <= top; ++level) n->next(level).~Link();
    n->~Node();
    ::operator delete(n, node_bytes(top), kNodeAlign);
  }

  bool equal(const K& a, const K& b) const {
    return !less_(a, b) && !less_(b, a);
  }

  /// The predecessors of this thread's last insert into map `map_id`,
  /// valid while that map's generation is still `gen`.  One record per
  /// thread and map type: a thread alternating between two maps of one
  /// type searches from the head.
  struct Finger {
    std::uint64_t map_id;
    std::uint64_t gen;
    Node* preds[kMaxLevel];
  };

  /// Whether `key` belongs right after this thread's last insert here:
  /// no node has been freed since, the finger's level-0 node is below
  /// `key` and its successor is not.
  bool finger_fits(const Finger& f, const K& key) const {
    if (f.map_id != id_ || f.gen != gen_.load(std::memory_order_relaxed)) {
      return false;
    }
    Node* pred = f.preds[0];
    if (pred != head_ && !less_(pred->key, key)) return false;
    Node* succ = pred->next(0).load(std::memory_order_acquire);
    return succ == nullptr || !less_(succ->key, key);
  }

  /// Fills preds/succs for levels top..0; returns the highest of those
  /// levels at which `key` was found, or -1.  Searches from the head, or,
  /// given a finger that fits `key` (finger_fits), starts each level from
  /// the finger's predecessor there, every one of which precedes `key`.
  int find(const K& key, Node** preds, Node** succs,
           const Finger* from = nullptr,
           int top = kMaxLevel - 1) const {
    int found = -1;
    Node* pred = head_;
    for (int level = top; level >= 0; --level) {
      if (from != nullptr) pred = from->preds[level];
      Node* curr = pred->next(level).load(std::memory_order_acquire);
      while (curr != nullptr && less_(curr->key, key)) {
        pred = curr;
        curr = pred->next(level).load(std::memory_order_acquire);
      }
      if (found == -1 && curr != nullptr && equal(curr->key, key)) {
        found = level;
      }
      preds[level] = pred;
      succs[level] = curr;
    }
    return found;
  }

  static int random_level() {
    thread_local SplitMix64 rng(
        0x5eed ^ std::hash<std::thread::id>{}(std::this_thread::get_id()));
    int level = 0;
    // Geometric distribution with p = 1/2, capped below kMaxLevel.
    std::uint64_t bits = rng.next();
    while ((bits & 1) != 0 && level < kMaxLevel - 1) {
      ++level;
      bits >>= 1;
    }
    return level;
  }

  void retire(Node* n) {
    std::lock_guard<std::mutex> lk(retired_mu_);
    retired_.push_back(n);
  }

  // Zero-initialized, so it matches no map (ids start at 1) and reading
  // it costs no TLS init guard.
  static inline thread_local Finger tl_finger_{};

  Node* head_;
  Compare less_{};
  const std::uint64_t id_;
  // Bumped whenever nodes are freed (pop_min, collect_garbage); only the
  // exclusive phases write it.
  std::atomic<std::uint64_t> gen_{0};
  ShardedCounter size_;
  mutable std::mutex retired_mu_;
  std::vector<Node*> retired_;
};

}  // namespace jstar::concurrent

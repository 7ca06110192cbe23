// The JStar execution engine (§3, §5): an improved incremental
// pseudo-naive bottom-up evaluator [Smith & Utting 1999; Ullman 1989].
//
// Lifecycle of a tuple (Fig 3):
//   1. a rule (or initial put) creates it → Delta set,
//   2. it is taken out of Delta in causality order, moved into Gamma,
//      and triggers applicable rules,
//   3. other rules may query it from Gamma,
//   4. (garbage collection of dead tuples — manual lifetime hints here,
//      matching "currently, this program analysis is not automated").
//
// The parallelisation strategy is the paper's *all-minimums* strategy: at
// each step the engine removes every minimal tuple from the Delta tree and
// executes them all in parallel as fork/join tasks, in two sub-phases per
// batch (insert-into-Gamma, then fire-rules) so that positive queries at
// timestamp == now are deterministic.
//
// EngineOptions is the C++ form of the paper's compiler/runtime hints
// (-sequential, --threads=N, -noDelta T, -noGamma T): strategy lives apart
// from the program, so the same program object can be benchmarked under
// any strategy (§2 stage 3).
#pragma once

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/delta_tree.h"
#include "core/striped_delta_tree.h"
#include "core/orderby.h"
#include "core/table.h"
#include "sched/fork_join_pool.h"
#include "util/timer.h"

namespace jstar {

struct EngineOptions {
  /// Generate-sequential-code analogue: std::map Delta, TreeSet Gammas,
  /// no thread pool.
  bool sequential = false;
  /// Fork/join pool size for parallel mode (--threads=N).
  int threads = 4;
  /// Dynamic law-of-causality enforcement on every put.
  bool causality_checks = true;
  /// -noDelta T: tuples of these tables bypass the Delta tree and fire
  /// their rules immediately (§5.1).
  std::set<std::string> no_delta;
  /// -noGamma T: tuples of these tables are never stored (§5.1).
  std::set<std::string> no_gamma;
  /// Reclaim Delta-tree and Gamma garbage every N batches (parallel mode
  /// only).  The count carries over from one run() to the next, so an
  /// engine driven in short runs (streaming epochs) still reclaims.
  int gc_interval_batches = 64;
  /// §5.2 "additional parallelism": spawn one fork/join task per
  /// (tuple, rule) pair instead of one task per tuple.  The paper's
  /// default strategy creates "only one task for that tuple" even when it
  /// triggers several rules; this flag enables the finer granularity.
  bool task_per_rule = false;
  /// Delta-tree backend override for parallel mode: 0 keeps the default
  /// concurrent skip list; >= 1 installs the lock-striped tree with this
  /// many stripes (the scalability experiment motivated by §6.5's
  /// "threads contending for the same branches of the tree").
  int delta_stripes = 0;
  /// SIMD dispatch for the columnar kernels (core/simd.h).  false pins
  /// every store to the scalar kernel table.  The JSTAR_SIMD env var is
  /// ANDed in by the dispatch layer, so the env kill-switch always wins:
  /// this flag can force scalar, never re-enable vectorized kernels.
  bool simd = true;
  /// Morsel-parallel scans/kernels on the engine's fork/join pool.
  /// false keeps every scan sequential; JSTAR_MORSELS=off wins likewise.
  bool morsels = true;
  /// Batch-at-a-time rule emission: RuleCtx::put/retract/upsert append
  /// to per-(thread, table) buffers (causality checked eagerly, no lock
  /// taken) and reach the Delta tree in one bulk append per table per
  /// batch.  Results are bit-identical to direct puts at any worker
  /// count; false restores the per-put enqueue.  JSTAR_EMIT=off wins
  /// likewise (the differential harnesses pin the reference path with
  /// it).
  bool emit_buffer = true;
  /// Batches whose (tuples x rules) work is at or under this cutoff run
  /// their insert/fire phases inline on the coordinator, skipping the
  /// pool round-trip that dominates deep small-batch chains.  0 restores
  /// the legacy always-dispatch behaviour (bench_rule_fire's baseline).
  std::int64_t inline_fire_cutoff = 16;
};

/// Summary of one Engine::run(): the batch shape, plus how much every
/// table counter moved over the run, summed across tables (the Counters
/// base: report.emit_flushes, report.fires, ...).
struct RunReport : Counters {
  std::int64_t batches = 0;        // Delta equivalence classes processed
  std::int64_t tuples = 0;         // tuples taken out of Delta
  std::int64_t max_batch = 0;      // largest equivalence class
  double seconds = 0.0;
};

class Engine {
 public:
  explicit Engine(EngineOptions opts = {});

  /// Constructs an engine that runs its parallel strategy on `shared_pool`
  /// instead of a private pool (non-owning; must outlive the engine).  This
  /// is how N sharded engines share one fork/join pool, so the machine's
  /// thread count no longer multiplies by the shard count.  Ignored in
  /// sequential mode; `opts.threads` is likewise ignored when set.
  Engine(EngineOptions opts, sched::ForkJoinPool* shared_pool);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a table.  The returned reference is stable for the life of
  /// the engine.  Must happen before the first put.
  template <typename T>
  Table<T>& table(TableDecl<T> decl) {
    JSTAR_CHECK_MSG(!prepared_, "table registered after execution started");
    auto owned = std::make_unique<Table<T>>(std::move(decl));
    Table<T>& ref = *owned;
    ref.id_ = static_cast<int>(tables_.size());
    tables_.push_back(std::move(owned));
    return ref;
  }

  /// Declares a causality chain over orderby literals
  /// (`order Req < PvWatts < SumMonth`, Fig 4).
  void order(const std::vector<std::string>& chain) {
    JSTAR_CHECK_MSG(!prepared_, "order declared after execution started");
    orders_.declare_chain(chain);
  }

  /// Attaches a rule triggered by tuples of `t`.
  template <typename T>
  void rule(Table<T>& t, std::string name,
            typename Table<T>::Rule fn) {
    JSTAR_CHECK_MSG(!prepared_, "rule added after execution started");
    t.add_rule(std::move(name), std::move(fn));
  }

  /// Initial put (a top-level `put` command).  Always goes through the
  /// Delta set; triggers prepare() on first use.
  template <typename T>
  void put(Table<T>& t, const T& tuple) {
    prepare();
    t.stats().puts.fetch_add(1, std::memory_order_relaxed);
    t.enqueue_delta(t.key_of(tuple), tuple);
  }

  /// Initial retract: decrements the tuple's multiplicity; processed by
  /// the next run(), where hitting zero removes it from Gamma and fires
  /// the sign -1 cascade.  Requires TableDecl::counted().
  template <typename T>
  void retract(Table<T>& t, const T& tuple) {
    prepare();
    t.seed_signed(tuple, -1);
  }

  /// Initial upsert: "make the row for this tuple's primary key be
  /// exactly this tuple", displacing (and retracting downstream of) any
  /// different incumbent.  Requires counted() and a primary_key.
  template <typename T>
  void upsert(Table<T>& t, const T& tuple) {
    prepare();
    t.seed_signed(tuple, Table<T>::kUpsertSign);
  }

  /// Runs the program to quiescence (empty Delta set).  May be called
  /// repeatedly: later puts + runs continue the same database, which is
  /// how event-driven input (§3) is expressed.
  RunReport run();

  /// Opens the next streaming epoch: bumps the epoch counter and retires
  /// Gamma tuples that fell out of any retain(N) window (Fig 3 step 4
  /// generalised to wall-clock streams).  Gamma otherwise survives across
  /// epochs — run() stays incremental — and the Delta set is empty between
  /// epochs by construction (run() drains it).  Returns the new epoch.
  /// Long-lived callers (src/stream/streaming.h) call this once per
  /// ingestion slice; one-shot batch programs never need to.
  std::int64_t begin_epoch();

  /// The current epoch: 0 until the first begin_epoch().  Rules observe it
  /// through RuleCtx::epoch().
  std::int64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Processes exactly one Delta batch (the minimal equivalence class).
  /// Returns false when the Delta set is empty.  Useful for debuggers and
  /// for visualising execution frontiers batch by batch.
  bool step(RunReport* report = nullptr);

  const EngineOptions& options() const { return opts_; }
  OrderResolver& orders() { return orders_; }
  const EdgeMatrix& edges() const { return edges_; }
  DeltaTree& delta() { return *delta_; }
  sched::ForkJoinPool* pool() {
    return external_pool_ != nullptr ? external_pool_ : pool_.get();
  }

  std::vector<TableBase*> all_tables() const {
    std::vector<TableBase*> out;
    out.reserve(tables_.size());
    for (const auto& t : tables_) out.push_back(t.get());
    return out;
  }

  /// Finalises declarations (freezes the order relation, builds stores and
  /// the Delta backend).  Implicit on first put/run; idempotent.
  void prepare();

 private:
  void process_batch(const DeltaKey& key, BatchNode& node, RunReport& report);
  /// Drains every table's emit buffers into the Delta tree (table-id
  /// order, so the flush sequence is deterministic).  Called after each
  /// batch's fire phase and before the first pop of run()/step(), which
  /// also covers puts made through a hand-built RuleCtx between runs.
  void flush_emits();

  EngineOptions opts_;
  OrderResolver orders_;
  EdgeMatrix edges_;
  std::vector<std::unique_ptr<TableBase>> tables_;
  std::unique_ptr<DeltaTree> delta_;
  std::unique_ptr<sched::ForkJoinPool> pool_;        // owned (private) pool
  sched::ForkJoinPool* external_pool_ = nullptr;     // shared pool, not owned
  bool prepared_ = false;
  int since_gc_ = 0;                                 // batches since last GC
  std::atomic<std::int64_t> epoch_{0};               // streaming epoch clock
};

}  // namespace jstar

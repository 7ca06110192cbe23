// Per-table usage statistics (§1.5: "a logging system for recording usage
// statistics about each table during a program run").  Fed to the viz
// module to emit annotated dependency graphs, and used by the phase
// breakdown bench.
//
// JSTAR_TABLE_COUNTERS is the one declaration of the counters.  The live
// cells (TableStats), the plain value every report carries (Counters),
// the descriptor table the run log and tests iterate (kCounterFields) and
// the table sum (snapshot) all derive from it, so a new counter is one
// line below plus its increment sites.  It then shows up in RunReport,
// ShardStats/ShardedRunReport, query_stats(), EpochStats, StreamReport and
// the run-log JSON (under its own name as the key).
//
// Storage: every live counter is a ShardedCounter (util/sharded_counter.h,
// shared with the concurrent skip list's size), kCounterSlots relaxed
// atomics each on its own cache line.  A thread adds only into its own
// slot and a read sums the slots, so the workers firing one table's rules
// stop bouncing one shared line per derived tuple.  The price is
// kCounterSlots cache lines per counter (16 KiB per table) and a
// kCounterSlots-way sum per read.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/sharded_counter.h"

namespace jstar {

// X(name), in storage (and run-log key) order.  The notes are /* */
// comments: a // comment would swallow the line continuation.
#define JSTAR_TABLE_COUNTERS(X)                                               \
  X(puts)                 /* tuples put by rules/initial */                   \
  X(delta_inserts)        /* entered the Delta tree */                        \
  X(delta_dups)           /* discarded as batch duplicates */                 \
  X(gamma_inserts)        /* stored into Gamma */                             \
  X(gamma_dups)           /* set-semantics duplicates */                      \
  X(gamma_retired)        /* retired by retain(N) GC */                       \
  X(gamma_passed_through) /* -noGamma: accepted by a NullStore, not stored */ \
  X(fires)                /* rule invocations triggered */                    \
  X(queries)              /* query operations served */                       \
  X(pk_conflicts)         /* primary-key invariant hits */                    \
  X(index_lookups)        /* queries routed via an index */                   \
  X(full_scans)           /* queries that had to scan */                      \
  X(pk_probes)            /* planner: plans served by the pk index */         \
  X(range_scans)          /* planner: plans served by ordered range */        \
  X(empty_plans)          /* planner: contradictions, no data read */         \
  X(index_retired)        /* index entries swept by GC */                     \
  X(residual_rows)        /* tuples a routed plan examined */                 \
  X(residual_hits)        /* ...of which passed the filter */                 \
  X(columnar_kernels)     /* queries served by columnar kernels */            \
  X(columnar_rows)        /* rows the kernels swept */                        \
  X(columnar_selected)    /* ...the masks selected */                         \
  X(morsel_runs)          /* scans/kernels that split into morsels */         \
  X(morsel_splits)        /* total morsels dispatched */                      \
  X(retracts)             /* retract deltas processed */                      \
  X(gamma_erased)         /* tuples removed from Gamma */                     \
  X(retract_debts)        /* retract-before-insert debts */                   \
  X(annihilated)          /* inserts cancelled by debt */                     \
  X(upserts)              /* upsert deltas processed */                       \
  X(upsert_replaced)      /* ...that displaced a tuple */                     \
  X(emit_flushes)         /* flushes that bulk-appended >= 1 record */        \
  X(emit_buffered)        /* puts routed via emit buffers */                  \
  X(inline_batches)       /* fire phases run inline on the coordinator */

/// Plain-value copy of every counter: what reports carry, sum and diff.
struct Counters {
#define JSTAR_COUNTER_VALUE(name) std::int64_t name = 0;
  JSTAR_TABLE_COUNTERS(JSTAR_COUNTER_VALUE)
#undef JSTAR_COUNTER_VALUE

  Counters& operator+=(const Counters& o);
  friend Counters operator-(Counters a, const Counters& b);
  friend bool operator==(const Counters&, const Counters&) = default;
};

/// The live counters of one table: one ShardedCounter per counter.
struct TableStats {
#define JSTAR_COUNTER_CELLS(name) ShardedCounter name;
  JSTAR_TABLE_COUNTERS(JSTAR_COUNTER_CELLS)
#undef JSTAR_COUNTER_CELLS

  /// Relaxed snapshot of every counter.
  Counters load() const;
};

/// One counter: its name (also its run-log JSON key) and its field in
/// Counters and in TableStats.
struct CounterField {
  const char* name;
  std::int64_t Counters::*value;
  ShardedCounter TableStats::*live;
};

inline constexpr CounterField kCounterFields[] = {
#define JSTAR_COUNTER_FIELD(name) {#name, &Counters::name, &TableStats::name},
    JSTAR_TABLE_COUNTERS(JSTAR_COUNTER_FIELD)
#undef JSTAR_COUNTER_FIELD
};

inline Counters& Counters::operator+=(const Counters& o) {
  for (const CounterField& c : kCounterFields) this->*c.value += o.*c.value;
  return *this;
}

inline Counters operator-(Counters a, const Counters& b) {
  for (const CounterField& c : kCounterFields) a.*c.value -= b.*c.value;
  return a;
}

inline Counters TableStats::load() const {
  Counters out;
  for (const CounterField& c : kCounterFields) {
    out.*c.value = (this->*c.live).load(std::memory_order_relaxed);
  }
  return out;
}

/// Sums the counters of a range of tables (elements are pointers, owning
/// or not, to objects with stats()).
template <typename Tables>
Counters snapshot(const Tables& tables) {
  Counters out;
  for (const auto& t : tables) out += t->stats().load();
  return out;
}

}  // namespace jstar

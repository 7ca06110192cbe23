// The sharded (distributed) engine — §2 stage 3 made concrete.
//
// The paper's central claim is that strategy lives apart from the program:
// "the same Starlog program can be compiled for a single processor, a
// multicore, or a cluster" (the cluster exploration it cites as [7]).  This
// header is the cluster substrate in single-process form: N shards, each
// owning a private Engine (its own Delta tree and Gamma stores), exchanging
// tuples through double-buffered mailboxes (src/dist/mailbox.h).  All
// parallel shard engines share ONE fork/join pool, so the machine's thread
// count no longer multiplies by the shard count.
//
// Two execution modes, selected by ShardedOptions::mode — same program,
// same fixpoint, different schedule:
//
// BSP (the deterministic reference):
//   1. deliver every shard's inbound mail as *initial* puts (Engine::put,
//      the empty timestamp) — mail crosses superstep boundaries, so it can
//      never violate a shard's local causality order,
//   2. run every shard's engine to quiescence (threads in parallel mode,
//      round-robin on the calling thread in sequential mode),
//   3. barrier: drain the outboxes into the mailboxes; if any mail moved,
//      goto 1.
//   Message counts are deduped per (sender, destination, superstep) and are
//   a pure function of the program's derived tuple sets — fully
//   deterministic, which is why BSP stays as the reference schedule the
//   randomized differential tests compare against.
//
// Async (the pipelined schedule):
//   Every shard runs on its own long-lived worker thread in a loop:
//   drain own mailbox → deliver as initial puts → run engine to
//   quiescence → flush send batches → repeat.  There is no barrier: shard
//   A fires rules against epoch-3 mail while shard B is still computing
//   epoch 1.  Mail still only enters an engine *between*
//   runs-to-quiescence, so the BSP causality argument carries over
//   unchanged — which is why the async fixpoint is tuple-for-tuple
//   identical (tests/test_dist_async.cpp pins this against the sequential
//   and BSP references across hundreds of random programs).
//
//   The mailbox fabric is batched end to end (the fix for the wide-
//   workload regression where per-tuple pushes made async *lose* to BSP):
//   * sender side — a rule's send lands in a per-sender, per-destination
//     batch buffer; a batch is flushed as one Mailbox::push_all (one lock,
//     one bulk credit grant, at most one consumer wakeup) when it reaches
//     ShardedOptions::async_batch, and every remaining batch is flushed
//     after the shard's run-to-quiescence, before its credits are
//     returned (flush-before-idle),
//   * receiver side — a shard tops its drained epoch up to
//     ShardedOptions::min_drain_batch while more mail is arriving (and,
//     once it has seen bulk traffic, waits briefly for in-flight
//     flushes), so an engine run amortises over a real batch instead of
//     epoch-churning on single tuples,
//   * backpressure — each mailbox bounds its undrained depth
//     (ShardedOptions::mailbox_capacity, a bound on that box's share of
//     outstanding credits); producers over the bound wait for the
//     consumer, with a timed escape so producer↔consumer cycles cannot
//     deadlock (see mailbox.h).
//
//   Termination is detected by credit counting (Dijkstra–Scholten style):
//   a shared `unprocessed` counter holds one credit per undrained mailbox
//   tuple plus one initial token per shard.  Every mailbox push — bulk or
//   single — increments the counter *under the mailbox lock*, i.e. before
//   the tuple is drainable; a shard decrements its drained credits only
//   *after* its engine reached quiescence for that epoch AND its send
//   batches are flushed — so every send a rule makes is counted before
//   the credit that caused it is returned.  The bulk-credit argument for
//   why zero still proves global quiescence: a shard's batch buffers are
//   non-empty only while it is mid-epoch, and every running epoch holds
//   at least one unreturned credit (its drained mail, or the initial
//   token), so the counter cannot reach zero while any batched send is
//   still uncounted.  The shard that returns the last credit broadcasts
//   shutdown.  Per-shard poll/drain epochs, busy/idle seconds and wait
//   counts are reported in ShardedRunReport::shard_stats.
//
// Trade-offs (also see the "Sharded execution" section of README.md):
//   * BSP: deterministic message accounting, superstep == wavefront depth,
//     but every round pays a full barrier — shards idle behind the slowest
//     peer, and deep (high-diameter) programs pay one barrier per level.
//   * Async: no barrier, shards pipeline across epochs and message-heavy /
//     deep programs speed up (bench_dist_sharded measures BSP vs async);
//     message counts are deduped per (sender, destination, run) — still
//     deterministic, but not comparable superstep-by-superstep with BSP.
//   * Exceptions: if several shards throw, the lowest shard id's exception
//     propagates in BSP (deterministic in both sequential and threaded
//     supersteps); async aborts all shards and rethrows the lowest shard
//     id among the exceptions that were actually raised before shutdown.
//
// Set semantics does the heavy lifting for exactness in both modes:
// mailboxes dedup per (destination, epoch), senders dedup per destination
// within their window, and a redelivered tuple that already reached a
// shard's Gamma is a set-semantics duplicate there — it inserts nothing
// and fires no rules.  Hence a sharded run computes exactly the
// single-engine fixpoint, for any shard count and either schedule.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "dist/mailbox.h"
#include "sched/fork_join_pool.h"
#include "util/small_vec.h"
#include "util/timer.h"

namespace jstar::dist {

/// Hash partitioning of an integral key onto [0, shards).  The key is run
/// through the SplitMix64 finaliser (mix64) first, so clustered key ranges
/// (vertex ids, months, ...) still spread evenly; the cast to uint64 makes
/// negative keys well-defined.  Pure function of (key, shards) — callers rely on its
/// stability to route a tuple to the shard that owns its key.
inline int partition_of(std::int64_t key, int shards) {
  if (shards < 1) throw std::logic_error("partition_of: shards must be >= 1");
  const std::uint64_t z = mix64(static_cast<std::uint64_t>(key));
  return static_cast<int>(z % static_cast<std::uint64_t>(shards));
}

/// Which schedule drives the shards.
enum class ShardedMode {
  Bsp,    ///< barrier-synchronised supersteps (deterministic reference)
  Async,  ///< pipelined shard threads + credit-counting termination
};

/// Strategy knobs of the sharded substrate itself (the per-shard Engine
/// keeps its own EngineOptions — strategy stays apart from the program at
/// every layer).
struct ShardedOptions {
  ShardedMode mode = ShardedMode::Bsp;
  /// Worker count of the single fork/join pool shared by all parallel
  /// shard engines.  0 = EngineOptions::threads.  Ignored when the shard
  /// engines are sequential.
  int pool_threads = 0;

  // --- async fabric tuning (ignored in BSP mode) ---------------------------

  /// Sender-side flush threshold: a per-(sender, destination) batch is
  /// pushed into the destination mailbox once it holds this many tuples
  /// (and always after the sender's run-to-quiescence, before credits are
  /// returned).  <= 1 flushes every send immediately (the unbatched
  /// fabric of PR 2).
  std::int64_t async_batch = 256;
  /// Receiver-side batch floor: a shard tops up a freshly drained epoch
  /// while more mail is arriving (and, in the bulk regime, waits briefly
  /// for in-flight flushes) until it holds this many tuples.  <= 1 runs
  /// on whatever a single drain returned.
  std::int64_t min_drain_batch = 128;
  /// Backpressure bound on each mailbox's undrained depth — its share of
  /// the outstanding Dijkstra–Scholten credits.  Cross-shard flushes into
  /// a box at or over the bound wait (timed, deadlock-free; see
  /// mailbox.h) for the consumer to drain.  0 = unbounded.
  std::int64_t mailbox_capacity = 1 << 15;
};

/// Per-shard execution counters of one run (both modes fill them).  The
/// Counters base sums the RunReport deltas of the shard's engine runs.
struct ShardStats : Counters {
  std::int64_t polls = 0;           ///< mailbox drain calls, empty included
  std::int64_t drains = 0;          ///< non-empty mailbox drain epochs
  std::int64_t drained_tuples = 0;  ///< tuples delivered from the mailbox
  std::int64_t runs = 0;            ///< engine runs to quiescence
  std::int64_t idle_waits = 0;      ///< async: times the shard slept for mail
  std::int64_t batches = 0;         ///< Delta batches of the engine runs
  std::int64_t tuples = 0;          ///< tuples those runs took out of Delta
  double busy_seconds = 0.0;        ///< deliver + engine-run wall time
  double idle_seconds = 0.0;        ///< async: wall time blocked for mail
};

/// Summary of one ShardedEngine::run().  The Counters base is the sum of
/// the shard_stats counters (every shard engine run's RunReport delta).
struct ShardedRunReport : Counters {
  /// BSP: rounds executed (>= 1).  Async: the deepest per-shard epoch
  /// count (>= 1) — the pipelined analogue of the wavefront depth.
  int supersteps = 0;
  /// Total non-empty drain epochs summed over shards.  In BSP this is the
  /// number of (shard, superstep) pairs that actually had mail.
  std::int64_t epochs = 0;
  std::int64_t messages = 0;     // cross-shard tuples, deduped per sender
  std::int64_t local_messages = 0;  // self-sends routed through the mailbox
  std::int64_t local_batches = 0;   // Delta batches summed over all shards
  std::int64_t local_tuples = 0;    // tuples taken out of Delta, all shards
  double seconds = 0.0;
  std::vector<ShardStats> shard_stats;  // one entry per shard
};

/// Cluster-wide roll-up of the table counters, summed over every table
/// of every shard engine: for example how the planner routed rule-body
/// lookups across the cluster.  Indexes are built *per shard* (each
/// shard's setup callback declares them on its private tables), so the
/// access-path counters also prove per-shard index construction took
/// effect.
using ClusterQueryStats = Counters;

template <typename T>
class ShardedEngine;

/// A shard's outbox: `send(dest, t)` enqueues `t` for delivery to shard
/// `dest`.  Thread-safe (rules fire from fork/join tasks in parallel mode)
/// and set-semantics deduped per destination, so message counts are
/// deterministic.  The dedup window is one superstep in BSP mode and the
/// whole run in async mode (there are no supersteps to scope it to; the
/// wider window can only suppress redundant redeliveries).
///
/// In BSP mode sends are buffered until the barrier.  In async mode a
/// fresh send lands in a per-destination batch buffer; the batch reaches
/// the destination's mailbox as one bulk push when it hits the flush
/// threshold (ShardedOptions::async_batch) — and always after the owning
/// shard's run-to-quiescence, *before* that epoch's credits are returned,
/// which is what keeps the Dijkstra–Scholten counter sound under
/// batching (see the header comment).
template <typename T>
class Sender {
 public:
  void send(int dest, const T& tuple) {
    if (dest < 0 || dest >= static_cast<int>(out_.size())) {
      throw std::out_of_range("Sender::send: shard " + std::to_string(dest) +
                              " out of range [0, " +
                              std::to_string(out_.size()) + ")");
    }
    if (!async_) {
      std::lock_guard<std::mutex> lk(mu_);
      out_[static_cast<std::size_t>(dest)].insert(tuple);
      return;
    }
    std::vector<T> flush;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!out_[static_cast<std::size_t>(dest)].insert(tuple).second) {
        return;  // already sent this run
      }
      std::vector<T>& batch = batch_[static_cast<std::size_t>(dest)];
      batch.push_back(tuple);
      if (static_cast<std::int64_t>(batch.size()) < batch_limit_) return;
      flush.swap(batch);  // deliver outside the sender lock
    }
    fabric_->async_send_batch(self_, dest, flush);
  }

  /// Sends a signed delta (+1 insert, negative retract, or the receiver
  /// table's upsert sentinel) for a counted table.  Signed sends bypass
  /// EVERY dedup layer — the sender window here, and the mailbox's
  /// drain-side sort+unique — because exact multiplicities are the
  /// payload: two schedules deduping over different windows would
  /// deliver different counts and the shards would diverge.  Counted
  /// tables must route ALL their cross-shard traffic (inserts included)
  /// through this lane for the same reason.
  void send_signed(int dest, const T& tuple, std::int32_t sign) {
    if (dest < 0 || dest >= static_cast<int>(signed_out_.size())) {
      throw std::out_of_range("Sender::send_signed: shard " +
                              std::to_string(dest) + " out of range [0, " +
                              std::to_string(signed_out_.size()) + ")");
    }
    if (!async_) {
      std::lock_guard<std::mutex> lk(mu_);
      signed_out_[static_cast<std::size_t>(dest)].emplace_back(tuple, sign);
      return;
    }
    std::vector<std::pair<T, std::int32_t>> flush;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto& batch = signed_batch_[static_cast<std::size_t>(dest)];
      batch.emplace_back(tuple, sign);
      if (static_cast<std::int64_t>(batch.size()) < batch_limit_) return;
      flush.swap(batch);  // deliver outside the sender lock
    }
    fabric_->async_send_signed_batch(self_, dest, flush);
  }

 private:
  friend class ShardedEngine<T>;

  Sender(int self, int shards, bool async, std::int64_t batch_limit,
         ShardedEngine<T>* fabric)
      : self_(self),
        async_(async),
        batch_limit_(std::max<std::int64_t>(1, batch_limit)),
        fabric_(fabric),
        out_(static_cast<std::size_t>(shards)),
        batch_(async ? static_cast<std::size_t>(shards) : 0),
        signed_out_(static_cast<std::size_t>(shards)),
        signed_batch_(async ? static_cast<std::size_t>(shards) : 0) {}

  /// Flush-before-idle: drains every per-destination batch into the
  /// mailboxes.  The owning shard's worker calls this after each
  /// run-to-quiescence and before returning the epoch's credits, so no
  /// send can be buffered-but-uncounted once the shard goes idle.
  void flush_all() {
    for (std::size_t d = 0; d < batch_.size(); ++d) {
      std::vector<T> flush;
      {
        std::lock_guard<std::mutex> lk(mu_);
        flush.swap(batch_[d]);
      }
      if (!flush.empty()) {
        fabric_->async_send_batch(self_, static_cast<int>(d), flush);
      }
    }
    for (std::size_t d = 0; d < signed_batch_.size(); ++d) {
      std::vector<std::pair<T, std::int32_t>> flush;
      {
        std::lock_guard<std::mutex> lk(mu_);
        flush.swap(signed_batch_[d]);
      }
      if (!flush.empty()) {
        fabric_->async_send_signed_batch(self_, static_cast<int>(d), flush);
      }
    }
  }

  const int self_;
  const bool async_;
  const std::int64_t batch_limit_;
  ShardedEngine<T>* const fabric_;
  std::mutex mu_;
  // BSP: per-destination outbox, drained at the barrier.
  // Async: per-destination already-sent window for this run.
  std::vector<std::set<T>> out_;
  // Async only: per-destination pending batch (admitted through the dedup
  // window, not yet pushed to the mailbox).
  std::vector<std::vector<T>> batch_;
  // Signed lane (counted tables): never deduped at any layer.
  // BSP: per-destination signed outbox, drained at the barrier.
  std::vector<std::vector<std::pair<T, std::int32_t>>> signed_out_;
  // Async only: per-destination pending signed batch.
  std::vector<std::vector<std::pair<T, std::int32_t>>> signed_batch_;
};

/// N private Engines plus the mailbox fabric between them.  The setup
/// callback is invoked once per shard at construction time; it declares
/// that shard's tables and rules and returns the Deliver function the
/// fabric uses to hand inbound mail to the shard as initial puts.
template <typename T>
class ShardedEngine {
 public:
  /// Hands one inbound tuple to a shard (typically `eng.put(table, t)`).
  using Deliver = std::function<void(const T&)>;
  /// Hands one inbound *signed* delta to a shard (typically
  /// `table.seed_signed(t, sign)` on a counted table).  Only needed by
  /// programs using the signed lane (Sender::send_signed / seed_signed).
  using DeliverSigned = std::function<void(const T&, std::int32_t)>;
  using Setup = std::function<Deliver(int shard, Engine&, Sender<T>&)>;

  /// Both delivery seams of one shard, as returned by SetupHooks.
  struct ShardHooks {
    Deliver deliver;                // unsigned mail
    DeliverSigned deliver_signed;   // signed mail; may be null
  };
  using SetupHooks = std::function<ShardHooks(int shard, Engine&, Sender<T>&)>;

  ShardedEngine(int shards, const EngineOptions& opts, const Setup& setup)
      : ShardedEngine(shards, opts, ShardedOptions{}, setup) {}

  ShardedEngine(int shards, const EngineOptions& opts,
                const ShardedOptions& sopts, const Setup& setup)
      : ShardedEngine(shards, opts, sopts,
                      SetupHooks([&setup](int s, Engine& eng, Sender<T>& snd) {
                        return ShardHooks{setup(s, eng, snd), nullptr};
                      })) {}

  ShardedEngine(int shards, const EngineOptions& opts,
                const ShardedOptions& sopts, const SetupHooks& setup)
      : shards_(shards), sopts_(sopts) {
    if (shards < 1) {
      throw std::logic_error("ShardedEngine: shard count must be >= 1, got " +
                             std::to_string(shards));
    }
    if (!opts.sequential) {
      const int pool_threads =
          sopts_.pool_threads > 0 ? sopts_.pool_threads : opts.threads;
      shared_pool_ = std::make_unique<sched::ForkJoinPool>(pool_threads);
    }
    const bool async = sopts_.mode == ShardedMode::Async;
    engines_.reserve(static_cast<std::size_t>(shards));
    senders_.reserve(static_cast<std::size_t>(shards));
    deliver_.reserve(static_cast<std::size_t>(shards));
    mailboxes_.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      engines_.push_back(std::make_unique<Engine>(opts, shared_pool_.get()));
      senders_.push_back(std::unique_ptr<Sender<T>>(
          new Sender<T>(s, shards, async, sopts_.async_batch, this)));
      mailboxes_.push_back(std::make_unique<Mailbox<T>>());
      if (async) mailboxes_.back()->set_capacity(sopts_.mailbox_capacity);
      ShardHooks hooks = setup(s, *engines_.back(), *senders_.back());
      deliver_.push_back(std::move(hooks.deliver));
      deliver_signed_.push_back(std::move(hooks.deliver_signed));
    }
  }

  int shards() const { return shards_; }
  const ShardedOptions& sharded_options() const { return sopts_; }
  Engine& engine(int shard) { return *engines_.at(static_cast<std::size_t>(shard)); }

  /// Sums the table counters over every shard's tables.  Only meaningful
  /// while the cluster is quiescent (between run()s) — shard workers bump
  /// the counters concurrently during a run.
  ClusterQueryStats query_stats() const {
    Counters out;
    for (const auto& eng : engines_) out += snapshot(eng->all_tables());
    return out;
  }

  /// Stages a tuple for delivery to `shard` at the start of the next
  /// run().  Seeds dedup under set semantics like all mail, and do not
  /// count as messages (they never crossed a shard boundary).
  void seed(int shard, const T& tuple) {
    if (shard < 0 || shard >= shards_) {
      throw std::out_of_range("ShardedEngine::seed: shard " +
                              std::to_string(shard) + " out of range [0, " +
                              std::to_string(shards_) + ")");
    }
    mailboxes_[static_cast<std::size_t>(shard)]->push(tuple);
  }

  /// Stages a signed delta (insert/retract/upsert of a counted table) for
  /// delivery to `shard` at the start of the next run().  Travels the
  /// signed lane: never deduped, exact multiplicities delivered.  The
  /// shard's setup must have returned a DeliverSigned hook.
  void seed_signed(int shard, const T& tuple, std::int32_t sign) {
    if (shard < 0 || shard >= shards_) {
      throw std::out_of_range("ShardedEngine::seed_signed: shard " +
                              std::to_string(shard) + " out of range [0, " +
                              std::to_string(shards_) + ")");
    }
    mailboxes_[static_cast<std::size_t>(shard)]->push_signed(tuple, sign);
  }

  /// Opens the next streaming epoch on every shard engine in lockstep:
  /// advances each Engine's epoch clock and retires Gamma tuples that fell
  /// out of any retain(N) window.  Returns the new (common) epoch.  Called
  /// by the sharded streaming loop (src/stream/streaming.h) once per
  /// ingestion slice; one-shot clusters never need it.
  std::int64_t begin_epoch() {
    std::int64_t e = 0;
    for (auto& eng : engines_) e = eng->begin_epoch();
    return e;
  }

  /// Runs the cluster to its fixpoint under the configured mode.  Always
  /// executes at least one engine run per shard, so tuples put directly
  /// during setup reach their fixpoint even with no seeds.  May be called
  /// repeatedly: later seeds + runs continue the same per-shard databases,
  /// mirroring Engine::run()'s event-driven contract.
  ShardedRunReport run() {
    return sopts_.mode == ShardedMode::Async ? run_async() : run_bsp();
  }

 private:
  friend class Sender<T>;

  // --- shared helpers ------------------------------------------------------

  /// Delivers one drained epoch to shard `s` and runs its engine to
  /// quiescence, accumulating into that shard's stats slot.  `mail` is
  /// deduped by Mailbox::drain; `signed_mail` arrives verbatim (exact
  /// multiplicities) and is handed to the shard's DeliverSigned hook.
  void run_shard_epoch(
      std::size_t s, const std::vector<T>& mail,
      const std::vector<std::pair<T, std::int32_t>>& signed_mail,
      ShardStats& st) {
    WallTimer busy;
    if (!mail.empty() || !signed_mail.empty()) {
      ++st.drains;
      st.drained_tuples += static_cast<std::int64_t>(mail.size()) +
                           static_cast<std::int64_t>(signed_mail.size());
    }
    ++st.runs;
    if (deliver_[s]) {
      for (const T& t : mail) deliver_[s](t);
    }
    if (!signed_mail.empty()) {
      if (!deliver_signed_[s]) {
        throw std::logic_error(
            "shard " + std::to_string(s) +
            " received signed mail but its setup returned no DeliverSigned "
            "hook");
      }
      for (const auto& [t, sign] : signed_mail) deliver_signed_[s](t, sign);
    }
    const RunReport r = engines_[s]->run();
    st.batches += r.batches;
    st.tuples += r.tuples;
    st += r;
    st.busy_seconds += busy.seconds();
  }

  /// Rethrows the lowest-shard-id exception, if any.  Keeping propagation
  /// keyed on the shard id (not on which thread lost the race) makes
  /// multi-shard failures deterministic.
  static void rethrow_lowest(std::vector<std::exception_ptr>& errors) {
    for (auto& err : errors) {
      if (err) std::rethrow_exception(err);
    }
  }

  static void finalize_report(ShardedRunReport& report) {
    report.supersteps = std::max(report.supersteps, 1);
    for (const ShardStats& st : report.shard_stats) {
      report.epochs += st.drains;
      report.local_batches += st.batches;
      report.local_tuples += st.tuples;
      report += st;
    }
  }

  // --- BSP mode ------------------------------------------------------------

  /// One BSP round: every shard drains its mailbox, delivers and runs.
  /// Parallel mode puts each shard on its own thread (their engines share
  /// only the fork/join pool); sequential mode visits shards round-robin
  /// on the calling thread.  Threads are spawned per round: shard counts
  /// are small and each thread amortises a full engine run to fixpoint, so
  /// spawn cost is noise next to the work (the async mode is the persistent
  /// upgrade path).  Exceptions are collected per shard and the lowest
  /// shard id's is rethrown — in sequential mode the remaining shards
  /// still run their round first, so both paths fail identically.
  void superstep(ShardedRunReport& report) {
    const auto n = static_cast<std::size_t>(shards_);
    std::vector<std::exception_ptr> errors(n);
    if (engines_[0]->options().sequential || shards_ == 1) {
      for (std::size_t s = 0; s < n; ++s) {
        try {
          const auto drained = mailboxes_[s]->drain();
          ++report.shard_stats[s].polls;
          run_shard_epoch(s, drained.mail, drained.signed_mail,
                          report.shard_stats[s]);
        } catch (...) {
          errors[s] = std::current_exception();
        }
      }
    } else {
      std::vector<std::thread> threads;
      threads.reserve(n);
      for (std::size_t s = 0; s < n; ++s) {
        threads.emplace_back([this, s, &report, &errors] {
          try {
            const auto drained = mailboxes_[s]->drain();
            ++report.shard_stats[s].polls;
            run_shard_epoch(s, drained.mail, drained.signed_mail,
                            report.shard_stats[s]);
          } catch (...) {
            errors[s] = std::current_exception();
          }
        });
      }
      for (auto& th : threads) th.join();
    }
    rethrow_lowest(errors);
  }

  /// The barrier: drains every sender's outboxes into the destination
  /// mailboxes.  Counting happens per (sender, destination) before the
  /// cross-sender merge, so `messages` is a pure function of the derived
  /// tuple sets — deterministic across runs and strategies.  Returns the
  /// number of tuples moved (pre-merge), zero meaning quiescence.
  std::int64_t exchange(ShardedRunReport& report) {
    std::int64_t moved = 0;
    for (std::size_t s = 0; s < senders_.size(); ++s) {
      Sender<T>& sender = *senders_[s];
      std::lock_guard<std::mutex> lk(sender.mu_);
      for (std::size_t d = 0; d < sender.out_.size(); ++d) {
        std::set<T>& out = sender.out_[d];
        if (!out.empty()) {
          const auto count = static_cast<std::int64_t>(out.size());
          if (d == s) {
            report.local_messages += count;
          } else {
            report.messages += count;
          }
          moved += count;
          mailboxes_[d]->push_all(out.begin(), out.end());
          out.clear();
        }
        auto& sout = sender.signed_out_[d];
        if (!sout.empty()) {
          // The signed lane moves verbatim — counting it raw keeps the
          // message totals a pure function of the signed traffic.
          const auto count = static_cast<std::int64_t>(sout.size());
          if (d == s) {
            report.local_messages += count;
          } else {
            report.messages += count;
          }
          moved += count;
          mailboxes_[d]->push_all_signed(sout.begin(), sout.end());
          sout.clear();
        }
      }
    }
    return moved;
  }

  ShardedRunReport run_bsp() {
    WallTimer timer;
    ShardedRunReport report;
    report.shard_stats.resize(static_cast<std::size_t>(shards_));
    bool first = true;
    std::int64_t moved = 0;
    while (first || moved > 0) {
      first = false;
      ++report.supersteps;
      superstep(report);
      moved = exchange(report);
    }
    finalize_report(report);
    report.seconds = timer.seconds();
    return report;
  }

  // --- async mode ----------------------------------------------------------

  /// Called by Sender in async mode with a batch the per-sender dedup
  /// window admitted.  One bulk push grants the in-flight credits under
  /// the destination's mailbox lock and wakes its consumer at most once;
  /// the message counters move by the whole batch.  Self-delivery skips
  /// the backpressure throttle — the pushing thread is (or feeds) the
  /// very consumer that must drain this box, so waiting on itself could
  /// only burn the timeout.
  void async_send_batch(int src, int dest, const std::vector<T>& batch) {
    mailboxes_[static_cast<std::size_t>(dest)]->push_all(
        batch.begin(), batch.end(), /*throttle=*/src != dest);
    const auto n = static_cast<std::int64_t>(batch.size());
    if (src == dest) {
      async_local_messages_.fetch_add(n, std::memory_order_relaxed);
    } else {
      async_messages_.fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// Signed-lane twin of async_send_batch: same credit/backpressure
  /// discipline, no dedup anywhere.
  void async_send_signed_batch(
      int src, int dest,
      const std::vector<std::pair<T, std::int32_t>>& batch) {
    mailboxes_[static_cast<std::size_t>(dest)]->push_all_signed(
        batch.begin(), batch.end(), /*throttle=*/src != dest);
    const auto n = static_cast<std::int64_t>(batch.size());
    if (src == dest) {
      async_local_messages_.fetch_add(n, std::memory_order_relaxed);
    } else {
      async_messages_.fetch_add(n, std::memory_order_relaxed);
    }
  }

  bool stopping() const {
    return done_.load(std::memory_order_acquire) ||
           abort_.load(std::memory_order_acquire);
  }

  /// Merges a second drained epoch into the first (both unsigned sides
  /// arrive sorted + deduped from Mailbox::drain); credits add raw.  The
  /// signed lanes concatenate in drain order — never sorted or deduped,
  /// multiplicities are the payload.
  static void merge_drained(typename Mailbox<T>::Drained& into,
                            typename Mailbox<T>::Drained&& more) {
    into.credits += more.credits;
    into.signed_mail.insert(into.signed_mail.end(), more.signed_mail.begin(),
                            more.signed_mail.end());
    if (more.mail.empty()) return;
    const auto mid =
        static_cast<typename std::vector<T>::difference_type>(
            into.mail.size());
    into.mail.insert(into.mail.end(), more.mail.begin(), more.mail.end());
    std::inplace_merge(into.mail.begin(), into.mail.begin() + mid,
                       into.mail.end());
    into.mail.erase(std::unique(into.mail.begin(), into.mail.end()),
                    into.mail.end());
  }

  /// The long-lived shard worker: drain (+ min-batch top-up) → deliver →
  /// run-to-quiescence → flush send batches → return credits, sleeping
  /// only when the mailbox is empty and the initial token is spent.  The
  /// worker that returns the last credit detects global quiescence and
  /// broadcasts shutdown.
  void async_shard_loop(std::size_t s, ShardStats& st) {
    Mailbox<T>& box = *mailboxes_[s];
    Sender<T>& sender = *senders_[s];
    const auto stop = [this] { return stopping(); };
    const std::int64_t min_batch =
        std::max<std::int64_t>(1, sopts_.min_drain_batch);
    // How long to wait for an in-flight flush when topping up a small
    // epoch in the bulk regime.  Short on purpose: it only trims epoch
    // churn, it must never become a pipeline stall.
    constexpr auto kTopUpWait = std::chrono::microseconds(200);
    bool token = true;   // covers the first run (setup-time puts)
    bool bulk = false;   // hysteresis: the previous epoch met min_batch
    while (!stopping()) {
      typename Mailbox<T>::Drained d = box.drain();
      ++st.polls;
      const auto drained_size = [&d] {
        return static_cast<std::int64_t>(d.mail.size()) +
               static_cast<std::int64_t>(d.signed_mail.size());
      };
      if (drained_size() == 0 && !token) {
        ++st.idle_waits;
        WallTimer idle;
        box.wait(stop);
        st.idle_seconds += idle.seconds();
        continue;
      }
      // Receiver-side min-batch: top up from mail that arrived during
      // the drain itself (free), and — only once bulk traffic has been
      // seen — wait briefly for an in-flight flush.  A latency-bound
      // pipeline (deep workloads: one or two tuples per epoch) never
      // sets `bulk`, so it never pays the wait.
      if (drained_size() > 0) {
        bool waited = false;
        while (drained_size() < min_batch && !stopping()) {
          if (!box.has_mail()) {
            if (!bulk || waited) break;
            waited = true;
            WallTimer idle;
            const bool got = box.wait_for(kTopUpWait, stop);
            st.idle_seconds += idle.seconds();
            if (!got) break;
          }
          typename Mailbox<T>::Drained more = box.drain();
          ++st.polls;
          merge_drained(d, std::move(more));
        }
        bulk = drained_size() >= min_batch;
      }
      const std::int64_t credit = d.credits + (token ? 1 : 0);
      token = false;
      try {
        run_shard_epoch(s, d.mail, d.signed_mail, st);
      } catch (...) {
        errors_[s] = std::current_exception();
        abort_.store(true, std::memory_order_release);
        for (auto& mb : mailboxes_) mb->poke();
        return;
      }
      // Flush-before-idle, then return the credits: every send this
      // epoch's rules made is now in a mailbox and counted, so hitting
      // zero proves global quiescence (empty mailboxes, empty batch
      // buffers, every shard idle).
      sender.flush_all();
      if (unprocessed_.fetch_sub(credit, std::memory_order_acq_rel) ==
          credit) {
        done_.store(true, std::memory_order_release);
        for (auto& mb : mailboxes_) mb->poke();
      }
    }
  }

  ShardedRunReport run_async() {
    WallTimer timer;
    ShardedRunReport report;
    const auto n = static_cast<std::size_t>(shards_);
    report.shard_stats.resize(n);
    done_.store(false, std::memory_order_relaxed);
    abort_.store(false, std::memory_order_relaxed);
    errors_.assign(n, nullptr);
    async_messages_.store(0, std::memory_order_relaxed);
    async_local_messages_.store(0, std::memory_order_relaxed);
    for (auto& sender : senders_) {
      std::lock_guard<std::mutex> lk(sender->mu_);
      for (auto& window : sender->out_) window.clear();
      // Batches left by an aborted run would double-deliver (and carry
      // stale credits) if they leaked into this run.
      for (auto& batch : sender->batch_) batch.clear();
      for (auto& sout : sender->signed_out_) sout.clear();
      for (auto& batch : sender->signed_batch_) batch.clear();
    }
    // Initial credits: one token per shard plus the mail (seeds or
    // leftovers from a previous event-driven run) already staged.  The
    // counter must be primed before it is attached, and attached before
    // any worker can push.
    std::int64_t credits = shards_;
    for (auto& mb : mailboxes_) credits += mb->pending_size();
    unprocessed_.store(credits, std::memory_order_release);
    for (auto& mb : mailboxes_) mb->set_pending_counter(&unprocessed_);

    std::vector<std::thread> workers;
    workers.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      workers.emplace_back(
          [this, s, &report] { async_shard_loop(s, report.shard_stats[s]); });
    }
    for (auto& th : workers) th.join();
    for (auto& mb : mailboxes_) mb->set_pending_counter(nullptr);
    rethrow_lowest(errors_);

    report.messages = async_messages_.load(std::memory_order_relaxed);
    report.local_messages =
        async_local_messages_.load(std::memory_order_relaxed);
    for (const ShardStats& st : report.shard_stats) {
      report.supersteps =
          std::max(report.supersteps, static_cast<int>(st.drains));
    }
    finalize_report(report);
    report.seconds = timer.seconds();
    return report;
  }

  const int shards_;
  const ShardedOptions sopts_;
  std::unique_ptr<sched::ForkJoinPool> shared_pool_;  // null when sequential
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::unique_ptr<Sender<T>>> senders_;
  std::vector<std::unique_ptr<Mailbox<T>>> mailboxes_;
  std::vector<Deliver> deliver_;
  std::vector<DeliverSigned> deliver_signed_;

  // Async-run state.
  std::atomic<std::int64_t> unprocessed_{0};
  std::atomic<bool> done_{false};
  std::atomic<bool> abort_{false};
  std::atomic<std::int64_t> async_messages_{0};
  std::atomic<std::int64_t> async_local_messages_{0};
  std::vector<std::exception_ptr> errors_;
};

}  // namespace jstar::dist

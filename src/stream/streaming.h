// Streaming execution — the long-lived form of the engine (ROADMAP north
// star: a service absorbing heavy traffic, not a one-shot batch job).
//
// The paper's engine (§3, §5) runs a program to fixpoint exactly once; its
// event-driven contract (later puts + runs continue the same database) is
// already incremental per batch.  This subsystem closes the loop into a
// *stream*: external producers publish tuples from any thread into a
// multi-producer Disruptor ring (src/disruptor/mp_ring_buffer.h — Table 1's
// "multiple producers" alternative used as the ingestion edge), and a
// long-lived consumer thread chops the stream into **epochs**:
//
//   wait for input → begin_epoch → drain a bounded slice of the ring →
//   deliver as initial puts → run the all-minimums strategy to fixpoint →
//   publish per-epoch stats → repeat.
//
// Correctness is the same pseudo-naive delta argument as the sharded
// mailboxes: stream input only enters the engine *between*
// runs-to-quiescence, as initial puts (the empty causality timestamp), so
// an epoch's causality keys never compare against a previous epoch's, and
// set semantics makes any redelivered tuple a no-op.  Hence the streaming
// fixpoint over any epoch slicing equals the one-shot batch fixpoint —
// pinned tuple-for-tuple by tests/test_streaming_differential.cpp across
// sequential / BSP / async × shard counts.
//
// Memory stays bounded under an infinite stream via TableDecl::retain(N)
// (windowed Gamma GC over the Engine::begin_epoch clock, generalising
// -noGamma; see core/table.h and core/window_store.h).
//
// Streams over TableDecl::counted() tables also carry **retractions and
// upserts**: publish_retract()/publish_upsert() ride the same ordered ring
// as publish(), each epoch slice preserves per-producer publish order, and
// the signed tuples enter the engine through the SetupHooks deliver_signed
// lane (seed_signed / the sharded mailbox signed lane), so the streaming
// fixpoint over any slicing still equals the one-shot batch fixpoint of
// the same net counts.
//
// Consumer API: rules emit results through the Emit handle passed to the
// setup callback; callers take them with poll() (non-blocking) or drain()
// (block until every tuple published so far has been folded into a
// completed epoch fixpoint, then poll).  report() snapshots cumulative
// StreamReport stats; poll_epochs() drains the per-epoch log.
//
// Two front-ends over the same epoch loop (detail::StreamBase):
//   * StreamingEngine<T, Out>        — one Engine (sequential or parallel),
//   * ShardedStreamingEngine<T, Out> — a ShardedEngine cluster (BSP or
//     async schedule, one shared fork/join pool), with a route function
//     assigning each ingested tuple to its owner shard.
#pragma once

#include <bitset>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <iterator>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "disruptor/mp_ring_buffer.h"
#include "dist/sharded.h"
#include "util/check.h"
#include "util/timer.h"

namespace jstar::stream {

/// Strategy knobs of the streaming substrate itself (the wrapped engine
/// keeps its own EngineOptions / ShardedOptions — strategy stays apart
/// from the program at every layer).
struct StreamOptions {
  /// Ingestion ring capacity (power of two).  Producers block when the
  /// consumer falls this far behind — natural backpressure.
  std::size_t ring_capacity = 1024;
  /// Upper bound on tuples drained per epoch.  Small slices keep retain(N)
  /// windows fine-grained and epoch latency low; large slices amortise the
  /// per-epoch fixpoint cost (bench_streaming sweeps this).
  std::int64_t max_epoch_tuples = 512;
  /// How the consumer (and blocked producers) wait on the ring.
  disruptor::WaitStrategy wait = disruptor::WaitStrategy::Blocking;
  /// Completed-epoch log retention for poll_epochs(); the oldest entries
  /// are dropped (and counted) beyond this, so an unpolled stream does not
  /// leak.
  std::size_t epoch_log_capacity = 1024;
};

/// What one completed epoch did, apart from its table counters.
struct EpochHead {
  std::int64_t epoch = 0;     ///< Engine::begin_epoch clock value
  std::int64_t ingested = 0;  ///< tuples drained from the ring
  std::int64_t batches = 0;   ///< Delta batches of the fixpoint run
  std::int64_t tuples = 0;    ///< tuples taken out of Delta
  std::int64_t messages = 0;  ///< cross-shard messages (sharded only)
  /// Non-empty mailbox drain epochs inside the cluster fixpoint (sharded
  /// only) — the fabric-churn counter the async batching collapses.  Idle
  /// polls never inflate it (ShardStats::drains semantics).
  std::int64_t mail_epochs = 0;
  double seconds = 0.0;       ///< deliver + run wall time
};

/// Stats of one completed epoch.  The Counters base is how much every
/// table counter moved from just before the epoch opened (so it includes
/// retain(N) GC at begin_epoch) to the end of its fixpoint.
struct EpochStats : EpochHead, Counters {};

/// Cumulative stats of a stream (all epochs so far); the Counters base
/// sums the epochs' counters.
struct StreamReport : Counters {
  std::int64_t epochs = 0;
  std::int64_t ingested = 0;
  std::int64_t batches = 0;
  std::int64_t tuples = 0;
  std::int64_t messages = 0;
  std::int64_t mail_epochs = 0;  ///< cumulative cluster drain epochs
  std::int64_t max_epoch_ingested = 0;
  std::int64_t epoch_log_dropped = 0;  ///< per-epoch entries aged out
  double busy_seconds = 0.0;

  void absorb(const EpochStats& e);
  /// Sustained ingest rate over busy time (the bench headline).
  double tuples_per_second() const;
  std::string summary() const;
};

namespace detail {

/// Ring envelope: a stream tuple or the shutdown poison pill stop() sends
/// through the same ordered channel (so shutdown drains everything
/// published before it).  `sign` carries the tuple's delta polarity for
/// counted tables: +1 insert, -1 retraction, kUpsertSign upsert (same
/// sentinel as Table<T>::kUpsertSign).  Retractions ride the same ordered
/// ring as insertions, so a publish()/publish_retract() pair from one
/// producer is folded into epochs in publish order.
template <typename T>
struct Envelope {
  T value{};
  std::int32_t sign = 1;
  bool poison = false;
};

/// Upsert sentinel for Envelope::sign; equals Table<T>::kUpsertSign.
constexpr std::int32_t kStreamUpsertSign =
    std::numeric_limits<std::int32_t>::min();

/// The multi-producer ingestion edge: publish() from any thread, one
/// consumer draining bounded slices in publish order.
template <typename T>
class IngestQueue {
 public:
  IngestQueue(std::size_t capacity, disruptor::WaitStrategy wait)
      : ring_(capacity, wait) {
    cid_ = ring_.add_consumer();
  }

  void publish(const T& t, std::int32_t sign = 1) {
    const std::int64_t seq = ring_.claim();
    Envelope<T>& env = ring_.slot(seq);
    env.value = t;
    env.sign = sign;
    env.poison = false;
    ring_.publish(seq);
  }

  void publish_poison() {
    const std::int64_t seq = ring_.claim();
    ring_.slot(seq).poison = true;
    ring_.publish(seq);
  }

  /// Consumer side: blocks until at least one envelope is published.
  void wait_ready() { (void)ring_.wait_for(next_); }

  /// True when an envelope is ready without blocking.
  bool ready() const { return ring_.is_available(next_); }

  /// Hands up to `max` envelopes to `deliver` in publish order (poison
  /// pills are counted into *saw_poison instead).  Must be preceded by
  /// wait_ready()/ready().  Returns the number of tuples delivered.
  std::int64_t consume_slice(
      std::int64_t max,
      const std::function<void(const T&, std::int32_t)>& deliver,
      bool* saw_poison) {
    const std::int64_t hi = ring_.wait_for(next_);
    const std::int64_t slice_hi = std::min(hi, next_ + max - 1);
    std::int64_t n = 0;
    for (std::int64_t s = next_; s <= slice_hi; ++s) {
      Envelope<T>& env = ring_.slot(s);
      if (env.poison) {
        *saw_poison = true;
      } else {
        deliver(env.value, env.sign);
        ++n;
      }
    }
    // Commit frees the slots for producers; the epoch's tuples are already
    // copied into the engine's Delta set by deliver.
    ring_.commit(cid_, slice_hi);
    consumed_ = slice_hi;
    next_ = slice_hi + 1;
    return n;
  }

  /// Highest sequence any producer has claimed (the drain() barrier
  /// target) and the highest sequence the consumer has taken.
  std::int64_t claimed() const { return ring_.claimed(); }
  std::int64_t consumed() const { return consumed_; }

 private:
  disruptor::MpRingBuffer<Envelope<T>> ring_;
  int cid_ = -1;
  std::int64_t next_ = 0;       // consumer-only
  std::int64_t consumed_ = -1;  // consumer-only
};

/// CRTP core shared by StreamingEngine and ShardedStreamingEngine: the
/// ingestion ring, the epoch loop thread, the output channel and the
/// stats/drain plumbing.  Derived implements the epoch hooks:
///   Counters counters();           // table counters summed over engines
///   std::int64_t epoch_begin();
///   void epoch_deliver(const T&, std::int32_t sign);
///   EpochStats epoch_fixpoint();   // fills batches/tuples/messages
template <typename T, typename Out, typename Derived>
class StreamBase {
 public:
  using Emit = std::function<void(const Out&)>;

  /// Publishes one tuple into the stream.  Callable from any thread while
  /// the stream runs; blocks when the ring is full (backpressure).  Must
  /// not race stop().
  void publish(const T& t) { queue_.publish(t); }

  /// Publishes a retraction: the tuple's multiplicity is decremented when
  /// its epoch runs, and hitting zero removes it from Gamma and fires the
  /// sign -1 cascade.  Requires a signed delivery hook (the SetupHooks
  /// constructor form) routing into a TableDecl::counted() table.
  /// Ordered with publish() from the same producer thread.
  void publish_retract(const T& t) { queue_.publish(t, -1); }

  /// Publishes an upsert: "make the row for this tuple's primary key be
  /// exactly this tuple" when its epoch runs, displacing (and retracting
  /// downstream of) any different incumbent.  Same hook requirement as
  /// publish_retract(), plus a primary_key on the target table.
  void publish_upsert(const T& t) { queue_.publish(t, detail::kStreamUpsertSign); }

  /// Non-blocking: takes every output emitted so far.
  std::vector<Out> poll() {
    std::lock_guard<std::mutex> lk(out_mu_);
    std::vector<Out> got = std::move(outputs_);
    outputs_.clear();
    return got;
  }

  /// Blocks until every tuple published before the call has been folded
  /// into a completed epoch fixpoint, then returns poll().  After drain()
  /// (and with no concurrent producers) the wrapped engine is quiescent,
  /// so its tables may be queried directly.  Rethrows the failure if an
  /// epoch's rules threw (the stream is dead afterwards; see failed()).
  std::vector<Out> drain() {
    drain_barrier();
    rethrow_if_failed();
    return poll();
  }

  /// True when an epoch's rules threw and the stream halted.  stop() never
  /// throws (it must be destructor-safe); drain() and
  /// rethrow_if_failed() surface the stored exception.
  bool failed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return error_ != nullptr;
  }

  void rethrow_if_failed() {
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lk(mu_);
      err = error_;
    }
    if (err) std::rethrow_exception(err);
  }

  /// Graceful shutdown: a poison pill flows through the ring, so every
  /// tuple published before stop() is still processed.  Idempotent; the
  /// destructor of the derived class calls it.
  void stop() {
    std::lock_guard<std::mutex> lk(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
    queue_.publish_poison();
    if (worker_.joinable()) worker_.join();
  }

  bool running() const {
    std::lock_guard<std::mutex> lk(mu_);
    return running_;
  }

  /// Cumulative stats snapshot.
  StreamReport report() const {
    std::lock_guard<std::mutex> lk(mu_);
    return report_;
  }

  /// Drains the completed-epoch log (per-epoch StreamReport stats).
  std::vector<EpochStats> poll_epochs() {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<EpochStats> got;
    got.reserve(epoch_log_.size());
    auto value = moved_values_.begin();
    for (const LoggedEpoch& logged : epoch_log_) {
      EpochStats& e = got.emplace_back();
      static_cast<EpochHead&>(e) = logged.head;
      for (std::size_t i = 0; i < logged.moved.size(); ++i) {
        if (logged.moved[i]) e.*kCounterFields[i].value = *value++;
      }
    }
    epoch_log_.clear();
    moved_values_.clear();
    return got;
  }

 protected:
  explicit StreamBase(const StreamOptions& sopts)
      : sopts_(sopts), queue_(sopts.ring_capacity, sopts.wait) {
    JSTAR_CHECK_MSG(sopts_.max_epoch_tuples >= 1,
                    "StreamOptions::max_epoch_tuples must be >= 1");
  }
  ~StreamBase() = default;

  /// Derived constructors call this after their engine is fully set up.
  void start() {
    worker_ = std::thread([this] { loop(); });
  }

  Emit make_emit() {
    return [this](const Out& out) {
      std::lock_guard<std::mutex> lk(out_mu_);
      outputs_.push_back(out);
    };
  }

  const StreamOptions sopts_;

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }

  void loop() {
    try {
      run_epochs();
    } catch (...) {
      // A rule threw during an epoch's fixpoint.  The stream halts (the
      // engine state may be mid-derivation); drain() rethrows.
      {
        std::lock_guard<std::mutex> lk(mu_);
        error_ = std::current_exception();
        running_ = false;
      }
      cv_.notify_all();
      // Keep committing the ring so producers blocked on a full buffer
      // and stop()'s poison pill always make progress; the tuples are
      // discarded — this engine is dead.  If the failing slice already
      // held the poison (stop() raced the failure), there is no second
      // pill to wait for.
      if (!saw_poison_) discard_until_poison();
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      running_ = false;
    }
    cv_.notify_all();
  }

  void run_epochs() {
    while (!saw_poison_ || queue_.ready()) {
      queue_.wait_ready();
      // Buffer the slice before opening an epoch: a slice holding only
      // the shutdown poison pill must not advance the retain(N) windows
      // (and idle streams never spin them forward at all).
      slice_.clear();
      bool poison = false;
      queue_.consume_slice(
          sopts_.max_epoch_tuples,
          [this](const T& t, std::int32_t sign) {
            slice_.emplace_back(t, sign);
          },
          &poison);
      if (poison) saw_poison_ = true;
      if (slice_.empty()) {
        std::lock_guard<std::mutex> lk(mu_);
        processed_ = queue_.consumed();
        cv_.notify_all();
        continue;
      }
      const Counters before = derived().counters();
      const std::int64_t epoch = derived().epoch_begin();
      WallTimer timer;
      for (const auto& [t, sign] : slice_) derived().epoch_deliver(t, sign);
      EpochStats es = derived().epoch_fixpoint();
      es.seconds = timer.seconds();
      es.epoch = epoch;
      es.ingested = static_cast<std::int64_t>(slice_.size());
      es += derived().counters() - before;
      {
        std::lock_guard<std::mutex> lk(mu_);
        report_.absorb(es);
        log_epoch(es);
        processed_ = queue_.consumed();
      }
      cv_.notify_all();
    }
  }

  /// Appends `es` to the epoch log, dropping the oldest entries beyond
  /// StreamOptions::epoch_log_capacity.  Caller holds mu_.
  void log_epoch(const EpochStats& es) {
    LoggedEpoch& logged = epoch_log_.emplace_back(LoggedEpoch{es, {}});
    for (std::size_t i = 0; i < logged.moved.size(); ++i) {
      const std::int64_t v = es.*kCounterFields[i].value;
      if (v == 0) continue;
      logged.moved.set(i);
      moved_values_.push_back(v);
    }
    while (epoch_log_.size() > sopts_.epoch_log_capacity) {
      const std::size_t n = epoch_log_.front().moved.count();
      moved_values_.erase(moved_values_.begin(),
                          moved_values_.begin() +
                              static_cast<std::ptrdiff_t>(n));
      epoch_log_.pop_front();
      ++report_.epoch_log_dropped;
    }
  }

  void discard_until_poison() {
    bool poison = false;
    while (!poison) {
      queue_.wait_ready();
      (void)queue_.consume_slice(sopts_.max_epoch_tuples,
                                 [](const T&, std::int32_t) {}, &poison);
      std::lock_guard<std::mutex> lk(mu_);
      processed_ = queue_.consumed();
    }
    cv_.notify_all();
  }

  void drain_barrier() {
    const std::int64_t target = queue_.claimed();
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return processed_ >= target || !running_; });
  }

  IngestQueue<T> queue_;
  std::thread worker_;
  // Consumer-thread scratch, reused across epochs: (tuple, sign) pairs.
  std::vector<std::pair<T, std::int32_t>> slice_;
  bool saw_poison_ = false;  // consumer-thread only

  mutable std::mutex mu_;
  std::condition_variable cv_;
  StreamReport report_;
  // The completed-epoch log keeps each epoch's head and only the counters
  // that moved: most stay 0 within one epoch, and a stream may log up to
  // epoch_log_capacity epochs.  moved_values_ holds the moved counters'
  // values, entry by entry in log order, each entry's in list order.
  struct LoggedEpoch {
    EpochHead head;
    std::bitset<std::size(kCounterFields)> moved;
  };
  std::deque<LoggedEpoch> epoch_log_;
  std::deque<std::int64_t> moved_values_;
  std::int64_t processed_ = -1;
  bool running_ = true;
  std::exception_ptr error_ = nullptr;

  std::mutex out_mu_;
  std::vector<Out> outputs_;

  std::mutex stop_mu_;
  bool stopped_ = false;
};

}  // namespace detail

/// A long-lived single-engine stream.  T is the ingested tuple type (must
/// be copyable and default-constructible — it lives in ring slots); Out is
/// what rules emit to consumers.
template <typename T, typename Out = T>
class StreamingEngine final
    : public detail::StreamBase<T, Out, StreamingEngine<T, Out>> {
  using Base = detail::StreamBase<T, Out, StreamingEngine<T, Out>>;
  friend Base;

 public:
  using Deliver = std::function<void(const T&)>;
  /// Signed delivery for counted tables: hands one ingested tuple plus its
  /// delta sign (-1 retraction, Table<X>::kUpsertSign upsert) to the
  /// engine — typically `table.seed_signed(t, sign)`.
  using DeliverSigned = std::function<void(const T&, std::int32_t)>;
  using Emit = typename Base::Emit;
  /// Declares tables and rules on the engine and returns the Deliver
  /// function that hands one ingested tuple to it (typically
  /// `eng.put(table, t)`).  `emit` is the thread-safe output channel for
  /// rules/effects.
  using Setup = std::function<Deliver(Engine&, const Emit&)>;
  /// Both delivery lanes; deliver_signed may be null when the stream never
  /// sees publish_retract()/publish_upsert().
  struct Hooks {
    Deliver deliver;
    DeliverSigned deliver_signed;
  };
  using SetupHooks = std::function<Hooks(Engine&, const Emit&)>;

  StreamingEngine(const StreamOptions& sopts, const EngineOptions& eopts,
                  const Setup& setup)
      : StreamingEngine(sopts, eopts,
                        SetupHooks([&setup](Engine& eng, const Emit& emit) {
                          return Hooks{setup(eng, emit), nullptr};
                        })) {}

  StreamingEngine(const StreamOptions& sopts, const EngineOptions& eopts,
                  const SetupHooks& setup)
      : Base(sopts), engine_(eopts) {
    Hooks hooks = setup(engine_, this->make_emit());
    deliver_ = std::move(hooks.deliver);
    deliver_signed_ = std::move(hooks.deliver_signed);
    engine_.prepare();
    this->start();
  }

  ~StreamingEngine() { this->stop(); }

  /// The wrapped engine.  Only query it while the stream is provably
  /// quiescent: after drain() with no concurrent producers, or after
  /// stop().
  Engine& engine() { return engine_; }

 private:
  Counters counters() const { return snapshot(engine_.all_tables()); }
  std::int64_t epoch_begin() { return engine_.begin_epoch(); }
  void epoch_deliver(const T& t, std::int32_t sign) {
    if (sign == 1) {
      deliver_(t);
      return;
    }
    JSTAR_CHECK_MSG(deliver_signed_ != nullptr,
                    "publish_retract/publish_upsert require the SetupHooks "
                    "constructor with a deliver_signed hook");
    deliver_signed_(t, sign);
  }
  EpochStats epoch_fixpoint() {
    const RunReport r = engine_.run();
    EpochStats es;
    es.batches = r.batches;
    es.tuples = r.tuples;
    return es;
  }

  Engine engine_;
  Deliver deliver_;
  DeliverSigned deliver_signed_;
};

/// A long-lived sharded stream: the cluster substrate (src/dist/sharded.h,
/// BSP or async schedule over one shared fork/join pool) run epoch by
/// epoch.  `route` assigns each ingested tuple to its owner shard
/// (typically dist::partition_of over the tuple's key).
///
/// Works unchanged with the async fabric's sender batching: cluster_.run()
/// flushes every send batch before returning its last credit
/// (flush-before-idle), so when run() returns the fabric is empty and the
/// epoch boundary this wrapper drives in lockstep stays clean — no mail
/// can leak from one streaming epoch into the next.
template <typename T, typename Out = T>
class ShardedStreamingEngine final
    : public detail::StreamBase<T, Out, ShardedStreamingEngine<T, Out>> {
  using Base = detail::StreamBase<T, Out, ShardedStreamingEngine<T, Out>>;
  friend Base;

 public:
  using Emit = typename Base::Emit;
  using Route = std::function<int(const T&)>;
  /// Per-shard setup, as in ShardedEngine, plus the shared output channel.
  using Setup = std::function<typename dist::ShardedEngine<T>::Deliver(
      int shard, Engine&, dist::Sender<T>&, const Emit&)>;
  /// Hooks form: per-shard setup returning both delivery lanes
  /// (ShardedEngine::ShardHooks), required when the stream carries
  /// publish_retract()/publish_upsert() traffic — signed tuples reach
  /// their owner shard through the mailbox signed lane and enter the
  /// engine via the deliver_signed hook.
  using SetupHooks =
      std::function<typename dist::ShardedEngine<T>::ShardHooks(
          int shard, Engine&, dist::Sender<T>&, const Emit&)>;

  ShardedStreamingEngine(const StreamOptions& sopts, int shards,
                         const EngineOptions& eopts,
                         const dist::ShardedOptions& dopts,
                         const Setup& setup, Route route)
      : Base(sopts),
        route_(std::move(route)),
        cluster_(shards, eopts, dopts,
                 typename dist::ShardedEngine<T>::Setup(
                     [this, &setup](int shard, Engine& eng,
                                    dist::Sender<T>& sender) {
                       return setup(shard, eng, sender, this->make_emit());
                     })) {
    this->start();
  }

  ShardedStreamingEngine(const StreamOptions& sopts, int shards,
                         const EngineOptions& eopts,
                         const dist::ShardedOptions& dopts,
                         const SetupHooks& setup, Route route)
      : Base(sopts),
        route_(std::move(route)),
        cluster_(shards, eopts, dopts,
                 typename dist::ShardedEngine<T>::SetupHooks(
                     [this, &setup](int shard, Engine& eng,
                                    dist::Sender<T>& sender) {
                       return setup(shard, eng, sender, this->make_emit());
                     })) {
    this->start();
  }

  ~ShardedStreamingEngine() { this->stop(); }

  int shards() const { return cluster_.shards(); }
  /// Quiescence caveats as in StreamingEngine::engine().
  Engine& engine(int shard) { return cluster_.engine(shard); }
  dist::ShardedEngine<T>& cluster() { return cluster_; }

 private:
  Counters counters() const { return cluster_.query_stats(); }
  std::int64_t epoch_begin() { return cluster_.begin_epoch(); }
  void epoch_deliver(const T& t, std::int32_t sign) {
    if (sign == 1) {
      cluster_.seed(route_(t), t);
    } else {
      cluster_.seed_signed(route_(t), t, sign);
    }
  }
  EpochStats epoch_fixpoint() {
    const dist::ShardedRunReport r = cluster_.run();
    EpochStats es;
    es.batches = r.local_batches;
    es.tuples = r.local_tuples;
    es.messages = r.messages;
    es.mail_epochs = r.epochs;
    return es;
  }

  Route route_;
  dist::ShardedEngine<T> cluster_;
};

}  // namespace jstar::stream

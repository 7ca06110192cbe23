// stream: open-loop sharded telemetry.
//
// One paced, sleeping generator publishes 150k readings/s into a
// ShardedStreamingEngine of 2 async shards running sequential shard
// engines: with the epoch loop and the 2 shard workers that is 4 threads.
// Each reading is routed to the shard owning its sensor, and its rule
// forwards an enriched tuple to the other shard over the signed mailbox
// lane; the receiving shard emits it.  10% of readings are retracted
// right after they are published, which retracts the enriched tuple too.
// Both tables are counted with retain(2).  Every reading is its own Delta
// batch, so the ring, the epoch loop, the mailbox, window GC and the
// signed lane do the work.  Latency runs from each reading's due time to
// the emission of its enriched result.
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "dist/sharded.h"
#include "stream/streaming.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using jstar::Engine;
using jstar::EngineOptions;
using jstar::RuleCtx;
using jstar::Table;
using jstar::TableDecl;
namespace dist = jstar::dist;
namespace stream = jstar::stream;

/// A reading (kind 0) or the enriched tuple it forwards (kind 1).  One
/// type because the shard mailboxes carry a single tuple type.
struct Msg {
  std::int64_t kind, id, sensor, value;
  auto operator<=>(const Msg&) const = default;
};

/// One emission of an enriched tuple: +1 when it appears, -1 when a
/// retraction removes it, stamped when the effect ran.
struct Out {
  std::int64_t id = 0;
  std::int64_t sign = 0;
  std::int64_t t_ns = 0;
};

constexpr double kRate = 150000.0;  // readings per second
constexpr int kShards = 2;
constexpr std::int64_t kSensors = 64;
constexpr std::int64_t kRetractPercent = 10;
constexpr double kSeqSeconds = 3.0;        // the sequential-build run
constexpr std::size_t kWindow = 30000;     // latency samples per window
constexpr std::int64_t kFoldEvery = 4096;  // readings between output polls

/// The seeded input: one reading per id, and which ids get retracted.
struct Events {
  std::vector<Msg> readings;
  std::vector<std::uint8_t> retracted;
};

Events make_events(std::uint64_t seed, std::int64_t n) {
  jstar::SplitMix64 rng(seed);
  Events ev;
  ev.readings.reserve(static_cast<std::size_t>(n));
  ev.retracted.reserve(static_cast<std::size_t>(n));
  for (std::int64_t id = 0; id < n; ++id) {
    const auto sensor = static_cast<std::int64_t>(rng.next_below(kSensors));
    const auto value = static_cast<std::int64_t>(rng.next_below(1000000));
    ev.readings.push_back(Msg{0, id, sensor, value});
    ev.retracted.push_back(rng.next_below(100) < kRetractPercent ? 1 : 0);
  }
  return ev;
}

Msg enrich(const Msg& r) { return Msg{1, r.id, r.sensor, r.value * 3 + 1}; }

std::size_t msg_hash(const Msg& m) {
  return jstar::hash_fields(m.kind, m.id, m.sensor, m.value);
}

/// Declares Reading and Enriched on one engine; Enriched emissions go to
/// `emit`.  Returns {Reading, Enriched}.
template <typename Emit>
std::pair<Table<Msg>*, Table<Msg>*> declare(Engine& eng, const Emit& emit) {
  auto& rd = eng.table(TableDecl<Msg>("Reading")
                           .orderby_lit("R")
                           .orderby_seq("seq", &Msg::id)
                           .hash(msg_hash)
                           .counted()
                           .retain(2));
  auto& en = eng.table(TableDecl<Msg>("Enriched")
                           .orderby_lit("E")
                           .orderby_seq("seq", &Msg::id)
                           .hash(msg_hash)
                           .counted()
                           .retain(2)
                           .effect([emit](const Msg& m) {
                             emit(Out{m.id, 1, now_ns()});
                           })
                           .retract_effect([emit](const Msg& m) {
                             emit(Out{m.id, -1, now_ns()});
                           }));
  eng.order({"R", "E"});
  return {&rd, &en};
}

/// Traced-run stamps per reading (ns; 0 = never happened): published,
/// delivered to its owner shard, enriched tuple sent, enriched tuple
/// delivered to the peer.  Each is written by one thread and read after
/// the ring, a mailbox or the end of the run handed it over.
struct Probe {
  explicit Probe(std::int64_t n)
      : pub(new std::atomic<std::int64_t>[static_cast<std::size_t>(n)]()),
        ingest(new std::atomic<std::int64_t>[static_cast<std::size_t>(n)]()),
        send(new std::atomic<std::int64_t>[static_cast<std::size_t>(n)]()),
        hop(new std::atomic<std::int64_t>[static_cast<std::size_t>(n)]()) {}
  std::unique_ptr<std::atomic<std::int64_t>[]> pub, ingest, send, hop;
  Acc rule[kShards];  // the enrich rule's calls, by that shard's worker
};

void stamp(const std::unique_ptr<std::atomic<std::int64_t>[]>& at,
           std::int64_t id) {
  at[id].store(now_ns(), std::memory_order_relaxed);
}

std::int64_t read(const std::unique_ptr<std::atomic<std::int64_t>[]>& at,
                  std::int64_t id) {
  return at[id].load(std::memory_order_relaxed);
}

using Sharded = stream::ShardedStreamingEngine<Msg, Out>;

std::unique_ptr<Sharded> make_sharded(Probe* probe) {
  stream::StreamOptions sopts;
  sopts.epoch_log_capacity = 1 << 16;
  EngineOptions eopts;
  eopts.sequential = true;
  dist::ShardedOptions dopts;
  dopts.mode = dist::ShardedMode::Async;
  return std::make_unique<Sharded>(
      sopts, kShards, eopts, dopts,
      Sharded::SetupHooks([probe](int shard, Engine& eng,
                                  dist::Sender<Msg>& sender,
                                  const Sharded::Emit& emit) {
        const auto tables = declare(eng, emit);
        Table<Msg>* rd = tables.first;
        Table<Msg>* en = tables.second;
        const int peer = (shard + 1) % kShards;
        eng.rule(*rd, "enrich", [&sender, peer, probe, shard](
                                    RuleCtx& ctx, const Msg& r) {
          const std::int64_t t0 = probe != nullptr ? now_ns() : 0;
          if (probe != nullptr && ctx.sign() > 0) stamp(probe->send, r.id);
          sender.send_signed(peer, enrich(r), ctx.sign());
          if (probe != nullptr) probe->rule[shard].add(t0, now_ns());
        });
        dist::ShardedEngine<Msg>::ShardHooks hooks;
        hooks.deliver = [&eng, rd, en, probe](const Msg& m) {
          if (probe != nullptr && m.kind == 0) stamp(probe->ingest, m.id);
          eng.put(m.kind == 0 ? *rd : *en, m);
        };
        hooks.deliver_signed = [rd, en, probe](const Msg& m,
                                               std::int32_t sign) {
          if (probe != nullptr && m.kind == 1 && sign > 0) {
            stamp(probe->hop, m.id);
          }
          (m.kind == 0 ? *rd : *en).seed_signed(m, sign);
        };
        return hooks;
      }),
      [](const Msg& m) {
        return dist::partition_of(m.sensor, kShards);
      });
}

/// Net emitted count per reading, checked against what was published,
/// and when each kept reading's enriched tuple was emitted.
struct Tally {
  std::vector<std::int8_t> net;
  std::vector<std::int64_t> emit_ns;  // 0 = not emitted

  explicit Tally(std::int64_t n)
      : net(static_cast<std::size_t>(n), 0),
        emit_ns(static_cast<std::size_t>(n), 0) {}

  void fold(const std::vector<Out>& outs, const Events& ev) {
    for (const Out& o : outs) {
      const auto i = static_cast<std::size_t>(o.id);
      net[i] = static_cast<std::int8_t>(net[i] + o.sign);
      if (o.sign > 0 && ev.retracted[i] == 0) emit_ns[i] = o.t_ns;
    }
  }

  /// Readings whose net output is wrong: a kept reading must net 1, a
  /// retracted one 0.
  std::int64_t wrong(const Events& ev, std::int64_t n) const {
    std::int64_t bad = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (net[u] != (ev.retracted[u] != 0 ? 0 : 1)) ++bad;
    }
    return bad;
  }
};

/// When reading `id` is due: the generator publishes kRate readings per
/// second from `start`.
std::int64_t due_ns(std::int64_t start, std::int64_t id) {
  return start + static_cast<std::int64_t>(static_cast<double>(id) *
                                           (1e9 / kRate));
}

struct PacedResult {
  std::int64_t events = 0;
  std::int64_t failed = 0;
  double seconds = 0;  // first due time -> everything drained
  std::int64_t start_ns = 0;  // due time of reading 0
  Tally tally{0};
  stream::StreamReport report;
  std::vector<double> epoch_ms;
  std::vector<double> late_ms;    // traced: publish - due
  double publish_s = 0;           // traced: time inside publish calls

  /// Due -> emission latency (ms) of every kept reading, in due order.
  std::vector<double> latency_ms() const {
    std::vector<double> out;
    for (std::int64_t i = 0; i < events; ++i) {
      const std::int64_t t = tally.emit_ns[static_cast<std::size_t>(i)];
      if (t != 0) {
        out.push_back(static_cast<double>(t - due_ns(start_ns, i)) * 1e-6);
      }
    }
    return out;
  }
};

/// Publishes `n` readings open-loop at kRate into `s`, sleeping whenever
/// the generator is ahead of schedule, then drains and checks.
template <typename Stream>
PacedResult run_paced(Stream& s, const Events& ev, std::int64_t n,
                      Probe* probe) {
  PacedResult r;
  r.events = n;
  r.tally = Tally(n);
  const std::int64_t start = now_ns() + 1000000;  // 1 ms lead
  r.start_ns = start;
  const auto fold = [&] {
    r.tally.fold(s.poll(), ev);
    if (probe != nullptr) {
      for (const stream::EpochStats& e : s.poll_epochs()) {
        r.epoch_ms.push_back(e.seconds * 1e3);
      }
    }
  };
  std::int64_t publish_ns = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t d = due_ns(start, i);
    std::int64_t t = now_ns();
    while (t < d) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(d - t));
      t = now_ns();
    }
    const Msg& m = ev.readings[static_cast<std::size_t>(i)];
    const bool retract = ev.retracted[static_cast<std::size_t>(i)] != 0;
    if (probe != nullptr) {
      r.late_ms.push_back(static_cast<double>(t - d) * 1e-6);
      probe->pub[i].store(t, std::memory_order_relaxed);
    }
    s.publish(m);
    if (retract) s.publish_retract(m);
    if (probe != nullptr) publish_ns += now_ns() - t;
    if ((i + 1) % kFoldEvery == 0) fold();
  }
  r.tally.fold(s.drain(), ev);
  r.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  s.stop();
  if (probe != nullptr) fold();
  r.report = s.report();
  r.failed = r.tally.wrong(ev, n);
  r.publish_s = static_cast<double>(publish_ns) * 1e-9;
  return r;
}

using Single = stream::StreamingEngine<Msg, Out>;

/// The sequential build of the same program: one sequential engine that
/// puts the enriched tuple locally.
std::unique_ptr<Single> make_single() {
  EngineOptions eopts;
  eopts.sequential = true;
  return std::make_unique<Single>(
      stream::StreamOptions{}, eopts,
      Single::SetupHooks([](Engine& eng, const Single::Emit& emit) {
        const auto tables = declare(eng, emit);
        Table<Msg>* rd = tables.first;
        Table<Msg>& local = *tables.second;
        eng.rule(*rd, "enrich", [&local](RuleCtx& ctx, const Msg& r) {
          local.put(ctx, enrich(r));
        });
        Single::Hooks hooks;
        hooks.deliver = [&eng, rd](const Msg& m) { eng.put(*rd, m); };
        hooks.deliver_signed = [rd](const Msg& m, std::int32_t sign) {
          rd->seed_signed(m, sign);
        };
        return hooks;
      }));
}

/// Spans of the traced run: per-shard rule time, and the layer hops of
/// every kSpanEvery-th kept reading (root = due -> emission; children =
/// generator lateness, ring ingest, mailbox hop), sharing the reading's
/// root span as parent.
constexpr std::int64_t kSpanEvery = 100;

void record_spans(Trace& trace, const Probe& probe, const PacedResult& r,
                  const Events& ev) {
  for (int s = 0; s < kShards; ++s) trace.record("core.rule", s, probe.rule[s]);
  for (std::int64_t i = 0; i < r.events; i += kSpanEvery) {
    const auto u = static_cast<std::size_t>(i);
    if (ev.retracted[u] != 0 || r.tally.emit_ns[u] == 0) continue;
    const std::int64_t due = due_ns(r.start_ns, i);
    const std::int64_t root =
        trace.record("stream.reading", due, r.tally.emit_ns[u]);
    trace.record("disruptor.gen_late", due, read(probe.pub, i), root);
    trace.record("stream.ingest_wait", read(probe.pub, i),
                 read(probe.ingest, i), root);
    trace.record("dist.hop", read(probe.send, i), read(probe.hop, i), root);
  }
}

/// Samples (ms) of `to - from` over every reading that has both stamps.
std::vector<double> gaps_ms(
    const std::unique_ptr<std::atomic<std::int64_t>[]>& from,
    const std::unique_ptr<std::atomic<std::int64_t>[]>& to, std::int64_t n) {
  std::vector<double> out;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t a = read(from, i);
    const std::int64_t b = read(to, i);
    if (a != 0 && b != 0) out.push_back(static_cast<double>(b - a) * 1e-6);
  }
  return out;
}

}  // namespace

Outcome run_stream(const Args& args) {
  Outcome out;
  // Set-up is generating the readings and starting the sharded stream;
  // it is repeated so setup_s is a median.  The sharded run gets the time
  // left after the sequential-build run.
  const double paced_s =
      args.trace ? std::max(0.5, args.seconds / 2)
                 : std::max(0.5, args.seconds - kSeqSeconds - 0.5);
  const auto n = static_cast<std::int64_t>(paced_s * kRate);
  std::vector<double> setups;
  Events ev;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t s0 = now_ns();
    ev = make_events(args.seed, n);
    auto s = make_sharded(nullptr);
    setups.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
  }
  std::fprintf(stderr, "stream: %lld readings at %.0f/s, %d shards\n",
               static_cast<long long>(n), kRate, kShards);

  PacedResult plain = run_paced(*make_sharded(nullptr), ev, n, nullptr);
  out.attempted += plain.events;
  out.failed += plain.failed;

  if (!args.trace) {
    const PacedResult seq = run_paced(
        *make_single(), ev,
        std::min(n, static_cast<std::int64_t>(kSeqSeconds * kRate)), nullptr);
    out.attempted += seq.events;
    out.failed += seq.failed;
    out.metrics = {
        {"throughput",
         static_cast<double>(plain.events - plain.failed) / plain.seconds,
         "1/s"},
        {"seq_throughput",
         static_cast<double>(seq.events - seq.failed) / seq.seconds, "1/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return out;
  }

  Probe probe(n);
  PacedResult traced = run_paced(*make_sharded(&probe), ev, n, &probe);
  out.attempted += traced.events;
  out.failed += traced.failed;
  Trace trace({});
  record_spans(trace, probe, traced, ev);
  write_trace(args, trace);
  const std::vector<double> ingest = gaps_ms(probe.pub, probe.ingest, n);
  const std::vector<double> hop = gaps_ms(probe.send, probe.hop, n);
  const std::vector<double> latency = plain.latency_ms();  // untraced
  out.metrics = {
      {"core.rule_s", busy_ns(trace.spans(), "core.rule") * 1e-9, "s"},
      {"disruptor.publish_block_s", traced.publish_s, "s"},
      {"disruptor.gen_late_p99_ms", percentile(traced.late_ms, 99), "ms"},
      {"stream.ingest_wait_p50_ms", percentile(ingest, 50), "ms"},
      {"stream.ingest_wait_p90_ms", percentile(ingest, 90), "ms"},
      {"stream.epoch_p50_ms", percentile(traced.epoch_ms, 50), "ms"},
      {"stream.epoch_p99_ms", percentile(traced.epoch_ms, 99), "ms"},
      {"stream.epochs", static_cast<double>(traced.report.epochs), "count"},
      {"stream.gamma_retired",
       static_cast<double>(traced.report.gamma_retired), "count"},
      // The median over windows of kWindow readings (about 0.2 s each),
      // so a host hiccup in a few windows does not move it.
      {"stream.p50_ms", windowed_percentile(latency, kWindow, 50), "ms"},
      {"stream.p90_ms", percentile(latency, 90), "ms"},
      {"stream.p99_ms", percentile(latency, 99), "ms"},
      {"dist.hop_p50_ms", percentile(hop, 50), "ms"},
      {"dist.hop_p90_ms", percentile(hop, 90), "ms"},
      {"dist.messages", static_cast<double>(traced.report.messages), "count"},
      {"dist.mail_epochs", static_cast<double>(traced.report.mail_epochs),
       "count"},
      {"trace.overhead_s",
       traced.report.busy_seconds - plain.report.busy_seconds, "s"},
  };
  return out;
}

}  // namespace perfbench

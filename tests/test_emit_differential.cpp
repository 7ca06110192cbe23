// Differential sweep for batch-at-a-time rule firing (emit buffers): the
// buffered emit path — RuleCtx puts staged in per-worker buffers and bulk
// flushed into the Delta tree once per fire phase — must be bit-identical
// to direct per-put Delta appends under every schedule.  Buffered runs are
// pinned against direct-put runs (EngineOptions::emit_buffer = false) and
// the engine-free oracle across sequential / BSP / async sharding, the
// default / flat / columnar substrates, counted retract/upsert waves and
// streaming-style epoch boundaries, at 1/2/4/8 workers.
//
// Why this must hold: append_one (core/table.h) is the single definition
// of batch-combining semantics — dedup, counted sign accumulation, upsert
// supersede — and the flush replays the exact same records through it,
// grouped by key in first-appearance order.  Any divergence here means the
// flush reordered, dropped or double-applied a record.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/simd.h"
#include "differential.h"

namespace jstar::difftest {
namespace {

constexpr const char* kExe = "test_emit_differential";

// --- set-semantics derivation programs -------------------------------------

// Sequential mode is the strictest pin: one worker, one buffer, so the
// flush must preserve the exact put order of the direct path.
TEST(EmitDifferential, SequentialBufferedMatchesDirectEveryStore) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const Program p = random_program(seed);
    const std::set<Tok> want = oracle_fixpoint(p);
    for (const StoreKind store :
         {StoreKind::Default, StoreKind::FlatOrdered, StoreKind::Columnar}) {
      EngineOptions direct;
      direct.sequential = true;
      direct.emit_buffer = false;
      EngineOptions buffered;
      buffered.sequential = true;
      buffered.emit_buffer = true;
      const std::set<Tok> got_direct = single_engine_fixpoint(p, direct, store);
      const std::set<Tok> got_buffered =
          single_engine_fixpoint(p, buffered, store);
      EXPECT_EQ(got_direct, want)
          << to_string(store) << " direct diverged from oracle, "
          << repro(seed, kExe, "EmitDifferential.*EveryStore");
      EXPECT_EQ(got_buffered, got_direct)
          << to_string(store) << " buffered diverged from direct, "
          << repro(seed, kExe, "EmitDifferential.*EveryStore");
    }
  }
}

// The headline acceptance gate: buffered results are bit-identical at any
// worker count, including the striped-Delta backend whose bulk-append and
// pop_min head cache this PR introduced.
TEST(EmitDifferential, BufferedBitIdenticalAcrossWorkerCounts) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const Program p = random_program(seed);
    const std::set<Tok> want = oracle_fixpoint(p);
    for (const int threads : {1, 2, 4, 8}) {
      EngineOptions opts;
      opts.sequential = false;
      opts.threads = threads;
      opts.emit_buffer = true;
      if (threads == 4) opts.delta_stripes = 8;  // striped bulk appends
      EXPECT_EQ(single_engine_fixpoint(p, opts), want)
          << threads << " workers, "
          << repro(seed, kExe, "EmitDifferential.*WorkerCounts");
    }
  }
}

// task_per_rule spawns one task per (tuple, rule); its puts ride the same
// thread-local buffers and must flush to the same fixpoint.
TEST(EmitDifferential, BufferedTaskPerRule) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const Program p = random_small_program(seed);  // rules = 2
    const std::set<Tok> want = oracle_fixpoint(p);
    EngineOptions opts;
    opts.sequential = false;
    opts.threads = 4;
    opts.task_per_rule = true;
    opts.emit_buffer = true;
    EXPECT_EQ(single_engine_fixpoint(p, opts), want)
        << repro(seed, kExe, "EmitDifferential.BufferedTaskPerRule");
  }
}

// Sharded schedules: buffered emit runs inside every shard engine while
// cross-shard traffic rides the mailbox; BSP and async must both land on
// the direct-put fixpoint.
TEST(EmitDifferential, ShardedBufferedMatchesDirect) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const Program p = random_program(seed);
    const std::set<Tok> want = oracle_fixpoint(p);
    for (const dist::ShardedMode mode :
         {dist::ShardedMode::Bsp, dist::ShardedMode::Async}) {
      const std::set<Tok> direct = sharded_fixpoint(
          p, /*shards=*/3, mode, /*sequential_engines=*/false, nullptr,
          StoreKind::Default, nullptr, /*emit_buffer=*/false);
      const std::set<Tok> buffered = sharded_fixpoint(
          p, /*shards=*/3, mode, /*sequential_engines=*/false, nullptr,
          StoreKind::Default, nullptr, /*emit_buffer=*/true);
      EXPECT_EQ(direct, want)
          << repro(seed, kExe, "EmitDifferential.ShardedBufferedMatchesDirect");
      EXPECT_EQ(buffered, direct)
          << (mode == dist::ShardedMode::Bsp ? "bsp" : "async") << ", "
          << repro(seed, kExe, "EmitDifferential.ShardedBufferedMatchesDirect");
    }
  }
}

// --- counted (multiset) schedules ------------------------------------------

// Retract-heavy waves: sign accumulation happens inside the flush's
// append_one replay, so counted annihilation must survive buffering under
// every mode and substrate.
TEST(EmitDifferential, CountedRetractWavesBuffered) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const CountedCase c = make_delete_heavy_case(seed);
    const std::set<Tok> want = counted_oracle(c);
    for (const StoreKind store : {StoreKind::Default, StoreKind::Columnar}) {
      EngineOptions par;
      par.sequential = false;
      par.threads = 4;
      par.emit_buffer = true;
      EXPECT_EQ(counted_single_fixpoint(c, par, store), want)
          << to_string(store) << " parallel buffered, "
          << repro(seed, kExe, "EmitDifferential.CountedRetractWavesBuffered");
    }
    for (const dist::ShardedMode mode :
         {dist::ShardedMode::Bsp, dist::ShardedMode::Async}) {
      EXPECT_EQ(counted_sharded_fixpoint(
                    c, /*shards=*/3, mode, /*sequential_engines=*/false,
                    StoreKind::Default, /*retain=*/0, /*epoch_per_wave=*/false,
                    /*with_pk=*/false, /*emit_buffer=*/true),
                want)
          << (mode == dist::ShardedMode::Bsp ? "bsp" : "async") << ", "
          << repro(seed, kExe, "EmitDifferential.CountedRetractWavesBuffered");
    }
  }
}

// Upsert-heavy keyed waves: the kUpsertSign supersede must flush exactly
// like the direct path (last overwrite per quiescence interval wins).
TEST(EmitDifferential, UpsertWavesBuffered) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const CountedCase c = make_upsert_heavy_case(seed);
    EngineOptions direct;
    direct.sequential = true;
    direct.emit_buffer = false;
    EngineOptions buffered;
    buffered.sequential = false;
    buffered.threads = 4;
    buffered.emit_buffer = true;
    EXPECT_EQ(upsert_single_fixpoint(c, buffered),
              upsert_single_fixpoint(c, direct))
        << repro(seed, kExe, "EmitDifferential.UpsertWavesBuffered");
  }
}

// Streaming-style epochs: begin_epoch() + retain(N) GC between waves, so
// flushes interleave with epoch boundaries and tuple retirement.
TEST(EmitDifferential, EpochWavesWithRetainBuffered) {
  const std::uint64_t n = seed_count();
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    const CountedCase c = make_delete_heavy_case(seed);
    EngineOptions direct;
    direct.sequential = true;
    direct.emit_buffer = false;
    EngineOptions buffered;
    buffered.sequential = false;
    buffered.threads = 4;
    buffered.emit_buffer = true;
    const std::set<Tok> want = counted_single_fixpoint(
        c, direct, StoreKind::Default, /*retain=*/2, /*epoch_per_wave=*/true);
    EXPECT_EQ(counted_single_fixpoint(c, buffered, StoreKind::Default,
                                      /*retain=*/2, /*epoch_per_wave=*/true),
              want)
        << repro(seed, kExe, "EmitDifferential.EpochWavesWithRetainBuffered");
  }
}

// --- run grouping and the batch dedup index ---------------------------------

// A rule emitting into several future Delta keys in alternation: runs of
// one or two puts per key interleave, so the flush must regroup runs by
// key in first-appearance order and keep each key's put order.  The
// effect logs processing order; sequential mode must reproduce the direct
// path's log exactly, 4 workers the same set.
TEST(EmitDifferential, InterleavedKeysKeepSequentialPutOrder) {
  struct Ev {
    std::int64_t gen, lane, i;
    auto operator<=>(const Ev&) const = default;
  };
  constexpr std::int64_t kGens = 4;
  constexpr std::int64_t kLanes = 3;
  const auto run = [](const EngineOptions& opts, std::uint64_t seed) {
    std::vector<Ev> log;
    std::mutex mu;
    Engine eng(opts);
    auto& ev = eng.table(TableDecl<Ev>("Ev")
                             .orderby_lit("E")
                             .orderby_seq("gen", &Ev::gen)
                             .orderby_seq("lane", &Ev::lane)
                             .orderby_par("i")
                             .hash([](const Ev& e) {
                               return hash_fields(e.gen, e.lane, e.i);
                             })
                             .effect([&](const Ev& e) {
                               std::lock_guard<std::mutex> lk(mu);
                               log.push_back(e);
                             }));
    const auto mul = static_cast<std::int64_t>(seed % 7) + 3;
    eng.rule(ev, "spread", [&ev, mul](RuleCtx& ctx, const Ev& e) {
      if (e.gen + 1 >= kGens) return;
      for (std::int64_t f = 0; f < 12; ++f) {
        // Lanes cycle 0,0,1,1,2,2 or 0,1,2 by parity of the trigger, and
        // i collides across triggers, so some puts are batch duplicates.
        const std::int64_t lane = (e.i % 2 == 0 ? f / 2 : f) % kLanes;
        ev.put(ctx, Ev{e.gen + 1, lane, (e.i * mul + f) % 40});
      }
    });
    for (std::int64_t i = 0; i < 24; ++i) {
      eng.put(ev, Ev{0, i % kLanes, i});
    }
    eng.run();
    return log;
  };
  const std::uint64_t n = seed_count(20);
  const std::uint64_t base = seed_base();
  for (std::uint64_t seed = base; seed < base + n; ++seed) {
    EngineOptions direct;
    direct.sequential = true;
    direct.emit_buffer = false;
    EngineOptions buffered = direct;
    buffered.emit_buffer = true;
    const std::vector<Ev> want = run(direct, seed);
    ASSERT_GT(want.size(), 100u);
    EXPECT_EQ(run(buffered, seed), want)
        << repro(seed, kExe, "EmitDifferential.InterleavedKeys*");
    const std::set<Ev> want_set(want.begin(), want.end());
    EXPECT_EQ(want_set.size(), want.size());  // each tuple fires once
    for (const bool emit : {false, true}) {
      EngineOptions par;
      par.sequential = false;
      par.threads = 4;
      par.emit_buffer = emit;
      const std::vector<Ev> got = run(par, seed);
      EXPECT_EQ(std::set<Ev>(got.begin(), got.end()), want_set)
          << "4 workers, emit=" << emit << ", "
          << repro(seed, kExe, "EmitDifferential.InterleavedKeys*");
    }
  }
}

// The batch dedup index under hash collisions and growth: thousands of
// distinct tuples plus duplicates land in one Delta batch, through a
// constant hash (every probe chain is the whole table) and a real one.
// Gamma must equal the oracle and the batch counters must count exactly
// the distinct tuples and the duplicates; counted inserts and retracts of
// the same tuple in the batch must annihilate.
TEST(EmitDifferential, DedupIndexUnderCollisionsAndGrowth) {
  struct Src {
    std::int64_t s;
    auto operator<=>(const Src&) const = default;
  };
  struct Dst {
    std::int64_t v;
    auto operator<=>(const Dst&) const = default;
  };
  constexpr std::int64_t kSeeds = 64;
  constexpr std::int64_t kPerSeed = 60;
  constexpr std::int64_t kRange = 3000;
  const auto value = [](std::int64_t s, std::int64_t j) {
    return (s * 47 + j * 53) % kRange;
  };
  std::set<std::int64_t> distinct;
  for (std::int64_t s = 0; s < kSeeds; ++s) {
    for (std::int64_t j = 0; j < kPerSeed; ++j) distinct.insert(value(s, j));
  }
  const auto puts = kSeeds * kPerSeed;
  ASSERT_GT(distinct.size(), 2000u);
  ASSERT_LT(static_cast<std::int64_t>(distinct.size()), puts);

  for (const bool constant_hash : {true, false}) {
    const std::function<std::size_t(const Dst&)> dst_hash =
        constant_hash ? std::function<std::size_t(const Dst&)>(
                            [](const Dst&) -> std::size_t { return 7; })
                      : [](const Dst& d) { return hash_fields(d.v); };
    for (const bool sequential : {true, false}) {
      for (const bool emit : {true, false}) {
        for (const bool counted : {false, true}) {
          SCOPED_TRACE(std::string(constant_hash ? "constant" : "real") +
                       " hash, " + (sequential ? "sequential" : "4 workers") +
                       ", emit=" + (emit ? "on" : "off") +
                       (counted ? ", counted" : ""));
          EngineOptions opts;
          opts.sequential = sequential;
          opts.threads = 4;
          opts.emit_buffer = emit;
          Engine eng(opts);
          auto& src = eng.table(TableDecl<Src>("Src").orderby_lit("S").hash(
              [](const Src& x) { return hash_fields(x.s); }));
          TableDecl<Dst> dst_decl =
              TableDecl<Dst>("Dst").orderby_lit("D").hash(dst_hash);
          if (counted) dst_decl.counted();
          auto& dst = eng.table(std::move(dst_decl));
          eng.order({"S", "D"});
          eng.rule(src, "fan", [&](RuleCtx& ctx, const Src& x) {
            for (std::int64_t j = 0; j < kPerSeed; ++j) {
              const std::int64_t v = value(x.s, j);
              // Counted: the first put of every third value carries a
              // retract of it too.
              if (counted && v % 3 == 0 && j == 0) dst.retract(ctx, Dst{v});
              dst.put(ctx, Dst{v});
            }
          });
          for (std::int64_t s = 0; s < kSeeds; ++s) eng.put(src, Src{s});
          eng.run();
          std::set<std::int64_t> got;
          dst.scan([&](const Dst& d) { got.insert(d.v); });
          const Counters c = dst.stats().load();
          if (!counted) {
            EXPECT_EQ(got, distinct);
            EXPECT_EQ(c.delta_inserts,
                      static_cast<std::int64_t>(distinct.size()));
            EXPECT_EQ(c.delta_dups,
                      puts - static_cast<std::int64_t>(distinct.size()));
            continue;
          }
          // Counted tables accumulate signs instead of deduping: every
          // delta counts as a Delta insert, and each value nets to its
          // put count minus its retract count.
          std::map<std::int64_t, std::int64_t> net;
          std::int64_t retracts = 0;
          for (std::int64_t s = 0; s < kSeeds; ++s) {
            for (std::int64_t j = 0; j < kPerSeed; ++j) {
              const std::int64_t v = value(s, j);
              ++net[v];
              if (v % 3 == 0 && j == 0) {
                --net[v];
                ++retracts;
              }
            }
          }
          std::set<std::int64_t> want;
          std::int64_t annihilated = 0;
          for (const auto& [v, k] : net) {
            if (k > 0) want.insert(v);
            if (k == 0) ++annihilated;
          }
          ASSERT_GT(annihilated, 0);
          EXPECT_EQ(got, want);
          EXPECT_EQ(c.delta_inserts, puts + retracts);
          EXPECT_EQ(c.delta_dups, 0);
          EXPECT_EQ(c.gamma_inserts, static_cast<std::int64_t>(want.size()));
          EXPECT_EQ(c.gamma_erased, 0);
          EXPECT_EQ(c.retract_debts, 0);
        }
      }
    }
  }
}

// --- emit mechanics --------------------------------------------------------

// The buffered path actually engages (and surfaces its counters through
// RunReport), and the EngineOptions kill-switch routes puts back to the
// direct path.  The JSTAR_EMIT=off env lane is exercised by the CI
// forced-scalar job, which runs this whole binary with buffering disabled
// — in that lane the buffered-run counters legitimately read zero.
TEST(EmitMechanics, CountersSurfaceAndKillSwitchWorks) {
  struct Hop {
    std::int64_t n;
    auto operator<=>(const Hop&) const = default;
  };
  const bool env_on = simd::emit_env_on();
  for (const bool emit : {true, false}) {
    EngineOptions opts;
    opts.sequential = false;
    opts.threads = 2;
    opts.emit_buffer = emit;
    Engine eng(opts);
    auto& hop = eng.table(TableDecl<Hop>("Hop")
                              .orderby_lit("T")
                              .orderby_seq("n", &Hop::n)
                              .hash([](const Hop& h) {
                                return hash_fields(h.n);
                              }));
    // 64 independent chains of 201 tuples each (seed i*1000 walks to
    // i*1000 + 200), so fire phases have real width and real emit volume.
    eng.rule(hop, "step", [&](RuleCtx& ctx, const Hop& h) {
      if (h.n % 1000 < 200) hop.put(ctx, Hop{h.n + 1});
    });
    for (std::int64_t i = 0; i < 64; ++i) eng.put(hop, Hop{i * 1000});
    const RunReport r = eng.run();
    EXPECT_EQ(hop.gamma_size(), 64u * 201u) << "emit=" << emit;
    if (emit && env_on) {
      EXPECT_GT(r.emit_buffered, 0);
      EXPECT_GT(r.emit_flushes, 0);
    } else {
      EXPECT_EQ(r.emit_buffered, 0) << "emit=" << emit;
      EXPECT_EQ(r.emit_flushes, 0) << "emit=" << emit;
    }
  }
}

// Puts issued through a hand-built RuleCtx between runs (the low-level
// escape hatch) land in buffers with no fire phase behind them; the next
// run() must flush the stragglers before its first pop.
TEST(EmitMechanics, StragglerBufferFlushedAtNextRun) {
  struct Ev {
    std::int64_t n;
    auto operator<=>(const Ev&) const = default;
  };
  EngineOptions opts;
  opts.sequential = true;
  opts.emit_buffer = true;
  Engine eng(opts);
  auto& ev = eng.table(TableDecl<Ev>("Ev")
                           .orderby_lit("T")
                           .orderby_seq("n", &Ev::n)
                           .hash([](const Ev& e) { return hash_fields(e.n); }));
  eng.put(ev, Ev{1});
  eng.run();
  EXPECT_EQ(ev.gamma_size(), 1u);
  // An empty `now` marks an initial put, so this lands in the emit buffer
  // with no process_batch (and no end-of-batch flush) behind it.
  RuleCtx ctx(DeltaKey{}, /*from_table=*/-1, /*edges=*/nullptr);
  ev.put(ctx, Ev{2});
  eng.run();
  EXPECT_EQ(ev.gamma_size(), 2u);
}

// --- counter totals ---------------------------------------------------------

// The table counters and the dataflow edge matrix are sharded per thread
// and summed on read, so a parallel run must count exactly what the
// sequential build counts.  The program is the fanout shape (strata of
// causality classes, every fired tuple putting 8 colliding tuples into the
// next stratum) plus a sink table fed by the last stratum, so two
// edge-matrix entries move.
TEST(EmitCounters, ParallelTotalsEqualSequential) {
  struct Tok {
    std::int64_t level, g, i;
    auto operator<=>(const Tok&) const = default;
  };
  struct Sink {
    std::int64_t g, i;
    auto operator<=>(const Sink&) const = default;
  };
  constexpr std::int64_t kLevels = 5;
  constexpr std::int64_t kGroups = 32;
  constexpr std::int64_t kPerGroup = 64;
  constexpr std::int64_t kFanout = 8;

  struct Totals {
    Counters tok, sink;
    std::vector<std::int64_t> edges;  // row-major count(from, to)
  };
  const auto run = [&](const EngineOptions& opts) {
    Engine eng(opts);
    auto& tok = eng.table(TableDecl<Tok>("Tok")
                              .orderby_lit("T")
                              .orderby_seq("level", &Tok::level)
                              .orderby_seq("g", &Tok::g)
                              .orderby_par("i")
                              .hash([](const Tok& t) {
                                return hash_fields(t.level, t.g, t.i);
                              }));
    auto& sink = eng.table(TableDecl<Sink>("Sink")
                               .orderby_lit("S")
                               .hash([](const Sink& s) {
                                 return hash_fields(s.g, s.i);
                               }));
    eng.order({"T", "S"});
    eng.rule(tok, "derive", [&](RuleCtx& ctx, const Tok& t) {
      if (t.level + 1 >= kLevels) {
        sink.put(ctx, Sink{t.g, t.i % 16});
        return;
      }
      const std::int64_t g2 = (t.g * 31 + 1) % kGroups;
      for (std::int64_t f = 0; f < kFanout; ++f) {
        tok.put(ctx, Tok{t.level + 1, g2,
                         (t.i * 2654435761LL + f * 7 + 1) % kPerGroup});
      }
    });
    for (std::int64_t g = 0; g < kGroups; ++g) {
      for (std::int64_t i = 0; i < kPerGroup; i += 2) {
        eng.put(tok, Tok{0, g, i});
      }
    }
    eng.run();
    Totals out{tok.stats().load(), sink.stats().load(), {}};
    const std::size_t n = eng.edges().tables();
    for (std::size_t from = 0; from < n; ++from) {
      for (std::size_t to = 0; to < n; ++to) {
        out.edges.push_back(eng.edges().count(static_cast<int>(from),
                                              static_cast<int>(to)));
      }
    }
    return out;
  };

  EngineOptions seq_opts;
  seq_opts.sequential = true;
  EngineOptions par_opts;
  par_opts.sequential = false;
  par_opts.threads = 4;
  const Totals seq = run(seq_opts);
  const Totals par = run(par_opts);

  EXPECT_GT(seq.tok.puts, kGroups * kPerGroup);
  EXPECT_GT(seq.sink.gamma_inserts, 0);
  const auto expect_same = [](const Counters& s, const Counters& p,
                              const char* table) {
    EXPECT_EQ(p.puts, s.puts) << table;
    EXPECT_EQ(p.fires, s.fires) << table;
    EXPECT_EQ(p.emit_buffered, s.emit_buffered) << table;
    EXPECT_EQ(p.gamma_inserts, s.gamma_inserts) << table;
    EXPECT_EQ(p.delta_inserts + p.delta_dups, s.delta_inserts + s.delta_dups)
        << table;
  };
  expect_same(seq.tok, par.tok, "Tok");
  expect_same(seq.sink, par.sink, "Sink");
  ASSERT_EQ(seq.edges.size(), 4u);
  EXPECT_EQ(par.edges, seq.edges);
  // Ids follow registration order: Tok is table 0, Sink table 1.
  EXPECT_GT(seq.edges[0], 0);  // Tok -> Tok
  EXPECT_GT(seq.edges[1], 0);  // Tok -> Sink
}

}  // namespace
}  // namespace jstar::difftest

// Unit tests for the streaming execution subsystem (src/stream/streaming.h)
// and the retain(N) windowed Gamma GC it drives: epoch lifecycle, Gamma
// persistence across epochs (the incremental-fixpoint property), bounded
// memory under long streams, the poll/drain consumer API, per-epoch stats,
// and shutdown semantics.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "dist/sharded.h"
#include "stream/streaming.h"
#include "util/small_vec.h"

namespace jstar::stream {
namespace {

struct Event {
  std::int64_t id;
  auto operator<=>(const Event&) const = default;
};

TableDecl<Event> event_decl() {
  return TableDecl<Event>("Event")
      .orderby_lit("E")
      .orderby_seq("id", &Event::id)
      .hash([](const Event& e) { return hash_fields(e.id); });
}

// --- Engine epoch clock (no stream attached) --------------------------------

TEST(EngineEpochs, BeginEpochAdvancesClockAndRunStaysIncremental) {
  EngineOptions opts;
  opts.sequential = true;
  Engine eng(opts);
  auto& events = eng.table(event_decl());
  EXPECT_EQ(eng.epoch(), 0);
  EXPECT_EQ(eng.begin_epoch(), 1);
  eng.put(events, Event{1});
  eng.run();
  EXPECT_EQ(eng.begin_epoch(), 2);
  eng.put(events, Event{2});
  eng.run();
  // Gamma survives the epoch boundary: run() is incremental.
  EXPECT_EQ(events.gamma_size(), 2u);
  EXPECT_EQ(eng.epoch(), 2);
}

TEST(EngineEpochs, RetainWindowRetiresOldEpochsAtTheBoundary) {
  EngineOptions opts;
  opts.sequential = true;
  Engine eng(opts);
  auto& events = eng.table(event_decl().retain(2));
  std::int64_t inserted = 0;
  for (int epoch = 0; epoch < 10; ++epoch) {
    eng.begin_epoch();
    for (int i = 0; i < 3; ++i) {
      eng.put(events, Event{inserted++});
    }
    eng.run();
    // At most the current + previous epoch's tuples stay live.
    EXPECT_LE(events.gamma_size(), 6u) << "epoch " << epoch;
  }
  EXPECT_EQ(events.gamma_size(), 6u);
  EXPECT_EQ(events.stats().gamma_retired.load(), 3 * 10 - 6);
  // The live window is the most recent tuples, not the oldest — including
  // the previous (still-live) epoch's, which window-wide contains() finds.
  EXPECT_TRUE(events.contains(Event{inserted - 1}));
  EXPECT_TRUE(events.contains(Event{inserted - 4}));
  EXPECT_FALSE(events.contains(Event{0}));
}

TEST(EngineEpochs, ReArrivalWithinTheWindowIsASetSemanticsDuplicate) {
  EngineOptions opts;
  opts.sequential = true;
  Engine eng(opts);
  auto& events = eng.table(event_decl().retain(3));
  eng.begin_epoch();
  eng.put(events, Event{7});
  eng.run();
  eng.begin_epoch();
  eng.put(events, Event{7});  // still live from epoch 1: must dedup
  eng.run();
  EXPECT_EQ(events.gamma_size(), 1u);
  EXPECT_EQ(events.stats().gamma_dups.load(), 1);
  EXPECT_EQ(events.stats().fires.load(), 0);  // no rules, and no re-fire
}

TEST(EngineEpochs, RetainWindowRetiresEvenWithoutNewInserts) {
  // A quiet table must still shed its history as epochs pass — this is
  // what EpochWindowStore::retire_up_to adds over insert-driven GC.
  EngineOptions opts;
  opts.sequential = true;
  Engine eng(opts);
  auto& events = eng.table(event_decl().retain(1));
  eng.begin_epoch();
  eng.put(events, Event{1});
  eng.run();
  EXPECT_EQ(events.gamma_size(), 1u);
  eng.begin_epoch();  // no inserts this epoch
  eng.begin_epoch();
  EXPECT_EQ(events.gamma_size(), 0u);
  EXPECT_EQ(events.stats().gamma_retired.load(), 1);
}

// --- StreamingEngine over one Engine ----------------------------------------

TEST(StreamingEngineTest, GammaPersistsAcrossEpochsSoLateJoinsWork) {
  // Event B arriving epochs after event A must still join against A: the
  // stream is incremental, not a sequence of fresh databases.
  StreamOptions sopts;
  sopts.max_epoch_tuples = 1;  // force one event per epoch
  EngineOptions eopts;
  eopts.sequential = true;
  using Stream = StreamingEngine<Event, std::int64_t>;
  Stream stream(sopts, eopts, [](Engine& eng, const Stream::Emit& emit) {
    auto& events = eng.table(event_decl());
    eng.rule(events, "pair_with_past",
             [&events, emit](RuleCtx&, const Event& e) {
               // Emit id1+id2 for every stored earlier partner.
               events.scan([&](const Event& other) {
                 if (other.id < e.id) emit(e.id + other.id);
               });
             });
    return [&events, &eng](const Event& e) { eng.put(events, e); };
  });
  stream.publish(Event{1});
  stream.publish(Event{2});
  stream.publish(Event{3});
  const std::vector<std::int64_t> out = stream.drain();
  const std::set<std::int64_t> got(out.begin(), out.end());
  EXPECT_EQ(got, (std::set<std::int64_t>{3, 4, 5}));  // 1+2, 1+3, 2+3
  const StreamReport r = stream.report();
  EXPECT_EQ(r.ingested, 3);
  EXPECT_EQ(r.epochs, 3);  // max_epoch_tuples = 1
  EXPECT_EQ(r.max_epoch_ingested, 1);
  stream.stop();
}

TEST(StreamingEngineTest, RulesObserveTheEpochClock) {
  StreamOptions sopts;
  sopts.max_epoch_tuples = 1;
  EngineOptions eopts;
  eopts.sequential = true;
  using Stream = StreamingEngine<Event, std::int64_t>;
  Stream stream(sopts, eopts, [](Engine& eng, const Stream::Emit& emit) {
    auto& events = eng.table(event_decl());
    eng.rule(events, "tag_epoch", [emit](RuleCtx& ctx, const Event&) {
      emit(ctx.epoch());
    });
    return [&events, &eng](const Event& e) { eng.put(events, e); };
  });
  for (int i = 0; i < 4; ++i) stream.publish(Event{i});
  const std::vector<std::int64_t> epochs = stream.drain();
  ASSERT_EQ(epochs.size(), 4u);
  // One event per epoch: the observed clock values are 4 distinct,
  // increasing epochs.
  const std::set<std::int64_t> distinct(epochs.begin(), epochs.end());
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_GE(*distinct.begin(), 1);
  stream.stop();
}

TEST(StreamingEngineTest, RetainKeepsMemoryBoundedUnderALongStream) {
  StreamOptions sopts;
  sopts.max_epoch_tuples = 8;
  sopts.ring_capacity = 64;  // smaller than the stream: backpressure path
  EngineOptions eopts;
  eopts.sequential = true;
  using Stream = StreamingEngine<Event>;
  Table<Event>* table = nullptr;
  Stream stream(sopts, eopts,
                [&table](Engine& eng, const Stream::Emit&) {
                  auto& events = eng.table(event_decl().retain(2));
                  table = &events;
                  return [&events, &eng](const Event& e) {
                    eng.put(events, e);
                  };
                });
  const std::int64_t total = 500;
  for (std::int64_t i = 0; i < total; ++i) stream.publish(Event{i});
  (void)stream.drain();
  // At most 2 epochs x 8 tuples stay live out of 500.
  ASSERT_NE(table, nullptr);
  EXPECT_LE(table->gamma_size(), 16u);
  const StreamReport r = stream.report();
  EXPECT_EQ(r.ingested, total);
  EXPECT_GE(r.epochs, total / 8);
  EXPECT_EQ(table->stats().gamma_retired.load() +
                static_cast<std::int64_t>(table->gamma_size()),
            total);
  stream.stop();
}

TEST(StreamingEngineTest, PollEpochsDrainsThePerEpochLog) {
  StreamOptions sopts;
  sopts.max_epoch_tuples = 2;
  EngineOptions eopts;
  eopts.sequential = true;
  using Stream = StreamingEngine<Event>;
  Stream stream(sopts, eopts, [](Engine& eng, const Stream::Emit&) {
    auto& events = eng.table(event_decl());
    return [&events, &eng](const Event& e) { eng.put(events, e); };
  });
  for (int i = 0; i < 6; ++i) stream.publish(Event{i});
  (void)stream.drain();
  const StreamReport r = stream.report();
  const std::vector<EpochStats> log = stream.poll_epochs();
  EXPECT_EQ(static_cast<std::int64_t>(log.size()), r.epochs);
  std::int64_t ingested = 0;
  std::int64_t last_epoch = 0;
  for (const EpochStats& e : log) {
    EXPECT_GT(e.epoch, last_epoch);  // strictly advancing clock
    last_epoch = e.epoch;
    EXPECT_LE(e.ingested, 2);
    ingested += e.ingested;
  }
  EXPECT_EQ(ingested, 6);
  EXPECT_TRUE(stream.poll_epochs().empty());  // drained
  stream.stop();
}

TEST(StreamingEngineTest, StopIsIdempotentAndProcessesEverythingPublished) {
  StreamOptions sopts;
  EngineOptions eopts;
  eopts.sequential = true;
  using Stream = StreamingEngine<Event>;
  Table<Event>* table = nullptr;
  Stream stream(sopts, eopts,
                [&table](Engine& eng, const Stream::Emit&) {
                  auto& events = eng.table(event_decl());
                  table = &events;
                  return [&events, &eng](const Event& e) {
                    eng.put(events, e);
                  };
                });
  for (int i = 0; i < 10; ++i) stream.publish(Event{i});
  stream.stop();  // poison flows after the 10 events: all processed
  stream.stop();  // idempotent
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->gamma_size(), 10u);
  EXPECT_FALSE(stream.running());
}

TEST(StreamingEngineTest, ConcurrentProducersAllLand) {
  StreamOptions sopts;
  sopts.ring_capacity = 32;  // force backpressure under 4 producers
  sopts.max_epoch_tuples = 16;
  EngineOptions eopts;
  eopts.sequential = true;
  using Stream = StreamingEngine<Event>;
  Table<Event>* table = nullptr;
  Stream stream(sopts, eopts,
                [&table](Engine& eng, const Stream::Emit&) {
                  auto& events = eng.table(event_decl());
                  table = &events;
                  return [&events, &eng](const Event& e) {
                    eng.put(events, e);
                  };
                });
  constexpr int kProducers = 4;
  constexpr std::int64_t kPer = 200;
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&stream, t] {
      for (std::int64_t i = 0; i < kPer; ++i) {
        stream.publish(Event{t * kPer + i});
      }
    });
  }
  for (auto& th : producers) th.join();
  (void)stream.drain();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->gamma_size(),
            static_cast<std::size_t>(kProducers * kPer));
  EXPECT_EQ(stream.report().ingested, kProducers * kPer);
  stream.stop();
}

TEST(StreamingEngineTest, AThrowingRuleSurfacesAtDrain) {
  StreamOptions sopts;
  EngineOptions eopts;
  eopts.sequential = true;
  using Stream = StreamingEngine<Event>;
  Stream stream(sopts, eopts, [](Engine& eng, const Stream::Emit&) {
    auto& events = eng.table(event_decl());
    eng.rule(events, "boom", [](RuleCtx&, const Event& e) {
      if (e.id == 3) throw std::runtime_error("poisoned event 3");
    });
    return [&events, &eng](const Event& e) { eng.put(events, e); };
  });
  for (int i = 0; i < 5; ++i) stream.publish(Event{i});
  EXPECT_THROW((void)stream.drain(), std::runtime_error);
  EXPECT_TRUE(stream.failed());
  stream.stop();  // never throws: destructor-safe
}

TEST(StreamingEngineTest, FailureUnblocksProducersAndStopNeverHangs) {
  // After a rule failure the worker keeps committing the ring (discarding
  // tuples), so producers blocked on a full ring and stop()'s poison pill
  // still make progress — no deadlock on teardown.
  StreamOptions sopts;
  sopts.ring_capacity = 8;  // tiny: the producer WILL fill it
  EngineOptions eopts;
  eopts.sequential = true;
  using Stream = StreamingEngine<Event>;
  Stream stream(sopts, eopts, [](Engine& eng, const Stream::Emit&) {
    auto& events = eng.table(event_decl());
    eng.rule(events, "boom", [](RuleCtx&, const Event&) {
      throw std::runtime_error("dead on arrival");
    });
    return [&events, &eng](const Event& e) { eng.put(events, e); };
  });
  std::thread producer([&stream] {
    for (int i = 0; i < 200; ++i) stream.publish(Event{i});
  });
  producer.join();  // would hang forever without the discard path
  EXPECT_THROW((void)stream.drain(), std::runtime_error);
  stream.stop();  // would also hang on the full ring without it
  EXPECT_TRUE(stream.failed());
}

TEST(StreamingEngineTest, StopRacingAFailingEpochDoesNotHang) {
  // The poison pill can land in the same slice as the tuple whose rule
  // throws; the worker must not then wait for a second pill.
  StreamOptions sopts;
  EngineOptions eopts;
  eopts.sequential = true;
  using Stream = StreamingEngine<Event>;
  Stream stream(sopts, eopts, [](Engine& eng, const Stream::Emit&) {
    auto& events = eng.table(event_decl());
    eng.rule(events, "boom", [](RuleCtx&, const Event&) {
      throw std::runtime_error("boom");
    });
    return [&events, &eng](const Event& e) { eng.put(events, e); };
  });
  for (int i = 0; i < 5; ++i) stream.publish(Event{i});
  stream.stop();  // no drain() first: pill may share the failing slice
  EXPECT_TRUE(stream.failed());
}

TEST(StreamingEngineTest, StopDoesNotAdvanceRetainWindows) {
  // The shutdown poison pill must not open an epoch of its own: data from
  // the last real epoch stays queryable after stop(), even under
  // retain(1).
  StreamOptions sopts;
  EngineOptions eopts;
  eopts.sequential = true;
  using Stream = StreamingEngine<Event>;
  Table<Event>* table = nullptr;
  Stream stream(sopts, eopts,
                [&table](Engine& eng, const Stream::Emit&) {
                  auto& events = eng.table(event_decl().retain(1));
                  table = &events;
                  return [&events, &eng](const Event& e) {
                    eng.put(events, e);
                  };
                });
  stream.publish(Event{1});
  stream.publish(Event{2});
  (void)stream.drain();
  stream.stop();
  // Event{2} arrived in the last real epoch (whether or not Event{1}
  // shared it); a poison-opened epoch would have retired it.
  ASSERT_NE(table, nullptr);
  EXPECT_GE(table->gamma_size(), 1u);
  EXPECT_TRUE(table->contains(Event{2}));
}

// --- ShardedStreamingEngine -------------------------------------------------

TEST(ShardedStreamingTest, RetainWindowsAdvanceInLockstepAcrossShards) {
  StreamOptions sopts;
  sopts.max_epoch_tuples = 4;
  EngineOptions eopts;
  eopts.sequential = true;
  dist::ShardedOptions dopts;
  dopts.mode = dist::ShardedMode::Bsp;
  using Stream = ShardedStreamingEngine<Event>;
  constexpr int kShards = 4;
  std::vector<Table<Event>*> tables(kShards, nullptr);
  Stream stream(
      sopts, kShards, eopts, dopts,
      [&tables](int shard, Engine& eng, dist::Sender<Event>&,
                const Stream::Emit&) {
        auto& events = eng.table(event_decl().retain(2));
        tables[static_cast<std::size_t>(shard)] = &events;
        return [&events, &eng](const Event& e) { eng.put(events, e); };
      },
      [](const Event& e) { return dist::partition_of(e.id, kShards); });
  const std::int64_t total = 400;
  for (std::int64_t i = 0; i < total; ++i) stream.publish(Event{i});
  (void)stream.drain();
  std::size_t live = 0;
  std::int64_t retired = 0;
  for (Table<Event>* t : tables) {
    ASSERT_NE(t, nullptr);
    live += t->gamma_size();
    retired += t->stats().gamma_retired.load();
  }
  // Only the last 2 epochs' tuples (<= 8 stream-wide) stay live.
  EXPECT_LE(live, 8u);
  EXPECT_EQ(retired + static_cast<std::int64_t>(live), total);
  // All shard engines share the same epoch clock.
  for (int s = 1; s < kShards; ++s) {
    EXPECT_EQ(stream.engine(s).epoch(), stream.engine(0).epoch());
  }
  stream.stop();
}

TEST(ShardedStreamingTest, CrossShardDerivationWorksUnderAsyncEpochs) {
  // Every ingested event derives a token on the *next* shard (mod), so
  // each epoch's fixpoint exercises cross-shard mail under the async
  // schedule with a shared pool.
  StreamOptions sopts;
  sopts.max_epoch_tuples = 8;
  EngineOptions eopts;
  eopts.sequential = true;
  dist::ShardedOptions dopts;
  dopts.mode = dist::ShardedMode::Async;
  using Stream = ShardedStreamingEngine<Event, std::int64_t>;
  constexpr int kShards = 3;
  Stream stream(
      sopts, kShards, eopts, dopts,
      [](int /*shard*/, Engine& eng, dist::Sender<Event>& sender,
         const Stream::Emit& emit) {
        auto& events = eng.table(event_decl());
        eng.rule(events, "hop",
                 [&sender, emit](RuleCtx&, const Event& e) {
                   if (e.id >= 1000) {
                     emit(e.id);  // a hopped token arrived
                     return;
                   }
                   sender.send(dist::partition_of(e.id + 1000, kShards),
                               Event{e.id + 1000});
                 });
        return [&events, &eng](const Event& e) { eng.put(events, e); };
      },
      [](const Event& e) { return dist::partition_of(e.id, kShards); });
  const std::int64_t total = 50;
  for (std::int64_t i = 0; i < total; ++i) stream.publish(Event{i});
  const std::vector<std::int64_t> hopped = stream.drain();
  EXPECT_EQ(static_cast<std::int64_t>(hopped.size()), total);
  const StreamReport r = stream.report();
  EXPECT_EQ(r.ingested, total);
  EXPECT_GT(r.messages, 0);  // hops crossed shard boundaries
  stream.stop();
}

// --- counter roll-ups (every counter in core/stats.h's list) ----------------

/// The epoch log must sum to the report, counter by counter, and the
/// report must equal what the tables themselves counted: every engine
/// access a stream makes falls inside some epoch's before/after window.
void expect_counter_rollups(const StreamReport& rep,
                            const std::vector<EpochStats>& epochs,
                            const Counters& tables) {
  ASSERT_EQ(rep.epochs, static_cast<std::int64_t>(epochs.size()));
  Counters sum;
  std::int64_t ingested = 0, batches = 0, tuples = 0, messages = 0;
  for (const EpochStats& e : epochs) {
    sum += e;
    ingested += e.ingested;
    batches += e.batches;
    tuples += e.tuples;
    messages += e.messages;
  }
  for (const CounterField& c : kCounterFields) {
    EXPECT_EQ(rep.*c.value, sum.*c.value) << c.name;
    EXPECT_EQ(rep.*c.value, tables.*c.value) << c.name;
  }
  EXPECT_EQ(rep.ingested, ingested);
  EXPECT_EQ(rep.batches, batches);
  EXPECT_EQ(rep.tuples, tuples);
  EXPECT_EQ(rep.messages, messages);
  // retain(2) retired tuples and swept their index entries, and the
  // epochs account for exactly what the tables retired.
  EXPECT_GT(sum.gamma_retired, 0);
  EXPECT_GT(sum.index_retired, 0);
  EXPECT_EQ(sum.gamma_retired, tables.gamma_retired);
  EXPECT_EQ(sum.index_retired, tables.index_retired);
}

TEST(StreamCounters, EpochsSumToReportAndTables) {
  StreamOptions sopts;
  sopts.max_epoch_tuples = 4;
  EngineOptions eopts;
  eopts.threads = 2;
  using Stream = StreamingEngine<Event>;
  Stream stream(sopts, eopts, [](Engine& eng, const Stream::Emit&) {
    auto& events = eng.table(event_decl().retain(2));
    events.add_index(&Event::id);
    auto& echoes = eng.table(TableDecl<Event>("Echo")
                                 .orderby_lit("F")
                                 .hash([](const Event& e) {
                                   return hash_fields(e.id);
                                 }));
    eng.order({"E", "F"});
    eng.rule(events, "echo", [&echoes](RuleCtx& ctx, const Event& e) {
      echoes.put(ctx, Event{e.id});
    });
    return [&events, &eng](const Event& e) { eng.put(events, e); };
  });
  for (std::int64_t i = 0; i < 200; ++i) stream.publish(Event{i});
  (void)stream.drain();
  stream.stop();
  const Counters tables = snapshot(stream.engine().all_tables());
  EXPECT_EQ(tables.fires, 200);
  expect_counter_rollups(stream.report(), stream.poll_epochs(), tables);
}

TEST(StreamCounters, EpochLogKeepsEachEntrysCountersAcrossDrops) {
  StreamOptions sopts;
  sopts.epoch_log_capacity = 4;
  EngineOptions eopts;
  eopts.sequential = true;
  using Stream = StreamingEngine<Event>;
  Stream stream(sopts, eopts, [](Engine& eng, const Stream::Emit&) {
    auto& events = eng.table(event_decl());
    auto& echoes = eng.table(TableDecl<Event>("Echo")
                                 .orderby_lit("F")
                                 .hash([](const Event& e) {
                                   return hash_fields(e.id);
                                 }));
    eng.order({"E", "F"});
    eng.rule(events, "echo", [&echoes](RuleCtx& ctx, const Event& e) {
      echoes.put(ctx, Event{e.id});
    });
    return [&events, &eng](const Event& e) { eng.put(events, e); };
  });
  // Bursts of different sizes, so neighbouring log entries differ.
  std::int64_t next = 0;
  for (int burst = 1; burst <= 12; ++burst) {
    for (int i = 0; i < burst; ++i) stream.publish(Event{next++});
    (void)stream.drain();
  }
  stream.stop();
  const StreamReport rep = stream.report();
  const std::vector<EpochStats> log = stream.poll_epochs();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(rep.epoch_log_dropped, rep.epochs - 4);
  EXPECT_EQ(log.back().epoch, stream.engine().epoch());
  for (const EpochStats& e : log) {
    // One initial put and one rule put per ingested event, both stored.
    EXPECT_EQ(e.puts, 2 * e.ingested) << "epoch " << e.epoch;
    EXPECT_EQ(e.gamma_inserts, 2 * e.ingested) << "epoch " << e.epoch;
    EXPECT_EQ(e.fires, e.ingested) << "epoch " << e.epoch;
    EXPECT_EQ(e.gamma_retired, 0) << "epoch " << e.epoch;
  }
}

void check_sharded_stream_counters(dist::ShardedMode mode) {
  StreamOptions sopts;
  sopts.max_epoch_tuples = 8;
  EngineOptions eopts;
  eopts.threads = 2;
  dist::ShardedOptions dopts;
  dopts.mode = mode;
  using Stream = ShardedStreamingEngine<Event>;
  constexpr int kShards = 3;
  Stream stream(
      sopts, kShards, eopts, dopts,
      [](int /*shard*/, Engine& eng, dist::Sender<Event>& sender,
         const Stream::Emit&) {
        auto& events = eng.table(event_decl().retain(2));
        events.add_index(&Event::id);
        // Every ingested event hops once to the shard owning id + 1000.
        eng.rule(events, "hop", [&sender](RuleCtx&, const Event& e) {
          if (e.id < 1000) {
            sender.send(dist::partition_of(e.id + 1000, kShards),
                        Event{e.id + 1000});
          }
        });
        return [&events, &eng](const Event& e) { eng.put(events, e); };
      },
      [](const Event& e) { return dist::partition_of(e.id, kShards); });
  for (std::int64_t i = 0; i < 200; ++i) stream.publish(Event{i});
  (void)stream.drain();
  stream.stop();
  const Counters tables = stream.cluster().query_stats();
  EXPECT_EQ(tables.fires, 400);
  const StreamReport rep = stream.report();
  EXPECT_GT(rep.messages, 0);
  expect_counter_rollups(rep, stream.poll_epochs(), tables);
}

TEST(StreamCounters, ShardedEpochsSumToReportAndTablesBsp) {
  check_sharded_stream_counters(dist::ShardedMode::Bsp);
}

TEST(StreamCounters, ShardedEpochsSumToReportAndTablesAsync) {
  check_sharded_stream_counters(dist::ShardedMode::Async);
}

}  // namespace
}  // namespace jstar::stream

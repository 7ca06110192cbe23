// Invariants of ShardedRunReport and the mailbox fabric (§2 stage 3):
// message accounting must be a pure function of the program's derived
// tuple sets (single-shard runs exchange nothing, counts are deterministic
// across runs, supersteps track the BSP wavefront), partition_of must be a
// stable total hash partition, and the mailboxes must enforce their
// set-semantics / bounds contracts.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "dist/sharded.h"
#include "util/rng.h"

namespace jstar::dist {
namespace {

struct Visit {
  std::int64_t vertex;
  auto operator<=>(const Visit&) const = default;
};

// A BFS over the chain 0 -> 1 -> ... -> n-1, every hop routed through the
// mailbox.  The BSP wavefront advances one vertex per superstep, so the
// report is fully predictable from n.
ShardedRunReport run_chain(std::int64_t n, int shards, bool sequential,
                           std::set<std::int64_t>* reached = nullptr,
                           const ShardedOptions& sopts = {}) {
  EngineOptions opts;
  opts.sequential = sequential;
  opts.threads = 2;

  std::vector<Table<Visit>*> tables(static_cast<std::size_t>(shards));
  ShardedEngine<Visit> cluster(
      shards, opts, sopts,
      [n, shards, &tables](int shard, Engine& eng, Sender<Visit>& sender) {
        auto& visits = eng.table(TableDecl<Visit>("Visit")
                                     .orderby_lit("V")
                                     .orderby_seq("vertex", &Visit::vertex)
                                     .hash([](const Visit& v) {
                                       return hash_fields(v.vertex);
                                     }));
        tables[static_cast<std::size_t>(shard)] = &visits;
        eng.rule(visits, "advance",
                 [n, shards, &sender](RuleCtx&, const Visit& v) {
                   if (v.vertex + 1 < n) {
                     sender.send(partition_of(v.vertex + 1, shards),
                                 Visit{v.vertex + 1});
                   }
                 });
        return [&visits, &eng](const Visit& v) { eng.put(visits, v); };
      });

  cluster.seed(partition_of(0, shards), Visit{0});
  const ShardedRunReport report = cluster.run();
  if (reached != nullptr) {
    for (auto* t : tables) {
      t->scan([&](const Visit& v) { reached->insert(v.vertex); });
    }
  }
  return report;
}

// --- ShardedRunReport invariants -------------------------------------------

TEST(DistReport, SingleShardExchangesNoMessages) {
  std::set<std::int64_t> reached;
  const ShardedRunReport r = run_chain(32, 1, /*sequential=*/true, &reached);
  EXPECT_EQ(r.messages, 0);
  // The hops still travelled through the mailbox — as local self-sends.
  EXPECT_EQ(r.local_messages, 31);
  EXPECT_EQ(reached.size(), 32u);
}

TEST(DistReport, SuperstepsTrackGraphDiameter) {
  // One mailbox hop per chain edge: a chain of n vertices takes exactly n
  // supersteps, so supersteps are strictly monotone in the diameter.
  int prev = 0;
  for (const std::int64_t n : {1, 2, 5, 17, 40}) {
    const ShardedRunReport r = run_chain(n, 3, /*sequential=*/true);
    EXPECT_EQ(r.supersteps, n) << "chain length " << n;
    EXPECT_GT(r.supersteps, prev);
    prev = r.supersteps;
  }
}

TEST(DistReport, MessageCountsDeterministicAcrossRunsAndStrategies) {
  const ShardedRunReport first = run_chain(64, 4, /*sequential=*/true);
  for (int i = 0; i < 3; ++i) {
    const ShardedRunReport seq = run_chain(64, 4, /*sequential=*/true);
    const ShardedRunReport par = run_chain(64, 4, /*sequential=*/false);
    for (const ShardedRunReport* r : {&seq, &par}) {
      EXPECT_EQ(r->supersteps, first.supersteps) << "run " << i;
      EXPECT_EQ(r->messages, first.messages) << "run " << i;
      EXPECT_EQ(r->local_messages, first.local_messages) << "run " << i;
      EXPECT_EQ(r->local_tuples, first.local_tuples) << "run " << i;
    }
  }
}

TEST(DistReport, MessagesSplitIntoCrossAndLocalExactly) {
  // Every chain hop is exactly one mailbox tuple, cross-shard or local.
  const ShardedRunReport r = run_chain(50, 4, /*sequential=*/true);
  EXPECT_EQ(r.messages + r.local_messages, 49);
  EXPECT_GT(r.messages, 0);  // 50 hash-spread vertices never all co-locate
}

// --- epoch / poll accounting -----------------------------------------------

// The counter contract after the polls/drains split: report.epochs is the
// sum of per-shard *non-empty* drain epochs, every shard polled at least
// as often as it drained, and idle polls never leak into the epoch count.
TEST(DistReport, EpochsCountNonEmptyDrainsOnlyBsp) {
  const ShardedRunReport r = run_chain(40, 3, /*sequential=*/true);
  std::int64_t drains = 0;
  for (const ShardStats& st : r.shard_stats) {
    EXPECT_LE(st.drains, st.polls);
    // BSP polls every shard's mailbox exactly once per superstep.
    EXPECT_EQ(st.polls, r.supersteps);
    drains += st.drains;
  }
  EXPECT_EQ(r.epochs, drains);
  // The chain wavefront touches exactly one shard per superstep, so most
  // polls are empty: epochs must be far below shards * supersteps.
  EXPECT_EQ(r.epochs, 40);
  EXPECT_LT(r.epochs, static_cast<std::int64_t>(3) * r.supersteps);
}

TEST(DistReport, EpochsCountNonEmptyDrainsOnlyAsync) {
  ShardedOptions sopts;
  sopts.mode = ShardedMode::Async;
  std::set<std::int64_t> reached;
  const ShardedRunReport r =
      run_chain(64, 3, /*sequential=*/true, &reached, sopts);
  EXPECT_EQ(reached.size(), 64u);
  std::int64_t drains = 0;
  for (const ShardStats& st : r.shard_stats) {
    EXPECT_LE(st.drains, st.polls);
    drains += st.drains;
  }
  EXPECT_EQ(r.epochs, drains);
  // 63 hops delivered one tuple each (plus the seed): even with async
  // idle re-polls the epoch count is bounded by deliveries, not polls.
  EXPECT_LE(r.epochs, 64);
  EXPECT_GE(r.epochs, 1);
}

// --- table-counter roll-ups (every counter, both modes) --------------------

struct Mark {
  std::int64_t vertex;
  auto operator<=>(const Mark&) const = default;
};

/// Fans a binary tree of Visits out over the shards (every child hop
/// crosses the mailbox), marking each visit locally through a rule put and
/// querying Gamma, so the rule, emit, query and Delta counters all move.
/// Checks, for every counter in the list:
///   * query_stats() is the sum over shards and tables,
///   * each ShardStats carries its shard engine's run deltas: the engine's
///     counter change minus what mail delivery (outside run()) moved,
///   * the ShardedRunReport is the sum of its ShardStats.
void check_counter_rollups(ShardedMode mode, bool sequential) {
  constexpr int kShards = 3;
  constexpr std::int64_t kVertices = 300;
  EngineOptions opts;
  opts.sequential = sequential;
  opts.threads = 2;
  ShardedOptions sopts;
  sopts.mode = mode;
  std::vector<Counters> delivered(kShards);
  ShardedEngine<Visit> cluster(
      kShards, opts, sopts,
      [&delivered](int shard, Engine& eng, Sender<Visit>& sender) {
        auto& visits = eng.table(TableDecl<Visit>("Visit")
                                     .orderby_lit("V")
                                     .orderby_seq("vertex", &Visit::vertex)
                                     .hash([](const Visit& v) {
                                       return hash_fields(v.vertex);
                                     }));
        auto& marks = eng.table(TableDecl<Mark>("Mark")
                                    .orderby_lit("M")
                                    .hash([](const Mark& m) {
                                      return hash_fields(m.vertex);
                                    }));
        eng.order({"V", "M"});
        eng.rule(visits, "visit",
                 [&visits, &marks, &sender](RuleCtx& ctx, const Visit& v) {
                   marks.put(ctx, Mark{v.vertex});
                   EXPECT_EQ(visits.query_count(
                                 query::eq(&Visit::vertex, v.vertex)),
                             1);
                   for (const std::int64_t c : {2 * v.vertex + 1,
                                                2 * v.vertex + 2}) {
                     if (c < kVertices) {
                       sender.send(partition_of(c, kShards), Visit{c});
                     }
                   }
                 });
        Counters& mine = delivered[static_cast<std::size_t>(shard)];
        return [&visits, &eng, &mine](const Visit& v) {
          const Counters before = snapshot(eng.all_tables());
          eng.put(visits, v);
          mine += snapshot(eng.all_tables()) - before;
        };
      });
  cluster.seed(partition_of(0, kShards), Visit{0});

  std::vector<Counters> engine_before;
  for (int s = 0; s < kShards; ++s) {
    engine_before.push_back(snapshot(cluster.engine(s).all_tables()));
  }
  const ClusterQueryStats cluster_before = cluster.query_stats();
  const ShardedRunReport r = cluster.run();
  const ClusterQueryStats qs = cluster.query_stats();

  Counters by_table;
  Counters shard_sum;
  Counters delivered_sum;
  for (int s = 0; s < kShards; ++s) {
    const auto i = static_cast<std::size_t>(s);
    Counters engine_now;
    for (const TableBase* t : cluster.engine(s).all_tables()) {
      for (const CounterField& c : kCounterFields) {
        engine_now.*c.value += (t->stats().*c.live).load();
      }
    }
    by_table += engine_now;
    const Counters run_delta = engine_now - engine_before[i] - delivered[i];
    for (const CounterField& c : kCounterFields) {
      EXPECT_EQ(r.shard_stats[i].*c.value, run_delta.*c.value)
          << c.name << " on shard " << s;
    }
    shard_sum += r.shard_stats[i];
    delivered_sum += delivered[i];
  }
  const Counters cluster_delta = qs - cluster_before - delivered_sum;
  for (const CounterField& c : kCounterFields) {
    EXPECT_EQ(qs.*c.value, by_table.*c.value) << c.name;
    EXPECT_EQ(r.*c.value, shard_sum.*c.value) << c.name;
    EXPECT_EQ(r.*c.value, cluster_delta.*c.value) << c.name;
  }
  // Not vacuous: the program moved the counters it was built to move.
  EXPECT_EQ(qs.gamma_inserts, 2 * kVertices);
  EXPECT_EQ(r.fires, kVertices);  // only Visit has a rule
  EXPECT_EQ(r.puts, kVertices);  // the rule's Mark puts; mail is outside
  EXPECT_EQ(r.queries, kVertices);
  EXPECT_EQ(delivered_sum.puts, kVertices);
}

TEST(DistReport, CounterRollupsBspSequential) {
  check_counter_rollups(ShardedMode::Bsp, /*sequential=*/true);
}

TEST(DistReport, CounterRollupsBspParallel) {
  check_counter_rollups(ShardedMode::Bsp, /*sequential=*/false);
}

TEST(DistReport, CounterRollupsAsyncSequential) {
  check_counter_rollups(ShardedMode::Async, /*sequential=*/true);
}

TEST(DistReport, CounterRollupsAsyncParallel) {
  check_counter_rollups(ShardedMode::Async, /*sequential=*/false);
}

// --- partition_of properties -----------------------------------------------

TEST(PartitionOf, CoversEveryShardAndStaysInRange) {
  SplitMix64 rng(11);
  for (const int shards : {1, 2, 3, 5, 8, 16}) {
    std::set<int> hit;
    for (int i = 0; i < 4000; ++i) {
      const auto key = static_cast<std::int64_t>(rng.next());
      const int p = partition_of(key, shards);
      ASSERT_GE(p, 0);
      ASSERT_LT(p, shards);
      hit.insert(p);
    }
    EXPECT_EQ(hit.size(), static_cast<std::size_t>(shards))
        << shards << " shards not all covered";
  }
}

TEST(PartitionOf, StableAcrossCalls) {
  SplitMix64 rng(23);
  for (int i = 0; i < 2000; ++i) {
    const auto key = static_cast<std::int64_t>(rng.next());
    const int shards = static_cast<int>(rng.next_below(15)) + 1;
    EXPECT_EQ(partition_of(key, shards), partition_of(key, shards));
  }
}

TEST(PartitionOf, NegativeKeysAreSafe) {
  SplitMix64 rng(37);
  for (const int shards : {1, 2, 7, 8}) {
    for (int i = 0; i < 1000; ++i) {
      const std::int64_t key =
          -static_cast<std::int64_t>(rng.next_below(1ULL << 62)) - 1;
      const int p = partition_of(key, shards);
      EXPECT_GE(p, 0);
      EXPECT_LT(p, shards);
    }
    EXPECT_NO_THROW(partition_of(std::numeric_limits<std::int64_t>::min(),
                                 shards));
  }
}

TEST(PartitionOf, RejectsNonPositiveShardCounts) {
  EXPECT_THROW(partition_of(1, 0), std::logic_error);
  EXPECT_THROW(partition_of(1, -3), std::logic_error);
}

// --- mailbox edge cases ----------------------------------------------------

// A 2-shard cluster with no rules; exposes each shard's Sender so tests
// can exercise the mailbox fabric directly.
struct Fixture {
  std::vector<Table<Visit>*> tables{2, nullptr};
  std::vector<Sender<Visit>*> senders{2, nullptr};
  ShardedEngine<Visit> cluster;

  Fixture()
      : cluster(2, sequential_opts(),
                [this](int shard, Engine& eng, Sender<Visit>& sender) {
                  auto& t = eng.table(TableDecl<Visit>("Visit")
                                          .orderby_lit("V")
                                          .orderby_seq("vertex",
                                                       &Visit::vertex)
                                          .hash([](const Visit& v) {
                                            return hash_fields(v.vertex);
                                          }));
                  tables[static_cast<std::size_t>(shard)] = &t;
                  senders[static_cast<std::size_t>(shard)] = &sender;
                  return [&t, &eng](const Visit& v) { eng.put(t, v); };
                }) {}

  static EngineOptions sequential_opts() {
    EngineOptions opts;
    opts.sequential = true;
    return opts;
  }
};

TEST(Mailbox, SeedOutOfRangeThrows) {
  Fixture f;
  EXPECT_THROW(f.cluster.seed(-1, Visit{1}), std::out_of_range);
  EXPECT_THROW(f.cluster.seed(2, Visit{1}), std::out_of_range);
  EXPECT_THROW(f.cluster.seed(100, Visit{1}), std::out_of_range);
}

TEST(Mailbox, SendOutOfRangeThrows) {
  Fixture f;
  EXPECT_THROW(f.senders[0]->send(-1, Visit{1}), std::out_of_range);
  EXPECT_THROW(f.senders[0]->send(2, Visit{1}), std::out_of_range);
}

TEST(Mailbox, DuplicateSendsDedupUnderSetSemantics) {
  Fixture f;
  for (int i = 0; i < 5; ++i) f.senders[0]->send(1, Visit{7});
  f.senders[0]->send(1, Visit{8});
  const ShardedRunReport r = f.cluster.run();
  // 5x Visit{7} collapses to one message; Visit{8} is the other.
  EXPECT_EQ(r.messages, 2);
  EXPECT_EQ(f.tables[1]->gamma_size(), 2u);
  EXPECT_EQ(f.tables[0]->gamma_size(), 0u);
}

TEST(Mailbox, DuplicateSeedsDedupUnderSetSemantics) {
  Fixture f;
  for (int i = 0; i < 5; ++i) f.cluster.seed(0, Visit{3});
  const ShardedRunReport r = f.cluster.run();
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(f.tables[0]->gamma_size(), 1u);
}

TEST(Mailbox, EmptyClusterRunCompletesImmediately) {
  Fixture f;
  const ShardedRunReport r = f.cluster.run();
  EXPECT_LE(r.supersteps, 1);
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(r.local_messages, 0);
  EXPECT_EQ(r.local_batches, 0);
  EXPECT_EQ(f.tables[0]->gamma_size(), 0u);
  EXPECT_EQ(f.tables[1]->gamma_size(), 0u);
}

}  // namespace
}  // namespace jstar::dist

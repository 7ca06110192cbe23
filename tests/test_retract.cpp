// Retractions & upserts (ROADMAP item 4): unit tests for the counted
// (multiset) Gamma semantics of core/table.h and the erase contract every
// substrate now implements.
//
//  * GammaStore::erase across all built-in substrates (tree-set,
//    skip-list, hash-set, striped-hash, flat-ordered, flat-hash,
//    columnar, epoch-window),
//  * counted-table delta correctness: presence transitions, multiplicity,
//    retract-before-insert debts, same-batch annihilation, downstream
//    cascade re-derivation, and keyed upserts displacing incumbents,
//  * the re-insert-after-retire straggler contract unified across the
//    three windowed substrates (bugfix regression),
//  * retract as a third eraser next to window retirement and index
//    sweeps: deterministic interleavings plus a parallel hammer (run
//    under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/column_store.h"
#include "core/engine.h"
#include "core/flat_store.h"
#include "core/gamma_store.h"
#include "core/window_store.h"

namespace jstar {
namespace {

struct Cell {
  std::int64_t a, b;
  auto operator<=>(const Cell&) const = default;
};
struct CellHash {
  std::size_t operator()(const Cell& c) const { return hash_fields(c.a, c.b); }
};

// --- the erase contract, uniformly over every substrate ---------------------

void check_erase_contract(GammaStore<Cell>& store) {
  SCOPED_TRACE(store.describe());
  ASSERT_TRUE(store.erasable());
  EXPECT_TRUE(store.insert({1, 1}));
  EXPECT_TRUE(store.insert({2, 2}));
  EXPECT_TRUE(store.insert({3, 3}));
  EXPECT_EQ(store.size(), 3u);

  EXPECT_TRUE(store.erase({2, 2}));
  EXPECT_FALSE(store.contains({2, 2}));
  EXPECT_EQ(store.size(), 2u);
  // Erasing what is not there reports false — the counted layer depends
  // on this to keep gamma_erased exact.
  EXPECT_FALSE(store.erase({2, 2}));
  EXPECT_FALSE(store.erase({9, 9}));
  EXPECT_EQ(store.size(), 2u);

  // No scan may deliver an erased tuple again, even if the substrate
  // defers physical removal (dead sets, tombstones, column compaction).
  std::set<Cell> seen;
  store.scan([&](const Cell& c) { seen.insert(c); });
  EXPECT_EQ(seen, (std::set<Cell>{{1, 1}, {3, 3}}));

  // Erase-then-reinsert: the tuple is fresh again.
  EXPECT_TRUE(store.insert({2, 2}));
  EXPECT_TRUE(store.contains({2, 2}));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_FALSE(store.insert({2, 2}));
}

TEST(StoreErase, EveryBuiltInSubstrateHonoursTheContract) {
  TreeSetStore<Cell> tree;
  check_erase_contract(tree);
  SkipListStore<Cell> skip;
  check_erase_contract(skip);
  HashSetStore<Cell, CellHash> hash;
  check_erase_contract(hash);
  StripedHashStore<Cell, CellHash> striped;
  check_erase_contract(striped);
  FlatOrderedStore<Cell, CellHash> flat;
  check_erase_contract(flat);
  FlatHashStore<Cell, CellHash> flat_hash;
  check_erase_contract(flat_hash);
  ColumnStore<Cell, CellHash, std::int64_t Cell::*, std::int64_t Cell::*> columnar(
      CellHash{}, &Cell::a, &Cell::b);
  check_erase_contract(columnar);
  std::int64_t clock = 0;
  EpochWindowStore<Cell, CellHash> window(
      [&clock](const Cell&) { return clock; }, 4, CellHash{},
      /*clock_epochs=*/true);
  check_erase_contract(window);
}

TEST(StoreErase, FlatOrderedEraseSpansStagedAndMergedRegions) {
  FlatOrderedStore<Cell, CellHash> store;
  // Push past the merge threshold so early tuples live in the sorted run.
  for (std::int64_t i = 0; i < 500; ++i) ASSERT_TRUE(store.insert({i, i}));
  ASSERT_GT(store.merges(), 0);
  EXPECT_TRUE(store.erase({1, 1}));     // merged region (anti-merge set)
  EXPECT_FALSE(store.contains({1, 1}));
  store.insert({1000, 1000});           // staged, unmerged
  EXPECT_TRUE(store.erase({1000, 1000}));
  EXPECT_FALSE(store.contains({1000, 1000}));
  // The dead tuple must stay dead across the next merge...
  for (std::int64_t i = 500; i < 900; ++i) ASSERT_TRUE(store.insert({i, i}));
  EXPECT_FALSE(store.contains({1, 1}));
  // ...and be insertable afresh afterwards.
  EXPECT_TRUE(store.insert({1, 1}));
  EXPECT_TRUE(store.contains({1, 1}));
}

TEST(StoreErase, FlatHashTombstonesAreReusedAndPurged) {
  FlatHashStore<Cell, CellHash> store;
  for (std::int64_t i = 0; i < 200; ++i) ASSERT_TRUE(store.insert({i, 0}));
  for (std::int64_t i = 0; i < 200; i += 2) {
    ASSERT_TRUE(store.erase({i, 0}));
  }
  EXPECT_EQ(store.size(), 100u);
  EXPECT_GT(store.tombstones(), 0);
  // Probes must step over tombstones to find survivors.
  for (std::int64_t i = 1; i < 200; i += 2) {
    EXPECT_TRUE(store.contains({i, 0})) << i;
  }
  // Reinserting an erased tuple reuses its tombstone slot.
  EXPECT_TRUE(store.insert({0, 0}));
  EXPECT_TRUE(store.contains({0, 0}));
  // Churn enough for the load factor (live + tombstones) to force a
  // purge rebuild; everything live must survive it.
  for (std::int64_t i = 1000; i < 3000; ++i) {
    ASSERT_TRUE(store.insert({i, 0}));
    ASSERT_TRUE(store.erase({i, 0}));
  }
  for (std::int64_t i = 1; i < 200; i += 2) {
    EXPECT_TRUE(store.contains({i, 0})) << i;
  }
}

// --- counted tables: presence transitions & cascades ------------------------

struct Fact {
  std::int64_t key, gen;
  auto operator<=>(const Fact&) const = default;
};

TableDecl<Fact> fact_decl(const std::string& name) {
  return TableDecl<Fact>(name)
      .orderby_lit(name)
      .orderby_seq("gen", &Fact::gen)
      .hash([](const Fact& f) { return hash_fields(f.key, f.gen); })
      .counted();
}

/// One counted chain Fact -> Derived (gen + 1), with insert/retract
/// observation hooks on both tables.
struct Chain {
  Engine eng;
  Table<Fact>* facts = nullptr;
  Table<Fact>* derived = nullptr;
  std::vector<Fact> fact_inserts, fact_retracts;
  std::vector<Fact> derived_inserts, derived_retracts;

  explicit Chain(const EngineOptions& opts) : eng(opts) {
    facts = &eng.table(
        fact_decl("Fact")
            .effect([this](const Fact& f) { fact_inserts.push_back(f); })
            .retract_effect(
                [this](const Fact& f) { fact_retracts.push_back(f); }));
    derived = &eng.table(
        fact_decl("Derived")
            .effect([this](const Fact& f) { derived_inserts.push_back(f); })
            .retract_effect(
                [this](const Fact& f) { derived_retracts.push_back(f); }));
    eng.order({"Fact", "Derived"});
    eng.rule(*facts, "derive", [this](RuleCtx& ctx, const Fact& f) {
      derived->put(ctx, Fact{f.key, f.gen + 1});
    });
  }

  std::set<Fact> live_facts() const { return scan_set(*facts); }
  std::set<Fact> live_derived() const { return scan_set(*derived); }

  static std::set<Fact> scan_set(const Table<Fact>& t) {
    std::set<Fact> out;
    t.scan([&](const Fact& f) { out.insert(f); });
    return out;
  }
};

EngineOptions seq_opts() {
  EngineOptions o;
  o.sequential = true;
  return o;
}

TEST(CountedTable, RetractRemovesTupleAndItsDownstreamCone) {
  Chain c(seq_opts());
  c.eng.put(*c.facts, {1, 0});
  c.eng.run();
  EXPECT_EQ(c.live_facts(), (std::set<Fact>{{1, 0}}));
  EXPECT_EQ(c.live_derived(), (std::set<Fact>{{1, 1}}));

  c.eng.retract(*c.facts, {1, 0});
  c.eng.run();
  EXPECT_TRUE(c.live_facts().empty());
  EXPECT_TRUE(c.live_derived().empty());
  EXPECT_EQ(c.fact_retracts, (std::vector<Fact>{{1, 0}}));
  EXPECT_EQ(c.derived_retracts, (std::vector<Fact>{{1, 1}}));
  EXPECT_EQ(c.facts->stats().gamma_erased.load(), 1);
  EXPECT_EQ(c.derived->stats().gamma_erased.load(), 1);
}

TEST(CountedTable, MultiplicityShieldsPresenceUntilCountReachesZero) {
  Chain c(seq_opts());
  c.eng.put(*c.facts, {1, 0});
  c.eng.run();
  c.eng.put(*c.facts, {1, 0});  // second insert: count 2, no re-fire
  c.eng.run();
  EXPECT_EQ(c.fact_inserts.size(), 1u);
  EXPECT_EQ(c.facts->stats().gamma_dups.load(), 1);

  c.eng.retract(*c.facts, {1, 0});  // count 2 -> 1: still present
  c.eng.run();
  EXPECT_EQ(c.live_facts(), (std::set<Fact>{{1, 0}}));
  EXPECT_EQ(c.live_derived(), (std::set<Fact>{{1, 1}}));
  EXPECT_TRUE(c.fact_retracts.empty());

  c.eng.retract(*c.facts, {1, 0});  // count 1 -> 0: gone, cascade fires
  c.eng.run();
  EXPECT_TRUE(c.live_facts().empty());
  EXPECT_TRUE(c.live_derived().empty());
  EXPECT_EQ(c.fact_retracts.size(), 1u);
}

TEST(CountedTable, SharedDerivationKeepsChildUntilLastParentGoes) {
  // Two parents derive the same child: the child's count is 2, so
  // retracting one parent must NOT retract the child.
  Engine eng(seq_opts());
  std::vector<Fact> child_retracts;
  auto& parents = eng.table(fact_decl("Fact"));
  auto& child = eng.table(fact_decl("Derived").retract_effect(
      [&child_retracts](const Fact& f) { child_retracts.push_back(f); }));
  eng.order({"Fact", "Derived"});
  eng.rule(parents, "derive_shared", [&child](RuleCtx& ctx, const Fact& f) {
    child.put(ctx, Fact{7, f.gen + 1});  // every parent derives {7, 1}
  });
  eng.put(parents, {1, 0});
  eng.put(parents, {2, 0});
  eng.run();
  EXPECT_TRUE(child.contains({7, 1}));

  eng.retract(parents, {1, 0});  // child count 2 -> 1
  eng.run();
  EXPECT_TRUE(child.contains({7, 1}));
  EXPECT_TRUE(child_retracts.empty());

  eng.retract(parents, {2, 0});  // child count 1 -> 0
  eng.run();
  EXPECT_FALSE(child.contains({7, 1}));
  EXPECT_EQ(child_retracts, (std::vector<Fact>{{7, 1}}));
}

TEST(CountedTable, RetractBeforeInsertRecordsDebtThatAnnihilates) {
  Chain c(seq_opts());
  c.eng.retract(*c.facts, {1, 0});  // nothing there yet: debt (count -1)
  c.eng.run();
  EXPECT_TRUE(c.live_facts().empty());
  EXPECT_TRUE(c.fact_retracts.empty());  // no presence transition
  EXPECT_EQ(c.facts->stats().retract_debts.load(), 1);

  c.eng.put(*c.facts, {1, 0});  // pays the debt: count -1 -> 0, no insert
  c.eng.run();
  EXPECT_TRUE(c.live_facts().empty());
  EXPECT_TRUE(c.live_derived().empty());
  EXPECT_TRUE(c.fact_inserts.empty());
  EXPECT_EQ(c.facts->stats().annihilated.load(), 1);

  c.eng.put(*c.facts, {1, 0});  // debt paid: a normal insert again
  c.eng.run();
  EXPECT_EQ(c.live_facts(), (std::set<Fact>{{1, 0}}));
  EXPECT_EQ(c.live_derived(), (std::set<Fact>{{1, 1}}));
}

TEST(CountedTable, SameBatchInsertRetractPairAnnihilatesSilently) {
  Chain c(seq_opts());
  c.eng.put(*c.facts, {1, 0});
  c.eng.retract(*c.facts, {1, 0});  // same Delta batch: signs sum to 0
  c.eng.run();
  EXPECT_TRUE(c.live_facts().empty());
  EXPECT_TRUE(c.live_derived().empty());
  EXPECT_TRUE(c.fact_inserts.empty());   // never became present
  EXPECT_TRUE(c.fact_retracts.empty());  // never became absent either
}

TEST(CountedTable, ReinsertAfterRetractRederivesTheCone) {
  Chain c(seq_opts());
  c.eng.put(*c.facts, {1, 0});
  c.eng.run();
  c.eng.retract(*c.facts, {1, 0});
  c.eng.run();
  c.eng.put(*c.facts, {1, 0});
  c.eng.run();
  EXPECT_EQ(c.live_facts(), (std::set<Fact>{{1, 0}}));
  EXPECT_EQ(c.live_derived(), (std::set<Fact>{{1, 1}}));
  EXPECT_EQ(c.fact_inserts.size(), 2u);
  EXPECT_EQ(c.derived_inserts.size(), 2u);
  EXPECT_EQ(c.derived_retracts.size(), 1u);
}

TEST(CountedTable, DeepConeRetractsTransitively) {
  // Fact{key, 0} derives gens 1..4; retracting the root empties them all.
  Engine eng(seq_opts());
  auto& facts = eng.table(fact_decl("Fact"));
  eng.rule(facts, "grow", [&facts](RuleCtx& ctx, const Fact& f) {
    if (f.gen < 4) facts.put(ctx, Fact{f.key, f.gen + 1});
  });
  eng.put(facts, {1, 0});
  eng.run();
  EXPECT_EQ(facts.gamma_size(), 5u);
  eng.retract(facts, {1, 0});
  eng.run();
  EXPECT_EQ(facts.gamma_size(), 0u);
  EXPECT_EQ(facts.stats().gamma_erased.load(), 5);
}

// --- counted semantics across the parallel engine and every substrate ------

enum class Sub { Default, FlatOrdered, FlatHash, Columnar };

TableDecl<Fact> fact_decl_sub(const std::string& name, Sub sub) {
  TableDecl<Fact> d = fact_decl(name);
  switch (sub) {
    case Sub::Default: break;
    case Sub::FlatOrdered: d.flat_store(); break;
    case Sub::FlatHash: d.flat_hash_store(); break;
    case Sub::Columnar: d.columns(&Fact::key, &Fact::gen); break;
  }
  return d;
}

TEST(CountedTable, CascadeCorrectAcrossParallelEngineAndSubstrates) {
  for (const bool sequential : {true, false}) {
    for (const Sub sub :
         {Sub::Default, Sub::FlatOrdered, Sub::FlatHash, Sub::Columnar}) {
      SCOPED_TRACE((sequential ? "sequential " : "parallel ") +
                   std::to_string(static_cast<int>(sub)));
      EngineOptions opts;
      opts.sequential = sequential;
      opts.threads = 3;
      Engine eng(opts);
      auto& facts = eng.table(fact_decl_sub("Fact", sub));
      eng.rule(facts, "grow", [&facts](RuleCtx& ctx, const Fact& f) {
        if (f.gen < 3) facts.put(ctx, Fact{f.key, f.gen + 1});
      });
      for (std::int64_t k = 0; k < 16; ++k) eng.put(facts, {k, 0});
      eng.run();
      EXPECT_EQ(facts.gamma_size(), 64u);
      // Retract every even root; their cones must vanish, odd cones stay.
      for (std::int64_t k = 0; k < 16; k += 2) eng.retract(facts, {k, 0});
      eng.run();
      EXPECT_EQ(facts.gamma_size(), 32u);
      std::set<Fact> live = Chain::scan_set(facts);
      for (const Fact& f : live) EXPECT_EQ(f.key % 2, 1) << f.key;
      EXPECT_EQ(live.size(), 32u);
      EXPECT_EQ(facts.stats().gamma_erased.load(), 32);
    }
  }
}

// The default parallel Gamma store (a skip list) only retires the nodes
// erase() unlinks; Engine::run() frees them on its Delta GC schedule,
// which carries over from one run to the next.  Many one-batch insert and
// retract waves must keep the retired nodes within one GC interval's
// worth of erasures instead of accumulating every erased node.
TEST(CountedTable, ParallelGammaGarbageStaysBoundedAcrossWaves) {
  EngineOptions opts;
  opts.sequential = false;
  opts.threads = 4;
  opts.gc_interval_batches = 4;
  Engine eng(opts);
  auto& facts = eng.table(fact_decl("Fact"));
  eng.prepare();
  const auto* store = dynamic_cast<const SkipListStore<Fact>*>(facts.store());
  ASSERT_NE(store, nullptr) << facts.store()->describe();
  constexpr std::int64_t kPerWave = 64;
  constexpr int kWaves = 100;
  std::size_t peak = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (std::int64_t k = 0; k < kPerWave; ++k) eng.put(facts, {k, 0});
    eng.run();
    EXPECT_EQ(facts.gamma_size(), static_cast<std::size_t>(kPerWave));
    for (std::int64_t k = 0; k < kPerWave; ++k) eng.retract(facts, {k, 0});
    eng.run();
    EXPECT_EQ(facts.gamma_size(), 0u);
    peak = std::max(peak, store->retired());
  }
  EXPECT_EQ(facts.stats().gamma_erased.load(), kWaves * kPerWave);
  EXPECT_GT(peak, 0u);
  EXPECT_LE(peak, static_cast<std::size_t>(opts.gc_interval_batches) *
                      static_cast<std::size_t>(kPerWave));
}

// --- upserts ----------------------------------------------------------------

struct Row {
  std::int64_t id, val;
  auto operator<=>(const Row&) const = default;
};

TableDecl<Row> row_decl(const std::string& name) {
  return TableDecl<Row>(name)
      .orderby_lit(name)
      .hash([](const Row& r) { return hash_fields(r.id, r.val); })
      .counted();
}

TEST(CountedTable, UpsertDisplacesIncumbentAndRetractsItsCone) {
  Engine eng(seq_opts());
  std::vector<Row> out_retracts;
  auto& rows = eng.table(row_decl("Row").primary_key(&Row::id));
  auto& out = eng.table(row_decl("Out").retract_effect(
      [&out_retracts](const Row& r) { out_retracts.push_back(r); }));
  eng.order({"Row", "Out"});
  eng.rule(rows, "project", [&out](RuleCtx& ctx, const Row& r) {
    out.put(ctx, Row{r.id, r.val * 10});
  });

  eng.put(rows, {1, 5});
  eng.run();
  EXPECT_EQ(rows.get_unique(1), (Row{1, 5}));
  EXPECT_TRUE(out.contains({1, 50}));

  eng.upsert(rows, {1, 6});
  eng.run();
  EXPECT_EQ(rows.get_unique(1), (Row{1, 6}));
  EXPECT_FALSE(rows.contains({1, 5}));
  EXPECT_FALSE(out.contains({1, 50}));  // displaced cone retracted...
  EXPECT_TRUE(out.contains({1, 60}));   // ...replacement cone derived
  EXPECT_EQ(out_retracts, (std::vector<Row>{{1, 50}}));
  EXPECT_EQ(rows.stats().upserts.load(), 1);
  EXPECT_EQ(rows.stats().upsert_replaced.load(), 1);
}

TEST(CountedTable, UpsertIntoEmptyKeyIsAPlainInsert) {
  Engine eng(seq_opts());
  auto& rows = eng.table(row_decl("Row").primary_key(&Row::id));
  eng.upsert(rows, {4, 44});
  eng.run();
  EXPECT_EQ(rows.get_unique(4), (Row{4, 44}));
  EXPECT_EQ(rows.stats().upsert_replaced.load(), 0);
}

TEST(CountedTable, UpsertOfTheIncumbentItselfIsANoOp) {
  Engine eng(seq_opts());
  std::vector<Row> inserts;
  auto& rows = eng.table(row_decl("Row").primary_key(&Row::id).effect(
      [&inserts](const Row& r) { inserts.push_back(r); }));
  eng.put(rows, {1, 5});
  eng.run();
  eng.upsert(rows, {1, 5});
  eng.run();
  EXPECT_EQ(rows.get_unique(1), (Row{1, 5}));
  EXPECT_EQ(inserts.size(), 1u);  // no re-fire
  EXPECT_EQ(rows.stats().upsert_replaced.load(), 0);
}

TEST(CountedTable, UpsertForceClearsIncumbentMultiplicity) {
  // The incumbent was inserted twice (count 2); an upsert still removes
  // it outright — keyed overwrite beats multiplicity.
  Engine eng(seq_opts());
  auto& rows = eng.table(row_decl("Row").primary_key(&Row::id));
  eng.put(rows, {1, 5});
  eng.run();
  eng.put(rows, {1, 5});
  eng.run();
  eng.upsert(rows, {1, 6});
  eng.run();
  EXPECT_EQ(rows.get_unique(1), (Row{1, 6}));
  EXPECT_FALSE(rows.contains({1, 5}));
  // And the old multiplicity is forgotten: retracting the new row once
  // empties the key.
  eng.retract(rows, {1, 6});
  eng.run();
  EXPECT_EQ(rows.get_unique(1), std::nullopt);
}

// --- windowed straggler semantics unified across substrates (bugfix) --------

// Drives the three windowed substrates through the same script with a
// shared epoch clock and asserts identical observable behaviour: normal
// retention, insert-driven retirement, the dropped-but-fresh straggler
// contract when an insert observes a stale clock, and re-insert after
// retirement.  Before the fix, flat/columnar windows only retired on
// retire_up_to() and stored stragglers the bucketed store would drop.
TEST(CrossSubstrateWindow, StragglerSemanticsAgree) {
  constexpr std::int64_t kKeep = 2;
  std::atomic<std::int64_t> clock{0};
  // EpochWindowStore reads the same atomic through its epoch_of functor.
  EpochWindowStore<Cell, CellHash> window(
      [&clock](const Cell&) { return clock.load(); }, kKeep, CellHash{},
      /*clock_epochs=*/true);
  FlatOrderedStore<Cell, CellHash> flat(&clock, CellHash{}, kKeep);
  ColumnStore<Cell, CellHash, std::int64_t Cell::*, std::int64_t Cell::*> columnar(
      &clock, kKeep, CellHash{}, &Cell::a, &Cell::b);
  std::vector<GammaStore<Cell>*> stores{&window, &flat, &columnar};

  for (GammaStore<Cell>* s : stores) {
    SCOPED_TRACE(s->describe());
    clock.store(1);
    EXPECT_TRUE(s->insert({1, 0}));
    clock.store(3);
    EXPECT_TRUE(s->insert({2, 0}));
    // Insert-driven retirement: epoch 4 pushes {1,0} (epoch 1 <= 4 - 2)
    // out of the window with no retire_up_to() call at all; {2,0} at
    // epoch 3 survives.
    clock.store(4);
    EXPECT_TRUE(s->insert({4, 0}));
    EXPECT_FALSE(s->contains({1, 0}));
    EXPECT_TRUE(s->contains({2, 0}));
    EXPECT_TRUE(s->contains({4, 0}));
    EXPECT_EQ(s->size(), 2u);

    // Straggler: an insert that observes a stale clock value behind the
    // ratcheted window must be dropped-but-fresh (returns true so rules
    // fire once, stores nothing) — identically everywhere.
    clock.store(2);
    EXPECT_TRUE(s->insert({9, 0}));
    EXPECT_FALSE(s->contains({9, 0}));
    EXPECT_EQ(s->size(), 2u);

    // Re-insert after retirement: {1,0} was retired, so it is fresh
    // again at the current epoch and lives a full new lifetime.
    clock.store(4);
    EXPECT_TRUE(s->insert({1, 0}));
    EXPECT_TRUE(s->contains({1, 0}));
    EXPECT_FALSE(s->insert({1, 0}));  // duplicate within the live window
    EXPECT_EQ(s->size(), 3u);
  }
}

TEST(CrossSubstrateWindow, RetireUpToRatchetsTheStragglerCutoffEverywhere) {
  constexpr std::int64_t kKeep = 2;
  std::atomic<std::int64_t> clock{0};
  EpochWindowStore<Cell, CellHash> window(
      [&clock](const Cell&) { return clock.load(); }, kKeep, CellHash{},
      /*clock_epochs=*/true);
  FlatOrderedStore<Cell, CellHash> flat(&clock, CellHash{}, kKeep);
  ColumnStore<Cell, CellHash, std::int64_t Cell::*, std::int64_t Cell::*> columnar(
      &clock, kKeep, CellHash{}, &Cell::a, &Cell::b);
  std::vector<GammaStore<Cell>*> stores{&window, &flat, &columnar};
  std::vector<RetiringStore<Cell>*> retiring{&window, &flat, &columnar};

  for (std::size_t i = 0; i < stores.size(); ++i) {
    GammaStore<Cell>* s = stores[i];
    SCOPED_TRACE(s->describe());
    clock.store(3);
    EXPECT_TRUE(s->insert({3, 0}));
    // The explicit GC entry point (begin_epoch) retires through epoch 3
    // and must ratchet the straggler cutoff in every substrate.
    retiring[i]->retire_up_to(3);
    EXPECT_FALSE(s->contains({3, 0}));
    EXPECT_EQ(s->size(), 0u);
    clock.store(3);
    EXPECT_TRUE(s->insert({5, 0}));  // stale epoch: dropped-but-fresh
    EXPECT_FALSE(s->contains({5, 0}));
    clock.store(5);
    EXPECT_TRUE(s->insert({5, 0}));  // live epoch: stored
    EXPECT_TRUE(s->contains({5, 0}));
  }
}

// --- retract as a third eraser next to retention & index sweeps -------------

struct Item {
  std::int64_t cat, n;
  auto operator<=>(const Item&) const = default;
};

TableDecl<Item> item_decl() {
  return TableDecl<Item>("Item")
      .orderby_lit("Item")
      .hash([](const Item& i) { return hash_fields(i.cat, i.n); })
      .counted()
      .retain(2);
}

std::set<Item> index_query(const Table<Item>& t, std::int64_t cat) {
  std::set<Item> out;
  t.query(query::eq(&Item::cat, cat), [&](const Item& i) { out.insert(i); });
  return out;
}

std::set<Item> scan_filter(const Table<Item>& t, std::int64_t cat) {
  std::set<Item> out;
  t.scan([&](const Item& i) {
    if (i.cat == cat) out.insert(i);
  });
  return out;
}

// Deterministic interleaving 1: the retraction is queued, then window
// retirement erases the tuple (store + index + count) first, then the run
// processes the retract — which must find nothing, record a debt, and
// leave the secondary index consistent with the store.
TEST(RetractVsRetirement, RetirementFirstThenRetractBecomesDebt) {
  Engine eng(seq_opts());
  auto& items = eng.table(item_decl());
  items.add_index(&Item::cat);
  eng.put(items, {1, 10});
  eng.run();
  ASSERT_TRUE(items.contains({1, 10}));

  eng.retract(items, {1, 10});      // queued for the next run...
  eng.begin_epoch();                // epoch 1
  eng.begin_epoch();                // epoch 2
  eng.begin_epoch();                // epoch 3: {1,10} falls out, count
                                    // cleared by the retire listener
  ASSERT_FALSE(items.contains({1, 10}));
  eng.run();                        // ...and lands after retirement
  EXPECT_FALSE(items.contains({1, 10}));
  EXPECT_EQ(items.stats().retract_debts.load(), 1);
  EXPECT_EQ(items.stats().gamma_erased.load(), 0);  // retirement, not erase
  EXPECT_EQ(index_query(items, 1), scan_filter(items, 1));
  EXPECT_TRUE(index_query(items, 1).empty());

  // Window retirement forgot the multiplicity, so the late retract is a
  // fresh debt: the next insert annihilates against it.
  eng.put(items, {1, 10});
  eng.run();
  EXPECT_FALSE(items.contains({1, 10}));
  EXPECT_EQ(items.stats().annihilated.load(), 1);
}

// Deterministic interleaving 2: the retract wins the race — processed
// before the epoch boundary — so retirement must find the tuple already
// gone and sweep nothing twice.
TEST(RetractVsRetirement, RetractFirstThenRetirementSweepsNothing) {
  Engine eng(seq_opts());
  auto& items = eng.table(item_decl());
  items.add_index(&Item::cat);
  eng.put(items, {1, 10});
  eng.put(items, {1, 11});
  eng.run();

  eng.retract(items, {1, 10});
  eng.run();  // erased via the retract path
  EXPECT_EQ(items.stats().gamma_erased.load(), 1);
  const std::int64_t retired_before = items.stats().gamma_retired.load();

  eng.begin_epoch();
  eng.begin_epoch();
  eng.begin_epoch();  // window sweeps {1,11} but must not re-sweep {1,10}
  EXPECT_EQ(items.stats().gamma_retired.load() - retired_before, 1);
  EXPECT_TRUE(index_query(items, 1).empty());
  EXPECT_EQ(index_query(items, 1), scan_filter(items, 1));
}

// The parallel hammer (run under TSan in CI): a windowed, indexed,
// counted table takes interleaved insert/retract waves from a parallel
// engine across epoch boundaries, with rule-driven queries probing the
// index mid-run.  Retraction (phase A), window retirement (epoch open)
// and the index sweep listener all erase concurrently with probe
// revalidation — the three-eraser surface of the bugfix.  Invariant at
// every quiescent point: index-routed queries equal filtered scans.
TEST(RetractVsRetirement, ParallelChurnKeepsIndexAndStoreCoherent) {
  EngineOptions opts;
  opts.sequential = false;
  opts.threads = 4;
  Engine eng(opts);
  std::atomic<std::int64_t> probed{0};
  auto& items = eng.table(item_decl());
  items.add_index(&Item::cat);
  auto& driver = eng.table(TableDecl<Fact>("Drive")
                               .orderby_lit("Drive")
                               .orderby_seq("gen", &Fact::gen)
                               .hash([](const Fact& f) {
                                 return hash_fields(f.key, f.gen);
                               }));
  eng.order({"Item", "Drive"});
  // Each driver tuple probes the index while phase-B fires race the
  // store's internal state — revalidation must never deliver a tuple a
  // concurrent eraser removed.
  eng.rule(driver, "probe", [&items, &probed](RuleCtx&, const Fact& f) {
    items.query(query::eq(&Item::cat, f.key % 8), [&probed](const Item&) {
      probed.fetch_add(1, std::memory_order_relaxed);
    });
  });

  for (std::int64_t e = 1; e <= 8; ++e) {
    eng.begin_epoch();
    for (std::int64_t n = 0; n < 64; ++n) {
      eng.put(items, {n % 8, e * 1000 + n});
    }
    if (e > 1) {
      // Retract half of the previous epoch's wave — some already behind
      // the window, becoming debts.
      for (std::int64_t n = 0; n < 64; n += 2) {
        eng.retract(items, {n % 8, (e - 1) * 1000 + n});
      }
    }
    for (std::int64_t k = 0; k < 8; ++k) eng.put(driver, {k, 0});
    eng.run();
    for (std::int64_t cat = 0; cat < 8; ++cat) {
      ASSERT_EQ(index_query(items, cat), scan_filter(items, cat))
          << "epoch " << e << " cat " << cat;
    }
  }
  EXPECT_GT(probed.load(), 0);
  EXPECT_GT(items.stats().gamma_erased.load(), 0);
  EXPECT_GT(items.stats().gamma_retired.load(), 0);
}

// A secondary index keeps one contiguous bucket per key; erase moves the
// bucket's last entry into the hole.  Thousands of tuples under one key,
// thinned by counted retracts in scattered order and then swept by the
// retain(2) window, must keep index-routed queries equal to scans, and
// every swept tuple must leave the index exactly once.
TEST(IndexBucket, OneHotKeyUnderRetractsAndRetainSweep) {
  EngineOptions opts;
  opts.sequential = false;
  opts.threads = 4;
  Engine eng(opts);
  auto& items = eng.table(item_decl());
  items.add_index(&Item::cat);
  const auto check = [&](const char* step) {
    for (const std::int64_t cat : {1, 2}) {
      ASSERT_EQ(index_query(items, cat), scan_filter(items, cat))
          << step << ", cat " << cat;
    }
  };

  constexpr std::int64_t kHot = 3000, kCold = 40;
  for (std::int64_t n = 0; n < kHot; ++n) eng.put(items, {1, n});
  for (std::int64_t n = 0; n < kCold; ++n) eng.put(items, {2, n});
  eng.run();
  check("epoch 0 load");
  EXPECT_EQ(index_query(items, 1).size(), static_cast<std::size_t>(kHot));

  // Retract every third hot tuple in scattered order (i * 7919 permutes
  // the multiples of 3 below kHot), so holes open all over the bucket.
  for (std::int64_t i = 0; i < kHot; i += 3) {
    eng.retract(items, {1, (i * 7919) % kHot});
  }
  eng.run();
  check("after retracts");
  constexpr std::int64_t kEpoch0Live = kHot - kHot / 3 + kCold;
  EXPECT_EQ(index_query(items, 1).size(),
            static_cast<std::size_t>(kHot - kHot / 3));

  // A second copy shields a tuple from one retract (counted table).
  eng.put(items, {1, 1});
  eng.run();
  eng.retract(items, {1, 1});
  eng.run();
  check("after the shielded retract");
  EXPECT_TRUE(items.contains({1, 1}));

  eng.begin_epoch();  // epoch 1: a fresh wave under the same key
  for (std::int64_t n = kHot; n < kHot + 500; ++n) eng.put(items, {1, n});
  eng.run();
  check("epoch 1 load");

  const std::int64_t index_before = items.stats().index_retired.load();
  const std::int64_t gamma_before = items.stats().gamma_retired.load();
  eng.begin_epoch();  // epoch 2: retain(2) keeps epochs 1 and 2
  check("after the retain sweep");
  EXPECT_EQ(items.stats().gamma_retired.load() - gamma_before, kEpoch0Live);
  EXPECT_EQ(items.stats().index_retired.load() - index_before, kEpoch0Live);
  EXPECT_EQ(index_query(items, 1).size(), 500u);
  EXPECT_TRUE(index_query(items, 2).empty());
}

// --- configuration guard rails ---------------------------------------------

TEST(CountedTable, RetractOnUncountedTableIsRefused) {
  Engine eng(seq_opts());
  auto& facts = eng.table(TableDecl<Fact>("Plain")
                              .orderby_lit("Plain")
                              .orderby_seq("gen", &Fact::gen)
                              .hash([](const Fact& f) {
                                return hash_fields(f.key, f.gen);
                              }));
  eng.prepare();
  EXPECT_THROW(eng.retract(facts, {1, 0}), std::logic_error);
}

TEST(CountedTable, UpsertWithoutPrimaryKeyIsRefused) {
  Engine eng(seq_opts());
  auto& facts = eng.table(fact_decl("Fact"));
  eng.prepare();
  EXPECT_THROW(eng.upsert(facts, {1, 0}), std::logic_error);
}

TEST(CountedTable, NoGammaCombinationIsRefused) {
  EngineOptions opts = seq_opts();
  opts.no_gamma.insert("Fact");
  Engine eng(opts);
  eng.table(fact_decl("Fact"));
  EXPECT_THROW(eng.prepare(), std::logic_error);
}

TEST(CountedTable, NoDeltaCombinationIsRefused) {
  EngineOptions opts = seq_opts();
  opts.no_delta.insert("Fact");
  Engine eng(opts);
  eng.table(fact_decl("Fact"));
  EXPECT_THROW(eng.prepare(), std::logic_error);
}

}  // namespace
}  // namespace jstar

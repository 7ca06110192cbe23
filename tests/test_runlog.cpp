// Tests for the run-log subsystem (§1.5): capture from a live engine,
// JSON and file round-trips, and log-driven annotated DOT graphs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/simd.h"
#include "util/json.h"
#include "viz/runlog.h"

namespace jstar::viz {
namespace {

struct Src {
  std::int64_t id;
  auto operator<=>(const Src&) const = default;
};
struct Dst {
  std::int64_t v;
  auto operator<=>(const Dst&) const = default;
};

/// Builds, runs and captures a small two-table program.
RunLog sample_log() {
  Engine eng(EngineOptions{.sequential = true});
  auto& src = eng.table(TableDecl<Src>("Src")
                            .orderby_lit("A")
                            .orderby_seq("id", &Src::id)
                            .hash([](const Src& s) { return hash_fields(s.id); }));
  auto& dst = eng.table(TableDecl<Dst>("Dst")
                            .orderby_lit("B")
                            .hash([](const Dst& d) { return hash_fields(d.v); }));
  eng.order({"A", "B"});
  eng.rule(src, "derive", [&](RuleCtx& ctx, const Src& s) {
    dst.put(ctx, Dst{s.id % 3});
  });
  eng.rule(dst, "consume", [&](RuleCtx&, const Dst&) {});
  for (int i = 0; i < 30; ++i) eng.put(src, Src{i});
  const RunReport report = eng.run();
  return capture(eng, "sample", report);
}

TEST(RunLog, CaptureRecordsTablesEdgesAndCounts) {
  const RunLog log = sample_log();
  EXPECT_EQ(log.program, "sample");
  ASSERT_EQ(log.tables.size(), 2u);
  EXPECT_EQ(log.tables[0].name, "Src");
  EXPECT_EQ(log.tables[0].puts, 30);
  EXPECT_EQ(log.tables[0].fires, 30);
  EXPECT_EQ(log.tables[0].rules, std::vector<std::string>{"derive"});
  EXPECT_EQ(log.tables[1].name, "Dst");
  EXPECT_EQ(log.tables[1].gamma_inserts, 3);  // dedup to ids mod 3
  ASSERT_EQ(log.edges.size(), 1u);
  EXPECT_EQ(log.edges[0].from, "Src");
  EXPECT_EQ(log.edges[0].to, "Dst");
  EXPECT_EQ(log.edges[0].count, 30);
  EXPECT_GT(log.batches, 0);
  EXPECT_GT(log.tuples, 0);
}

TEST(RunLog, JsonRoundTripIsLossless) {
  const RunLog log = sample_log();
  const RunLog back = from_json(to_json(log));
  EXPECT_EQ(back, log);
}

TEST(RunLog, FileRoundTrip) {
  const RunLog log = sample_log();
  const auto path = std::filesystem::temp_directory_path() /
                    "jstar_runlog_test.json";
  save(log, path.string());
  const RunLog back = load(path.string());
  EXPECT_EQ(back, log);
  std::filesystem::remove(path);
}

TEST(RunLog, LoadMissingFileThrows) {
  EXPECT_THROW(load("/nonexistent/path/log.json"), std::runtime_error);
}

TEST(RunLog, DotGraphFromLogMentionsEverything) {
  const RunLog log = sample_log();
  const std::string dot = dot_graph(log);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("Src"), std::string::npos);
  EXPECT_NE(dot.find("Dst"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("30 tuples") != std::string::npos ||
                dot.find("tuples") != std::string::npos,
            false);
  // The hottest table is highlighted.
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

TEST(RunLog, DotGraphSkipsEdgesForUnknownTables) {
  RunLog log;
  log.program = "handmade";
  log.tables.push_back({.name = "Only"});
  log.edges.push_back({"Only", "Ghost", 5});
  const std::string dot = dot_graph(log);
  EXPECT_EQ(dot.find("Ghost"), std::string::npos);
  EXPECT_EQ(dot.find("->"), std::string::npos);
}

// The -noGamma satellite: a NullStore table reports its pass-through
// traffic (and the installed substrate name) instead of a silent
// size() == 0.
TEST(RunLog, CapturesStoreNameAndNoGammaPassThrough) {
  EngineOptions opts;
  opts.sequential = true;
  opts.no_gamma.insert("Dst");
  Engine eng(opts);
  auto& src = eng.table(TableDecl<Src>("Src")
                            .orderby_lit("A")
                            .orderby_seq("id", &Src::id)
                            .hash([](const Src& s) { return hash_fields(s.id); }));
  auto& dst = eng.table(TableDecl<Dst>("Dst")
                            .orderby_lit("B")
                            .hash([](const Dst& d) { return hash_fields(d.v); }));
  eng.order({"A", "B"});
  eng.rule(src, "derive", [&](RuleCtx& ctx, const Src& s) {
    dst.put(ctx, Dst{s.id});
  });
  for (int i = 0; i < 25; ++i) eng.put(src, Src{i});
  const RunReport report = eng.run();
  EXPECT_EQ(dst.gamma_size(), 0u);  // nothing retained...
  const RunLog log = capture(eng, "nogamma", report);
  EXPECT_EQ(log.tables[0].store, "tree-set");
  EXPECT_EQ(log.tables[1].store, "null");
  EXPECT_TRUE(log.tables[1].no_gamma);
  EXPECT_EQ(log.tables[1].gamma_passed_through, 25);  // ...throughput shown
  // Round trip keeps the new fields; the dot graph surfaces them.
  const RunLog back = from_json(to_json(log));
  EXPECT_EQ(back, log);
  const std::string dot = dot_graph(log);
  EXPECT_NE(dot.find("passed=25"), std::string::npos);
  EXPECT_NE(dot.find("[null]"), std::string::npos);
  EXPECT_NE(dot.find("[tree-set]"), std::string::npos);
}

TEST(RunLog, CapturesIndexAndScanCounters) {
  Engine eng(EngineOptions{.sequential = true});
  auto& src = eng.table(TableDecl<Src>("Src")
                            .orderby_lit("A")
                            .orderby_seq("id", &Src::id)
                            .hash([](const Src& s) { return hash_fields(s.id); }));
  src.add_index(&Src::id);
  for (int i = 0; i < 5; ++i) eng.put(src, Src{i});
  const RunReport report = eng.run();
  (void)src.query_count(query::eq(&Src::id, 2));
  (void)src.query_count(query::lt(&Src::id, 3));
  const RunLog log = capture(eng, "indexed", report);
  EXPECT_EQ(log.tables[0].index_lookups, 1);
  EXPECT_EQ(log.tables[0].full_scans, 1);
}

TEST(RunLog, CapturesPlannerAccessPathCounters) {
  Engine eng(EngineOptions{.sequential = true});
  auto& src = eng.table(TableDecl<Src>("Src")
                            .orderby_lit("A")
                            .orderby_seq("id", &Src::id)
                            .primary_key(&Src::id)
                            .hash([](const Src& s) { return hash_fields(s.id); }));
  for (int i = 0; i < 5; ++i) eng.put(src, Src{i});
  const RunReport report = eng.run();
  (void)src.query_count(query::eq(&Src::id, 2));                  // pk probe
  (void)src.query_count(query::eq(&Src::id, 1) &&
                        query::eq(&Src::id, 3));                  // empty plan
  const RunLog log = capture(eng, "planned", report);
  EXPECT_EQ(log.tables[0].pk_probes, 1);
  EXPECT_EQ(log.tables[0].empty_plans, 1);
  EXPECT_EQ(log.tables[0].residual_rows, 1);
  EXPECT_EQ(log.tables[0].residual_hits, 1);
  EXPECT_DOUBLE_EQ(log.tables[0].residual_rate(), 1.0);
  // Round trip keeps the planner counters.
  const RunLog back = from_json(to_json(log));
  EXPECT_EQ(back, log);
  // The dot graph surfaces the access-path row for routed tables.
  const std::string dot = dot_graph(log);
  EXPECT_NE(dot.find("pk=1"), std::string::npos);
  EXPECT_NE(dot.find("empty=1"), std::string::npos);
}

TEST(RunLog, CapturesColumnarKernelCounters) {
  struct Row {
    std::int64_t id, group;
    auto operator<=>(const Row&) const = default;
  };
  Engine eng(EngineOptions{.sequential = true});
  auto& rows = eng.table(TableDecl<Row>("Row")
                             .orderby_lit("A")
                             .columns(&Row::id, &Row::group)
                             .hash([](const Row& r) {
                               return hash_fields(r.id, r.group);
                             }));
  for (int i = 0; i < 40; ++i) eng.put(rows, Row{i, i % 4});
  const RunReport report = eng.run();
  EXPECT_EQ(rows.query_count(query::eq(&Row::group, 1)), 10);  // kernel
  const RunLog log = capture(eng, "columnar", report);
  // The store string now carries the live dispatch level (host-dependent).
  EXPECT_EQ(log.tables[0].store,
            std::string("columnar(2,") +
                simd::to_string(simd::active_level()) + ")");
  EXPECT_EQ(log.tables[0].columnar_kernels, 1);
  EXPECT_EQ(log.tables[0].columnar_rows, 40);
  EXPECT_EQ(log.tables[0].columnar_selected, 10);
  EXPECT_DOUBLE_EQ(log.tables[0].kernel_selectivity(), 0.25);
  // Round trip keeps the kernel counters (the defaulted == would flag a
  // field missing from either JSON direction).
  const RunLog back = from_json(to_json(log));
  EXPECT_EQ(back, log);
  // The dot graph surfaces the kernel row only for tables that ran one.
  const std::string dot = dot_graph(log);
  EXPECT_NE(dot.find("kernels=1"), std::string::npos);
  EXPECT_NE(dot.find("ksel=0.25"), std::string::npos);
  EXPECT_EQ(dot_graph(sample_log()).find("kernels="), std::string::npos);
}

// --- every counter, driven by the one list (core/stats.h) -----------------

/// A one-table log whose counters all hold distinct non-zero values, so a
/// counter written under another's key cannot round-trip unnoticed.
RunLog distinct_counter_log() {
  RunLog log;
  log.program = "counters";
  log.batches = 2;
  log.tuples = 5;
  log.seconds = 0.25;
  TableLog t;
  t.name = "T";
  t.orderby = "(A)";
  t.store = "tree-set";
  t.rules = {"r"};
  std::int64_t v = 1;
  for (const CounterField& c : kCounterFields) t.*c.value = 1000 * v++ + 7;
  log.tables.push_back(t);
  return log;
}

TEST(RunLog, EveryCounterRoundTripsUnderItsOwnKey) {
  const RunLog log = distinct_counter_log();
  const std::string text = to_json(log);
  const json::Value table = json::parse(text).at("tables").as_array().at(0);
  for (const CounterField& c : kCounterFields) {
    EXPECT_EQ(table.at(c.name).as_int(), log.tables[0].*c.value) << c.name;
  }
  const RunLog back = from_json(text);
  for (const CounterField& c : kCounterFields) {
    EXPECT_EQ(back.tables[0].*c.value, log.tables[0].*c.value) << c.name;
  }
  EXPECT_EQ(back, log);

  const auto path = std::filesystem::temp_directory_path() /
                    "jstar_runlog_counters_test.json";
  save(log, path.string());
  EXPECT_EQ(load(path.string()), log);
  std::filesystem::remove(path);
}

/// A log in the format written before the counters were declared as one
/// list (every key that format had; it has no pk_conflicts key).
constexpr const char* kParentFormatLog = R"json({
  "program": "golden",
  "batches": 3,
  "tuples": 9,
  "seconds": 0.5,
  "tables": [
    {
      "name": "Src",
      "orderby": "(A, seq id)",
      "store": "tree-set",
      "no_delta": false,
      "no_gamma": true,
      "puts": 101,
      "delta_inserts": 102,
      "delta_dups": 103,
      "gamma_inserts": 104,
      "gamma_dups": 105,
      "gamma_retired": 106,
      "gamma_passed_through": 107,
      "fires": 108,
      "queries": 109,
      "index_lookups": 110,
      "full_scans": 111,
      "pk_probes": 112,
      "range_scans": 113,
      "empty_plans": 114,
      "index_retired": 115,
      "residual_rows": 116,
      "residual_hits": 117,
      "columnar_kernels": 118,
      "columnar_rows": 119,
      "columnar_selected": 120,
      "morsel_runs": 121,
      "morsel_splits": 122,
      "retracts": 123,
      "gamma_erased": 124,
      "retract_debts": 125,
      "annihilated": 126,
      "upserts": 127,
      "upsert_replaced": 128,
      "emit_flushes": 129,
      "emit_buffered": 130,
      "inline_batches": 131,
      "rules": [
        "derive"
      ]
    }
  ],
  "edges": [
    {
      "from": "Src",
      "to": "Src",
      "count": 4
    }
  ]
})json";

TEST(RunLog, ParentFormatLogLoads) {
  const RunLog log = from_json(kParentFormatLog);
  EXPECT_EQ(log.program, "golden");
  EXPECT_EQ(log.batches, 3);
  EXPECT_EQ(log.tuples, 9);
  EXPECT_DOUBLE_EQ(log.seconds, 0.5);
  ASSERT_EQ(log.tables.size(), 1u);
  const TableLog& t = log.tables[0];
  EXPECT_EQ(t.name, "Src");
  EXPECT_EQ(t.orderby, "(A, seq id)");
  EXPECT_EQ(t.store, "tree-set");
  EXPECT_FALSE(t.no_delta);
  EXPECT_TRUE(t.no_gamma);
  EXPECT_EQ(t.rules, std::vector<std::string>{"derive"});
  const Counters expected{
      .puts = 101, .delta_inserts = 102, .delta_dups = 103,
      .gamma_inserts = 104, .gamma_dups = 105, .gamma_retired = 106,
      .gamma_passed_through = 107, .fires = 108, .queries = 109,
      .pk_conflicts = 0,  // not in that format: reads 0
      .index_lookups = 110, .full_scans = 111, .pk_probes = 112,
      .range_scans = 113, .empty_plans = 114, .index_retired = 115,
      .residual_rows = 116, .residual_hits = 117, .columnar_kernels = 118,
      .columnar_rows = 119, .columnar_selected = 120, .morsel_runs = 121,
      .morsel_splits = 122, .retracts = 123, .gamma_erased = 124,
      .retract_debts = 125, .annihilated = 126, .upserts = 127,
      .upsert_replaced = 128, .emit_flushes = 129, .emit_buffered = 130,
      .inline_batches = 131};
  for (const CounterField& c : kCounterFields) {
    EXPECT_EQ(t.*c.value, expected.*c.value) << c.name;
  }
  ASSERT_EQ(log.edges.size(), 1u);
  EXPECT_EQ(log.edges[0].count, 4);
}

TEST(RunLog, WrittenLogKeepsEveryParentFormatKeyInOrder) {
  // Re-writing the loaded log keeps every key of the older format, in the
  // same order and with the same value; pk_conflicts is the one addition.
  const auto keys = [](const json::Value& table) {
    std::vector<std::string> out;
    for (const auto& [k, v] : table.as_object()) {
      (void)v;
      out.push_back(k);
    }
    return out;
  };
  const json::Value old_root = json::parse(kParentFormatLog);
  const json::Value new_root =
      json::parse(to_json(from_json(kParentFormatLog)));
  const json::Value& old_table = old_root.at("tables").as_array().at(0);
  const json::Value& new_table = new_root.at("tables").as_array().at(0);
  std::vector<std::string> new_keys = keys(new_table);
  std::erase(new_keys, "pk_conflicts");
  EXPECT_EQ(new_keys, keys(old_table));
  for (const std::string& k : keys(old_table)) {
    EXPECT_EQ(new_table.at(k), old_table.at(k)) << k;
  }
  EXPECT_EQ(new_table.at("pk_conflicts").as_int(), 0);
  for (const char* k : {"program", "batches", "tuples", "seconds", "edges"}) {
    EXPECT_EQ(new_root.at(k), old_root.at(k)) << k;
  }
}

}  // namespace
}  // namespace jstar::viz

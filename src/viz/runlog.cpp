#include "viz/runlog.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json.h"

namespace jstar::viz {

namespace {

std::string orderby_string(const TableBase& t) {
  std::string s = "(";
  bool first = true;
  for (const auto& level : t.orderby_spec()) {
    if (!first) s += ", ";
    first = false;
    switch (level.kind) {
      case OrderByLevel::Kind::Lit: s += level.name; break;
      case OrderByLevel::Kind::Seq: s += "seq " + level.name; break;
      case OrderByLevel::Kind::Par: s += "par " + level.name; break;
    }
  }
  return s + ")";
}

json::Value table_to_json(const TableLog& t) {
  json::Object o{
      {"name", t.name},
      {"orderby", t.orderby},
      {"store", t.store},
      {"no_delta", t.no_delta},
      {"no_gamma", t.no_gamma},
  };
  for (const CounterField& c : kCounterFields) {
    o.emplace_back(c.name, t.*c.value);
  }
  json::Array rules;
  for (const std::string& r : t.rules) rules.emplace_back(r);
  o.emplace_back("rules", std::move(rules));
  return o;
}

TableLog table_from_json(const json::Value& v) {
  TableLog t;
  t.name = v.at("name").as_string();
  t.orderby = v.at("orderby").as_string();
  t.store = v.at("store").as_string();
  t.no_delta = v.at("no_delta").as_bool();
  t.no_gamma = v.at("no_gamma").as_bool();
  // A log written before a counter existed has no key for it: the counter
  // reads 0, so older logs keep loading.
  for (const CounterField& c : kCounterFields) {
    if (v.has(c.name)) t.*c.value = v.at(c.name).as_int();
  }
  for (const json::Value& r : v.at("rules").as_array()) {
    t.rules.push_back(r.as_string());
  }
  return t;
}

}  // namespace

RunLog capture(const Engine& engine, const std::string& program,
               const RunReport& report) {
  RunLog log;
  log.program = program;
  log.batches = report.batches;
  log.tuples = report.tuples;
  log.seconds = report.seconds;
  const auto tables = engine.all_tables();
  for (const TableBase* t : tables) {
    TableLog tl{t->stats().load()};
    tl.name = t->name();
    tl.orderby = orderby_string(*t);
    tl.store = t->store_describe();
    tl.no_delta = t->no_delta();
    tl.no_gamma = t->no_gamma();
    tl.rules = t->rule_names();
    log.tables.push_back(std::move(tl));
  }
  const EdgeMatrix& edges = engine.edges();
  for (const TableBase* from : tables) {
    for (const TableBase* to : tables) {
      const std::int64_t n = edges.count(from->id(), to->id());
      if (n > 0) log.edges.push_back({from->name(), to->name(), n});
    }
  }
  return log;
}

std::string to_json(const RunLog& log) {
  json::Array tables;
  for (const TableLog& t : log.tables) tables.push_back(table_to_json(t));
  json::Array edges;
  for (const EdgeLog& e : log.edges) {
    edges.push_back(json::Object{
        {"from", e.from}, {"to", e.to}, {"count", e.count}});
  }
  const json::Value root = json::Object{
      {"program", log.program},
      {"batches", log.batches},
      {"tuples", log.tuples},
      {"seconds", log.seconds},
      {"tables", std::move(tables)},
      {"edges", std::move(edges)},
  };
  return json::write(root);
}

RunLog from_json(const std::string& text) {
  const json::Value root = json::parse(text);
  RunLog log;
  log.program = root.at("program").as_string();
  log.batches = root.at("batches").as_int();
  log.tuples = root.at("tuples").as_int();
  log.seconds = root.at("seconds").as_number();
  for (const json::Value& t : root.at("tables").as_array()) {
    log.tables.push_back(table_from_json(t));
  }
  for (const json::Value& e : root.at("edges").as_array()) {
    log.edges.push_back({e.at("from").as_string(), e.at("to").as_string(),
                         e.at("count").as_int()});
  }
  return log;
}

void save(const RunLog& log, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write run log: " + path);
  out << to_json(log) << "\n";
}

RunLog load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read run log: " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return from_json(ss.str());
}

std::string dot_graph(const RunLog& log) {
  // Hot-table threshold: top decile by fires (at least the max).
  std::int64_t hot = 0;
  for (const TableLog& t : log.tables) hot = std::max(hot, t.fires);
  hot = hot * 9 / 10;

  std::ostringstream os;
  os << "digraph \"" << log.program << "\" {\n"
     << "  rankdir=LR;\n"
     << "  label=\"" << log.program << ": " << log.batches << " batches, "
     << log.tuples << " tuples\";\n"
     << "  node [shape=record, fontsize=10];\n";
  for (std::size_t i = 0; i < log.tables.size(); ++i) {
    const TableLog& t = log.tables[i];
    os << "  t" << i << " [label=\"{" << t.name << " " << t.orderby
       << "|puts=" << t.puts << " fires=" << t.fires
       << "\\lgamma=" << t.gamma_inserts << " dup=" << t.gamma_dups;
    // -noGamma tables store nothing; show their throughput instead.
    if (t.no_gamma) os << " passed=" << t.gamma_passed_through;
    if (!t.store.empty()) os << " [" << t.store << "]";
    os << "\\lqueries=" << t.queries << " idx=" << t.index_lookups
       << " scan=" << t.full_scans << "\\l";
    // Planner access paths, shown only when some query routed off the
    // scan path (keeps planner-free programs' graphs unchanged).
    // residual_rows covers index probes, which have no counter of their
    // own in this sum (index_lookups predates the planner).
    if (t.pk_probes + t.range_scans + t.empty_plans + t.index_retired +
            t.residual_rows > 0) {
      char rate[32];
      std::snprintf(rate, sizeof(rate), "%.2f", t.residual_rate());
      os << "pk=" << t.pk_probes << " range=" << t.range_scans
         << " empty=" << t.empty_plans << " swept=" << t.index_retired
         << " sel=" << rate << "\\l";
    }
    // Retraction/upsert churn, shown only for tables that saw some.
    if (t.retracts + t.upserts > 0) {
      os << "retracts=" << t.retracts << " erased=" << t.gamma_erased
         << " debts=" << t.retract_debts << " upserts=" << t.upserts
         << " replaced=" << t.upsert_replaced << "\\l";
    }
    // Columnar kernel pushdown, shown only when a kernel actually ran.
    if (t.columnar_kernels > 0) {
      char ksel[32];
      std::snprintf(ksel, sizeof(ksel), "%.2f", t.kernel_selectivity());
      os << "kernels=" << t.columnar_kernels << " rows=" << t.columnar_rows
         << " ksel=" << ksel << "\\l";
    }
    // Morsel-parallel execution, shown only when a scan actually split.
    if (t.morsel_runs > 0) {
      os << "morsels=" << t.morsel_splits << " over " << t.morsel_runs
         << " runs\\l";
    }
    // Batch-at-a-time emission, shown only for tables that buffered or
    // fired inline at least once (keeps direct-put graphs unchanged).
    if (t.emit_buffered + t.inline_batches > 0) {
      os << "emitted=" << t.emit_buffered << " flushes=" << t.emit_flushes
         << " inline=" << t.inline_batches << "\\l";
    }
    os << "}\"";
    if (t.fires > 0 && t.fires >= hot) os << ", color=red, penwidth=2";
    if (t.no_delta || t.no_gamma) os << ", style=dashed";
    os << "];\n";
  }
  auto index_of = [&](const std::string& name) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < log.tables.size(); ++i) {
      if (log.tables[i].name == name) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };
  for (const EdgeLog& e : log.edges) {
    const auto from = index_of(e.from);
    const auto to = index_of(e.to);
    if (from < 0 || to < 0) continue;
    os << "  t" << from << " -> t" << to << " [label=\"" << e.count
       << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace jstar::viz

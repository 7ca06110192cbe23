// The run-log subsystem (§1.5): "a logging system for recording usage
// statistics about each table during a program run, and tools to
// visualise those logs as annotated dependency graphs of the program
// execution.  This is a useful basis for choosing parallelisation
// strategies."
//
// capture() snapshots an engine after (or during) a run into a RunLog:
// per-table usage counters, the observed table→table dataflow edges and
// the run report.  Logs serialise to JSON (save/load) so that separate
// tooling — or a later tuning session — can reload them and render
// annotated DOT dependency graphs without re-running the program, which
// is exactly the workflow split of §2 (application programmer produces
// logs; parallelisation engineer studies them).
#pragma once

#include <string>
#include <vector>

#include "core/engine.h"

namespace jstar::viz {

/// One table's usage statistics snapshot: its counters (the Counters
/// base, one JSON key per counter) plus what identifies the table.
struct TableLog : Counters {
  std::string name;
  std::string orderby;
  /// Which Gamma substrate the engine installed (GammaStore::describe():
  /// "tree-set", "skip-list", "flat-ordered", "striped-hash(64)", ...).
  /// The SIMD dispatch level of columnar stores rides in it too.
  std::string store;
  bool no_delta = false;
  bool no_gamma = false;
  std::vector<std::string> rules;

  /// Fraction of tuples a routed plan examined that survived the residual
  /// filter (1.0 = every examined tuple matched, i.e. perfectly selective
  /// routing; 0 when no routed query ran).
  double residual_rate() const {
    return residual_rows > 0
               ? static_cast<double>(residual_hits) /
                     static_cast<double>(residual_rows)
               : 0.0;
  }

  /// Fraction of kernel-swept rows the selection bitmaps kept (how
  /// selective the pushed-down predicates were; 0 when no kernel ran).
  double kernel_selectivity() const {
    return columnar_rows > 0
               ? static_cast<double>(columnar_selected) /
                     static_cast<double>(columnar_rows)
               : 0.0;
  }

  friend bool operator==(const TableLog&, const TableLog&) = default;
};

/// One observed dataflow edge: rules triggered by `from` put into `to`.
struct EdgeLog {
  std::string from;
  std::string to;
  std::int64_t count = 0;

  friend bool operator==(const EdgeLog&, const EdgeLog&) = default;
};

struct RunLog {
  std::string program;
  std::vector<TableLog> tables;
  std::vector<EdgeLog> edges;
  std::int64_t batches = 0;
  std::int64_t tuples = 0;
  double seconds = 0.0;

  friend bool operator==(const RunLog&, const RunLog&) = default;
};

/// Snapshots the engine's statistics into a log.
RunLog capture(const Engine& engine, const std::string& program,
               const RunReport& report);

/// JSON round-trip.
std::string to_json(const RunLog& log);
RunLog from_json(const std::string& text);

/// File round-trip (throws std::runtime_error on IO failure).
void save(const RunLog& log, const std::string& path);
RunLog load(const std::string& path);

/// Renders a loaded log as an annotated DOT dependency graph (the same
/// shape as viz::dot_graph but driven entirely by the log, no engine
/// needed).  Hot tables — the top decile by rule fires — are highlighted,
/// which is the "basis for choosing parallelisation strategies".
std::string dot_graph(const RunLog& log);

}  // namespace jstar::viz

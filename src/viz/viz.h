// Visualisation of program structure and execution statistics (§1.5's
// "simple graph visualizer" and "tools to visualise those logs as
// annotated dependency graphs of the program execution").
//
// The engine records a dynamic table→table dataflow matrix (which tables
// each trigger's rules put into); dot_graph() renders it with per-table
// usage statistics in Graphviz DOT format — the artefact class behind the
// paper's Fig 7 two-phase dataflow view.
#pragma once

#include <string>

#include "core/engine.h"

namespace jstar::viz {

/// Renders the engine's tables and observed dataflow edges as a DOT graph:
/// the run-log renderer (runlog.h) over capture(engine, title, {}), so
/// node labels carry the per-table counters and edge labels put counts.
std::string dot_graph(const Engine& engine, const std::string& title);

/// Plain-text statistics table, one row per table.
std::string stats_report(const Engine& engine);

}  // namespace jstar::viz

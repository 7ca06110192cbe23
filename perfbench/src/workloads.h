// The three benchmark workloads.  Each builds its inputs from the seed,
// runs the engine only through its public API (Engine, Table, RuleCtx,
// ShardedEngine, ShardedStreamingEngine), checks every result, and returns
// either its end-to-end metrics (untraced) or its per-layer metrics
// (traced).  README.md in this directory explains the choice of workloads
// and which layer metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace jstar {
class Engine;
struct RunReport;
struct TableStats;
}  // namespace jstar

namespace perfbench {

class Trace;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

Outcome run_fanout(const Args& args);
Outcome run_pvwatts(const Args& args);
Outcome run_stream(const Args& args);

/// Worker count of every parallel run.
constexpr int kWorkers = 4;

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Median of a sample (0 when empty).
double median(const std::vector<double>& sample);

/// Logs a run's raw samples to stderr, for reading the spread by eye.
void log_samples(const char* label, const std::vector<double>& sample);

/// Writes the trace of `workload` under args.trace_dir (if set); logs a
/// warning to stderr when the file cannot be written.
void write_trace(const Args& args, const Trace& trace);

/// Runs `eng` to its fixpoint as Engine::run() does (step() until Delta
/// is empty, Delta GC every gc_interval_batches), recording a span around
/// every call and collecting each step's worker spans under it.  Returns
/// the wall time in seconds.
double run_traced(jstar::Engine& eng, Trace& trace, jstar::RunReport& report);

/// The core.* and sched.* per-layer metrics of a run_traced() job.
/// `dedup` is the table whose puts collide in Delta; `tasks` are the
/// aggregate span kinds workers run directly under a step (their
/// envelopes are the step's children for self time, and their busy time
/// is what sched.* counts).
std::vector<Metric> step_metrics(const Trace& trace,
                                 const jstar::RunReport& report,
                                 const jstar::TableStats& dedup,
                                 const std::vector<const char*>& tasks);

}  // namespace perfbench

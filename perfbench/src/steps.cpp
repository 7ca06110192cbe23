// The traced batch job shared by fanout and pvwatts: Engine::step() with
// a span around every call, and the core.* / sched.* metrics derived
// from those spans.
#include <algorithm>

#include "core/engine.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

double run_traced(jstar::Engine& eng, Trace& trace,
                  jstar::RunReport& report) {
  int since_gc = 0;
  const std::int64_t t0 = now_ns();
  for (;;) {
    const std::int64_t s0 = now_ns();
    if (!eng.step(&report)) break;
    trace.collect(trace.record("core.step", s0, now_ns()));
    // Engine::run() collects Delta garbage on this schedule too.
    if (++since_gc >= eng.options().gc_interval_batches) {
      const std::int64_t g0 = now_ns();
      eng.delta().collect_garbage();
      trace.record("core.delta_gc", g0, now_ns());
      since_gc = 0;
    }
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::vector<Metric> step_metrics(const Trace& trace,
                                 const jstar::RunReport& report,
                                 const jstar::TableStats& dedup,
                                 const std::vector<const char*>& tasks) {
  const std::vector<Span>& spans = trace.spans();
  const std::vector<double> steps = durations_s(spans, "core.step");
  double step_s = 0;
  for (const double s : steps) step_s += s;
  const int slots = std::max(kWorkers, trace.workers());
  std::vector<std::int64_t> busy(static_cast<std::size_t>(slots), 0);
  std::int64_t busy_total = 0;
  for (const char* kind : tasks) {
    const std::vector<std::int64_t> one = busy_by_worker(spans, kind, slots);
    for (std::size_t w = 0; w < busy.size(); ++w) {
      busy[w] += one[w];
      busy_total += one[w];
    }
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  return {
      {"core.step_s", step_s, "s"},
      {"core.step_p50_us", percentile(steps, 50) * 1e6, "us"},
      {"core.step_p99_us", percentile(steps, 99) * 1e6, "us"},
      {"core.step_self_s",
       self_ns_of(spans, "core.step",
                  std::vector<std::string_view>(tasks.begin(), tasks.end())) *
           1e-9,
       "s"},
      {"core.delta_gc_s", busy_ns(spans, "core.delta_gc") * 1e-9, "s"},
      {"core.rule_s", busy_ns(spans, "core.rule") * 1e-9, "s"},
      {"core.emit_s", busy_ns(spans, "core.emit") * 1e-9, "s"},
      {"core.dedup_ratio",
       ratio(static_cast<double>(dedup.delta_dups.load()),
             static_cast<double>(dedup.puts.load())),
       "ratio"},
      {"core.inline_ratio",
       ratio(static_cast<double>(report.inline_batches),
             static_cast<double>(report.batches)),
       "ratio"},
      {"core.emit_per_flush",
       ratio(static_cast<double>(report.emit_buffered),
             static_cast<double>(report.emit_flushes)),
       "count"},
      {"sched.busy_frac", ratio(busy_total * 1e-9, slots * step_s), "ratio"},
      {"sched.worker_skew", skew(busy), "ratio"},
  };
}

}  // namespace perfbench

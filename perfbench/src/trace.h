// In-memory span tracing for the traced (--trace 1) benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into
// the engine's layers; nothing inside the engine is instrumented.  Two
// kinds of span:
//
//   * exact spans — one interval recorded on the driving thread, e.g. one
//     Engine::step() call or one Delta-tree garbage collection;
//   * aggregate spans — per-tuple calls (a rule body, a Table::put, a
//     RecordReader::next) are summed per worker per batch instead of
//     being recorded one by one: `busy` is the summed duration, `count`
//     the number of calls and [lo, hi) the envelope from the first call's
//     start to the last call's end.
//
// Spans stay in memory while the workload runs and are written out as
// JSON lines when it ends.  Per-layer metrics are derived from them with
// the helpers below (percentile, covered_ns/self_ns).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-th percentile (q in [0, 100]) of a sample, interpolating linearly
/// between the two closest ranks (the "inclusive" definition: q = 0 is the
/// minimum, q = 100 the maximum).  Returns 0 for an empty sample.
double percentile(std::vector<double> sample, double q);

/// The median, over consecutive windows of `window` samples, of each
/// window's q-th percentile (a last window shorter than half a window is
/// folded into the one before it).  Robust to a burst of outliers that
/// spoils only a few windows.  Returns 0 for an empty sample.
double windowed_percentile(const std::vector<double>& sample,
                           std::size_t window, double q);

/// A half-open interval [lo, hi) in nanoseconds.
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// Length of the union of `children`, each clipped to [lo, hi).
/// Overlapping children are counted once; empty or inverted ones are
/// ignored.
std::int64_t covered_ns(std::vector<Interval> children, std::int64_t lo,
                        std::int64_t hi);

/// A parent span's self time: its length minus the part of it that the
/// union of its children covers.
inline std::int64_t self_ns(Interval parent,
                            std::vector<Interval> children) {
  if (parent.hi <= parent.lo) return 0;
  return (parent.hi - parent.lo) -
         covered_ns(std::move(children), parent.lo, parent.hi);
}

/// Summed calls of one kind made by one thread since the last collect().
struct Acc {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t busy = 0;
  std::int64_t count = 0;

  void add(std::int64_t start, std::int64_t end) {
    if (count == 0) lo = start;
    hi = end;
    busy += end - start;
    ++count;
  }
};

struct Span {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< id of the causing span, -1 for a root
  int worker = -1;           ///< recording thread's slot, -1 = driver
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t busy = 0;     ///< summed duration (== hi - lo when exact)
  std::int64_t count = 1;    ///< calls folded into this span
};

/// One traced workload run.  `kinds` names the aggregate span kinds;
/// acc(k) returns the calling thread's accumulator for kinds[k].
class Trace {
 public:
  explicit Trace(std::vector<const char*> kinds);
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Records an exact span from the driving thread; returns its id.
  std::int64_t record(const char* name, std::int64_t lo, std::int64_t hi,
                      std::int64_t parent = -1);

  /// Records `acc` as an aggregate span of `worker` from the driving
  /// thread (a no-op when it holds no calls).
  void record(const char* name, int worker, const Acc& acc,
              std::int64_t parent = -1);

  /// The calling thread's accumulator for kind `k` (the thread gets a
  /// worker slot on first use).
  Acc& acc(int k) {
    thread_local std::uint64_t owner = 0;
    thread_local Slot* slot = nullptr;
    if (owner != generation_) {
      slot = register_thread();
      owner = generation_;
    }
    return slot->accs[static_cast<std::size_t>(k)];
  }

  /// Turns every non-empty accumulator of every worker into an aggregate
  /// span under `parent`, then clears them.  Call only while no worker is
  /// recording (after a fork/join step has joined).
  void collect(std::int64_t parent);

  const std::vector<Span>& spans() const { return spans_; }
  /// Worker slots registered so far.
  int workers() const;

  /// Writes every span as one JSON object per line.  Returns false when
  /// the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Slot {
    int worker = 0;
    std::vector<Acc> accs;
  };
  Slot* register_thread();

  const std::vector<const char*> kinds_;
  const std::uint64_t generation_;
  std::vector<Span> spans_;  // driving thread only
  mutable std::mutex slots_mu_;
  std::vector<std::unique_ptr<Slot>> slots_;  // guarded by slots_mu_
};

/// RAII: adds the scope's duration to the calling thread's accumulator
/// `k` of `trace`; does nothing when `trace` is null (untraced runs).
class Timed {
 public:
  Timed(Trace* trace, int k)
      : acc_(trace != nullptr ? &trace->acc(k) : nullptr),
        start_(acc_ != nullptr ? now_ns() : 0) {}
  ~Timed() {
    if (acc_ != nullptr) acc_->add(start_, now_ns());
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Acc* acc_;
  std::int64_t start_;
};

// --- derivations over recorded spans ----------------------------------------

/// Summed busy nanoseconds of every span called `name`.
std::int64_t busy_ns(const std::vector<Span>& spans, const char* name);
/// Durations (seconds) of every exact span called `name`.
std::vector<double> durations_s(const std::vector<Span>& spans,
                                const char* name);
/// Busy nanoseconds of spans called `name`, per worker slot (index =
/// slot, sized to `workers`).
std::vector<std::int64_t> busy_by_worker(const std::vector<Span>& spans,
                                         const char* name, int workers);
/// Summed self time of every exact span called `parent_name`, taking its
/// children with any of `child_names` (their [lo, hi) envelopes) as
/// covered.
std::int64_t self_ns_of(const std::vector<Span>& spans,
                        const char* parent_name,
                        const std::vector<std::string_view>& child_names);
/// max / mean of the non-negative values (0 when all are 0).
double skew(const std::vector<std::int64_t>& values);

}  // namespace perfbench

#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank =
      std::clamp(q, 0.0, 100.0) / 100.0 *
      static_cast<double>(sample.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(rank));
  const std::size_t above = std::min(below + 1, sample.size() - 1);
  const double frac = rank - static_cast<double>(below);
  return sample[below] + frac * (sample[above] - sample[below]);
}

double windowed_percentile(const std::vector<double>& sample,
                           std::size_t window, double q) {
  if (sample.empty()) return 0.0;
  window = std::max<std::size_t>(window, 1);
  std::vector<double> per_window;
  std::size_t lo = 0;
  while (lo < sample.size()) {
    std::size_t hi = std::min(lo + window, sample.size());
    if (sample.size() - hi < window / 2) hi = sample.size();
    per_window.push_back(percentile(
        std::vector<double>(sample.begin() + static_cast<std::ptrdiff_t>(lo),
                            sample.begin() + static_cast<std::ptrdiff_t>(hi)),
        q));
    lo = hi;
  }
  return percentile(per_window, 50);
}

std::int64_t covered_ns(std::vector<Interval> children, std::int64_t lo,
                        std::int64_t hi) {
  for (Interval& c : children) {
    c.lo = std::max(c.lo, lo);
    c.hi = std::min(c.hi, hi);
  }
  std::erase_if(children, [](const Interval& c) { return c.hi <= c.lo; });
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::int64_t covered = 0;
  std::int64_t run_lo = 0;
  std::int64_t run_hi = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (open && c.lo <= run_hi) {
      run_hi = std::max(run_hi, c.hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = c.lo;
    run_hi = c.hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return covered;
}

namespace {
std::atomic<std::uint64_t> next_generation{1};
}  // namespace

Trace::Trace(std::vector<const char*> kinds)
    : kinds_(std::move(kinds)),
      generation_(next_generation.fetch_add(1, std::memory_order_relaxed)) {}

std::int64_t Trace::record(const char* name, std::int64_t lo,
                           std::int64_t hi, std::int64_t parent) {
  Span s;
  s.name = name;
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = parent;
  s.lo = lo;
  s.hi = hi;
  s.busy = hi - lo;
  spans_.push_back(s);
  return s.id;
}

void Trace::record(const char* name, int worker, const Acc& acc,
                   std::int64_t parent) {
  if (acc.count == 0) return;
  Span s;
  s.name = name;
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = parent;
  s.worker = worker;
  s.lo = acc.lo;
  s.hi = acc.hi;
  s.busy = acc.busy;
  s.count = acc.count;
  spans_.push_back(s);
}

Trace::Slot* Trace::register_thread() {
  auto slot = std::make_unique<Slot>();
  slot->accs.resize(kinds_.size());
  std::lock_guard<std::mutex> lk(slots_mu_);
  slot->worker = static_cast<int>(slots_.size());
  slots_.push_back(std::move(slot));
  return slots_.back().get();
}

int Trace::workers() const {
  std::lock_guard<std::mutex> lk(slots_mu_);
  return static_cast<int>(slots_.size());
}

void Trace::collect(std::int64_t parent) {
  std::lock_guard<std::mutex> lk(slots_mu_);
  for (const auto& slot : slots_) {
    for (std::size_t k = 0; k < kinds_.size(); ++k) {
      record(kinds_[k], slot->worker, slot->accs[k], parent);
      slot->accs[k] = Acc{};
    }
  }
}

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"worker\":%d,\"lo_ns\":%lld,\"hi_ns\":%lld,"
                 "\"busy_ns\":%lld,\"count\":%lld}\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.worker,
                 static_cast<long long>(s.lo), static_cast<long long>(s.hi),
                 static_cast<long long>(s.busy),
                 static_cast<long long>(s.count));
  }
  return std::fclose(f) == 0;
}

std::int64_t busy_ns(const std::vector<Span>& spans, const char* name) {
  std::int64_t total = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) total += s.busy;
  }
  return total;
}

std::vector<double> durations_s(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.hi - s.lo) * 1e-9);
    }
  }
  return out;
}

std::vector<std::int64_t> busy_by_worker(const std::vector<Span>& spans,
                                         const char* name, int workers) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(workers), 0);
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name && s.worker >= 0 &&
        s.worker < workers) {
      out[static_cast<std::size_t>(s.worker)] += s.busy;
    }
  }
  return out;
}

std::int64_t self_ns_of(const std::vector<Span>& spans,
                        const char* parent_name,
                        const std::vector<std::string_view>& child_names) {
  std::map<std::int64_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0 && std::find(child_names.begin(), child_names.end(),
                                   s.name) != child_names.end()) {
      children[s.parent].push_back({s.lo, s.hi});
    }
  }
  std::int64_t total = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != parent_name) continue;
    const auto it = children.find(s.id);
    total += it == children.end()
                 ? s.hi - s.lo
                 : self_ns({s.lo, s.hi}, it->second);
  }
  return total;
}

double skew(const std::vector<std::int64_t>& values) {
  std::int64_t max = 0;
  std::int64_t sum = 0;
  for (const std::int64_t v : values) {
    max = std::max(max, v);
    sum += v;
  }
  if (sum == 0 || values.empty()) return 0.0;
  return static_cast<double>(max) /
         (static_cast<double>(sum) / static_cast<double>(values.size()));
}

}  // namespace perfbench

// fanout: wide stratified derivation (the bench_rule_fire wide shape).
//
// 8 strata of 256 causality classes.  Every fired tuple puts 8 colliding
// tuples into one class of the next stratum, so about 1.05M tuples pass
// through the Delta tree and most puts are batch duplicates.  Default
// store, no queries: the time goes to emit buffering, the bulk Delta
// append and the per-tuple table counters.
#include <cstdio>

#include "core/engine.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using jstar::Engine;
using jstar::EngineOptions;
using jstar::RuleCtx;
using jstar::RunReport;
using jstar::Table;
using jstar::TableDecl;

struct Tok {
  std::int64_t level, g, i;
  auto operator<=>(const Tok&) const = default;
};

constexpr std::int64_t kLevels = 8;
constexpr std::int64_t kGroups = 256;  // causality classes per stratum
constexpr std::int64_t kPerGroup = 512;
constexpr std::int64_t kFanout = 8;    // puts per fired tuple
constexpr std::int64_t kSeedStride = 8;

// Aggregate span kinds recorded by the traced run.
enum Kind { kRule, kEmit };

/// The seeded input: kPerGroup distinct stratum-0 ids per class, drawn
/// one from each stride of kSeedStride ids.
std::vector<Tok> make_seeds(std::uint64_t seed) {
  jstar::SplitMix64 rng(seed);
  std::vector<Tok> seeds;
  seeds.reserve(static_cast<std::size_t>(kGroups * kPerGroup));
  for (std::int64_t g = 0; g < kGroups; ++g) {
    for (std::int64_t j = 0; j < kPerGroup; ++j) {
      seeds.push_back(Tok{0, g,
                          j * kSeedStride + static_cast<std::int64_t>(
                                                rng.next_below(kSeedStride))});
    }
  }
  return seeds;
}

/// One job: the engine with the program declared and the seeds put.
struct Program {
  Engine eng;
  Table<Tok>& tok;

  Program(const EngineOptions& opts, const std::vector<Tok>& seeds,
          Trace* trace)
      : eng(opts),
        tok(eng.table(TableDecl<Tok>("Tok")
                          .orderby_lit("T")
                          .orderby_seq("level", &Tok::level)
                          .orderby_seq("g", &Tok::g)
                          .orderby_par("i")
                          .hash([](const Tok& t) {
                            return jstar::hash_fields(t.level, t.g, t.i);
                          }))) {
    Table<Tok>& out = tok;
    eng.rule(tok, "derive", [&out, trace](RuleCtx& ctx, const Tok& t) {
      Timed rule(trace, kRule);
      if (t.level + 1 >= kLevels) return;
      const std::int64_t g2 = (t.g * 31 + 1) % kGroups;
      for (std::int64_t f = 0; f < kFanout; ++f) {
        Timed emit(trace, kEmit);
        out.put(ctx, Tok{t.level + 1, g2,
                         (t.i * 2654435761LL + f * 7 + 1) % kPerGroup});
      }
    });
    for (const Tok& t : seeds) eng.put(tok, t);
  }
};

/// Order-independent digest of the fixpoint Gamma.
struct Digest {
  std::size_t size = 0;
  std::uint64_t sum = 0;
  bool operator==(const Digest&) const = default;
};

Digest digest(const Table<Tok>& tok) {
  Digest d;
  d.size = tok.gamma_size();
  tok.scan([&d](const Tok& t) {
    d.sum += jstar::hash_fields(t.level, t.g, t.i);
  });
  return d;
}

EngineOptions parallel_opts() {
  EngineOptions o;
  o.sequential = false;
  o.threads = kWorkers;
  return o;
}

EngineOptions sequential_opts() {
  EngineOptions o;
  o.sequential = true;
  return o;
}

/// The traced job; returns its per-layer metrics.
std::vector<Metric> traced_job(const std::vector<Tok>& seeds,
                               const Digest& want, const Args& args,
                               Outcome& out, double* wall_s) {
  Trace trace({"core.rule", "core.emit"});
  Program p(parallel_opts(), seeds, &trace);
  RunReport report;
  *wall_s = run_traced(p.eng, trace, report);
  ++out.attempted;
  if (digest(p.tok) != want) ++out.failed;
  write_trace(args, trace);
  return step_metrics(trace, report, p.tok.stats(), {"core.rule"});
}

}  // namespace

Outcome run_fanout(const Args& args) {
  Outcome out;
  std::vector<double> setups;
  // Builds one job (inputs + engine), recording its set-up time.
  const auto build = [&](const EngineOptions& opts) {
    const std::int64_t s0 = now_ns();
    auto p = std::make_unique<Program>(opts, make_seeds(args.seed), nullptr);
    setups.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
    return p;
  };

  // The sequential build is the reference every parallel job must equal;
  // this untimed first job also lets the allocator warm up.
  Digest want;
  std::int64_t tuples = 0;
  {
    auto p = build(sequential_opts());
    tuples = p->eng.run().tuples;
    want = digest(p->tok);
  }
  std::fprintf(stderr, "fanout: %lld tuples, gamma %zu\n",
               static_cast<long long>(tuples), want.size);

  std::vector<double> par_s, seq_s;
  const auto job = [&](const EngineOptions& opts, std::vector<double>& walls) {
    auto p = build(opts);
    const RunReport r = p->eng.run();
    walls.push_back(r.seconds);
    ++out.attempted;
    if (r.tuples != tuples || digest(p->tok) != want) ++out.failed;
  };

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  // An untimed 4-worker job too, so the timed jobs find every worker's
  // heap warm.
  std::vector<double> warm;
  job(parallel_opts(), warm);
  if (args.trace) {
    // Untraced and traced jobs alternate; the per-layer figures come from
    // the last traced job, the overhead from the two medians.
    std::vector<double> traced_s;
    do {
      job(parallel_opts(), par_s);
      traced_s.emplace_back();
      out.metrics = traced_job(make_seeds(args.seed), want, args, out,
                               &traced_s.back());
    } while (now_ns() < deadline);
    out.metrics.push_back(
        {"trace.overhead_s", median(traced_s) - median(par_s), "s"});
    return out;
  }
  // Two 4-worker jobs per sequential one: the 4-worker job is the
  // noisier of the two (it waits on a fork/join barrier per batch).
  while (seq_s.size() < 3 || now_ns() < deadline) {
    job(parallel_opts(), par_s);
    job(parallel_opts(), par_s);
    job(sequential_opts(), seq_s);
  }
  log_samples("fanout 4-worker job s", par_s);
  log_samples("fanout sequential job s", seq_s);
  const double n = static_cast<double>(tuples);
  out.metrics = {
      {"throughput", n / median(par_s), "1/s"},
      {"seq_throughput", n / median(seq_s), "1/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return out;
}

}  // namespace perfbench

// pvwatts: the paper's Fig 4 program (§6.2) over 2M synthetic hourly
// records.
//
// A request tuple starts one CSV reader per worker, each over its own byte
// region.  Every record becomes a -noDelta PvWatts tuple in the default
// store (with a composite (year, month) index) and emits a SumMonth
// request; the 2M requests dedup to one per year-month, and each runs one
// indexed fold over its month.  CSV parsing, Gamma insert, the index and
// the planner do the work; the Delta tree sees only a handful of batches.
// (The app's month-array store is not used: it is keyed by month alone and
// takes tens of seconds at this size.)
#include <cmath>
#include <cstdio>
#include <mutex>

#include "apps/pvwatts/pvwatts.h"
#include "core/engine.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using jstar::Engine;
using jstar::EngineOptions;
using jstar::RuleCtx;
using jstar::RunReport;
using jstar::Table;
using jstar::TableDecl;
using jstar::apps::pvwatts::MonthlyMeans;
using jstar::apps::pvwatts::PvRecord;
using jstar::apps::pvwatts::SumMonth;
namespace csv = jstar::csv;
namespace query = jstar::query;

constexpr std::int64_t kRecords = 2000000;

struct ReadRequest {
  std::int32_t regions;
  auto operator<=>(const ReadRequest&) const = default;
};

// Aggregate span kinds recorded by the traced run.
enum Kind { kRegion, kParse, kPut, kEmit, kRule, kFold };

/// One job: the Fig 4 program declared on a fresh engine.  Running it
/// means putting one ReadRequest and calling run() (or step()).
struct Program {
  Engine eng;
  Table<ReadRequest>& req;
  Table<PvRecord>& pv;
  Table<SumMonth>& sum;
  std::mutex months_mu;
  MonthlyMeans months;
  std::vector<std::int64_t> region_ns;  // traced: wall per CSV region

  Program(const EngineOptions& opts, const csv::Buffer& input, Trace* trace)
      : eng(opts),
        req(eng.table(TableDecl<ReadRequest>("PvWattsRequest")
                          .orderby_lit("Req")
                          .hash([](const ReadRequest& r) {
                            return jstar::hash_fields(r.regions);
                          }))),
        pv(eng.table(TableDecl<PvRecord>("PvWatts")
                         .orderby_lit("PvWatts")
                         .hash(std::hash<PvRecord>{}))),
        sum(eng.table(TableDecl<SumMonth>("SumMonth")
                          .orderby_lit("SumMonth")
                          .hash(std::hash<SumMonth>{}))) {
    pv.add_index(&PvRecord::year, &PvRecord::month);
    eng.order({"Req", "PvWatts", "SumMonth"});

    // foreach (PvWatts pv) { put new SumMonth(pv.year, pv.month); }
    eng.rule(pv, "pvToSumMonth", [this, trace](RuleCtx& ctx,
                                               const PvRecord& r) {
      Timed emit(trace, kEmit);
      sum.put(ctx, SumMonth{r.year, r.month});
    });

    // foreach (PvWattsRequest req) { one CSV reader per region }
    eng.rule(req, "readCsv", [this, &input, trace](RuleCtx& ctx,
                                                   const ReadRequest& r) {
      const auto regions = csv::split_regions(input.size(), r.regions);
      if (trace != nullptr) region_ns.assign(regions.size(), 0);
      const auto read_region = [&](std::int64_t i) {
        const std::int64_t r0 = trace != nullptr ? now_ns() : 0;
        {
          Timed task(trace, kRegion);
          csv::RecordReader reader(input, regions[static_cast<std::size_t>(i)]);
          std::vector<csv::Slice> f;
          for (;;) {
            PvRecord rec{};
            {
              Timed parse(trace, kParse);
              if (!reader.next(f)) break;
              rec = PvRecord{static_cast<std::int32_t>(f[0].to_int64()),
                             static_cast<std::int32_t>(f[1].to_int64()),
                             static_cast<std::int32_t>(f[2].to_int64()),
                             static_cast<std::int32_t>(f[3].to_int64()),
                             f[4].to_int64()};
            }
            Timed put(trace, kPut);
            pv.put(ctx, rec);
          }
        }
        if (trace != nullptr) {
          region_ns[static_cast<std::size_t>(i)] = now_ns() - r0;
        }
      };
      if (eng.pool() != nullptr && r.regions > 1) {
        eng.pool()->for_each_index(r.regions, read_region, /*grain=*/1);
      } else {
        for (std::int32_t i = 0; i < r.regions; ++i) read_region(i);
      }
    });

    // foreach (SumMonth s) { Statistics over that month's records }
    eng.rule(sum, "sumMonth", [this, trace](RuleCtx&, const SumMonth& s) {
      Timed rule(trace, kRule);
      jstar::Statistics stats;
      {
        Timed fold(trace, kFold);
        stats = pv.fold<jstar::Statistics>(
            query::eq(&PvRecord::year, s.year) &&
                query::eq(&PvRecord::month, s.month),
            &PvRecord::power);
      }
      std::lock_guard<std::mutex> lk(months_mu);
      months[s.year * 100 + s.month] = stats;
    });
  }

  void start() {
    eng.put(req, ReadRequest{eng.options().sequential ? 1 : kWorkers});
  }
};

EngineOptions opts_for(bool sequential) {
  EngineOptions o;
  o.sequential = sequential;
  o.threads = kWorkers;
  o.no_delta.insert("PvWatts");
  return o;
}

bool same_means(const MonthlyMeans& got, const MonthlyMeans& want) {
  if (got.size() != want.size()) return false;
  for (const auto& [ym, s] : want) {
    const auto it = got.find(ym);
    if (it == got.end() || it->second.count() != s.count() ||
        std::abs(it->second.mean() - s.mean()) >
            1e-9 * std::max(1.0, std::abs(s.mean()))) {
      return false;
    }
  }
  return true;
}

/// The traced job; returns its per-layer metrics.
std::vector<Metric> traced_job(const csv::Buffer& input,
                               const MonthlyMeans& want, const Args& args,
                               Outcome& out, double* wall_s) {
  Trace trace({"csv.region", "csv.parse", "store.put", "core.emit",
               "core.rule", "query.fold"});
  Program p(opts_for(false), input, &trace);
  p.start();
  RunReport report;
  *wall_s = run_traced(p.eng, trace, report);
  ++out.attempted;
  if (!same_means(p.months, want)) ++out.failed;
  write_trace(args, trace);

  const std::vector<Span>& spans = trace.spans();
  const jstar::TableStats& pv = p.pv.stats();
  std::vector<Metric> m =
      step_metrics(trace, report, p.sum.stats(), {"csv.region", "core.rule"});
  m.insert(m.end(), {
      {"csv.parse_s", busy_ns(spans, "csv.parse") * 1e-9, "s"},
      {"csv.region_skew", skew(p.region_ns), "ratio"},
      // Each SumMonth emit runs inside the put that fired it.
      {"store.put_self_s",
       (busy_ns(spans, "store.put") - busy_ns(spans, "core.emit")) * 1e-9,
       "s"},
      {"query.fold_s", busy_ns(spans, "query.fold") * 1e-9, "s"},
      {"query.index_lookups", static_cast<double>(pv.index_lookups.load()),
       "count"},
      {"query.residual_rows", static_cast<double>(pv.residual_rows.load()),
       "count"},
  });
  return m;
}

}  // namespace

Outcome run_pvwatts(const Args& args) {
  Outcome out;
  std::vector<double> setups;
  csv::Buffer input;
  // Set-up is generating the input and declaring the program; it is
  // repeated a few times so setup_s is a median.
  const auto make_input = [&] {
    const std::int64_t s0 = now_ns();
    input = jstar::apps::pvwatts::generate_csv(
        kRecords, jstar::apps::pvwatts::InputOrder::MonthMajor, args.seed);
    Program p(opts_for(false), input, nullptr);
    setups.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
  };
  for (int i = 0; i < 5; ++i) make_input();
  const MonthlyMeans want = jstar::apps::pvwatts::reference_means(input);
  std::fprintf(stderr, "pvwatts: %lld records, %zu year-months\n",
               static_cast<long long>(kRecords), want.size());

  std::vector<double> par_s, seq_s;
  const auto job = [&](bool sequential, std::vector<double>& walls) {
    Program p(opts_for(sequential), input, nullptr);
    p.start();
    walls.push_back(p.eng.run().seconds);
    ++out.attempted;
    if (!same_means(p.months, want)) ++out.failed;
  };

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  // One untimed job of each build first, so the timed jobs find the
  // allocator's heap and the caches warm.
  std::vector<double> warm;
  job(false, warm);
  job(true, warm);
  if (args.trace) {
    // Untraced and traced jobs alternate; the per-layer figures come from
    // the last traced job, the overhead from the two medians.
    std::vector<double> traced_s;
    do {
      job(false, par_s);
      traced_s.emplace_back();
      out.metrics = traced_job(input, want, args, out, &traced_s.back());
    } while (now_ns() < deadline);
    out.metrics.push_back(
        {"trace.overhead_s", median(traced_s) - median(par_s), "s"});
    return out;
  }
  while (par_s.size() < 3 || now_ns() < deadline) {
    job(false, par_s);
    job(true, seq_s);
  }
  log_samples("pvwatts 4-worker job s", par_s);
  log_samples("pvwatts sequential job s", seq_s);
  const double n = static_cast<double>(kRecords);
  out.metrics = {
      {"throughput", n / median(par_s), "1/s"},
      {"seq_throughput", n / median(seq_s), "1/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return out;
}

}  // namespace perfbench

// perfbench: one end-to-end benchmark for the engine.
//
// Usage: perfbench --workload fanout|pvwatts|stream --seed N --seconds S
//                  --trace 0|1 [--trace-dir DIR] [--git-sha SHA]
//
// Prints a host line and then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics of a traced run with
// --trace 1.  Exits 1 when any result was wrong, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "core/simd.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(const std::vector<double>& sample) {
  return percentile(sample, 50);
}

void log_samples(const char* label, const std::vector<double>& sample) {
  std::fprintf(stderr, "%s:", label);
  for (const double v : sample) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\n");
}

void write_trace(const Args& args, const Trace& trace) {
  if (args.trace_dir.empty()) return;
  const std::string path = args.trace_dir + "/trace-" + args.workload +
                           "-" + std::to_string(args.seed) + ".jsonl";
  if (!trace.write(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

void print_host(const std::string& git_sha) {
  std::printf(
      "{\"host\": {\"nproc\": %u, \"simd\": %s, \"build_type\": %s, "
      "\"cxx_flags\": %s, \"git_sha\": %s}}\n",
      std::thread::hardware_concurrency(),
      json_string(jstar::simd::to_string(jstar::simd::active_level())).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(), json_string(git_sha).c_str());
}

void print_result(const Outcome& o) {
  std::string line = "{\"correct\": ";
  line += o.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.attempted);
  line += ", \"failed\": " + std::to_string(o.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", o.metrics[i].value);
    if (i > 0) line += ", ";
    line += json_string(o.metrics[i].name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(o.metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fanout|pvwatts|stream --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR] [--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0') return usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 3600) {
        return usage("bad --seconds");
      }
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage("bad --trace");
      }
      args.trace = val[0] == '1';
    } else if (key == "--trace-dir") {
      args.trace_dir = val;
    } else if (key == "--git-sha") {
      git_sha = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");

  Outcome (*run)(const Args&) = nullptr;
  if (args.workload == "fanout") run = run_fanout;
  if (args.workload == "pvwatts") run = run_pvwatts;
  if (args.workload == "stream") run = run_stream;
  if (run == nullptr) return usage("unknown --workload");

  print_host(git_sha);
  std::fflush(stdout);
  Outcome o;
  try {
    o = run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  print_result(o);
  return o.failed == 0 && o.attempted > 0 ? 0 : 1;
}

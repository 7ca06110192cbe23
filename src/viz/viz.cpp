#include "viz/viz.h"

#include <cstdio>
#include <sstream>

#include "viz/runlog.h"

namespace jstar::viz {

std::string dot_graph(const Engine& engine, const std::string& title) {
  return dot_graph(capture(engine, title, {}));
}

std::string stats_report(const Engine& engine) {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-16s %10s %10s %10s %10s %10s %10s %10s\n",
                "table", "puts", "delta", "delta-dup", "gamma", "gamma-dup",
                "fires", "queries");
  os << buf;
  for (const TableBase* t : engine.all_tables()) {
    const auto& s = t->stats();
    std::snprintf(buf, sizeof(buf),
                  "%-16s %10lld %10lld %10lld %10lld %10lld %10lld %10lld\n",
                  t->name().c_str(),
                  static_cast<long long>(s.puts.load()),
                  static_cast<long long>(s.delta_inserts.load()),
                  static_cast<long long>(s.delta_dups.load()),
                  static_cast<long long>(s.gamma_inserts.load()),
                  static_cast<long long>(s.gamma_dups.load()),
                  static_cast<long long>(s.fires.load()),
                  static_cast<long long>(s.queries.load()));
    os << buf;
  }
  return os.str();
}

}  // namespace jstar::viz

#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

std::vector<LayerRow> layerTable(const eco::obs::TraceDump& dump) {
  struct Open {
    const eco::obs::TraceEvent* event;
    std::uint64_t end_ns;
    std::uint64_t child_ns;
  };
  std::map<std::string, LayerRow> by_name;
  const auto close = [&](const Open& o) {
    LayerRow& row = by_name[o.event->name];
    row.count += 1;
    row.total_s += static_cast<double>(o.event->dur_ns) * 1e-9;
    row.self_s += static_cast<double>(o.event->dur_ns - std::min(o.child_ns, o.event->dur_ns)) * 1e-9;
  };
  // Events come sorted by (tid, start, -duration), so on each thread a span
  // is the child of the innermost open span that still contains its start.
  std::vector<Open> stack;
  std::uint32_t tid = 0;
  for (const eco::obs::TraceEvent& e : dump.events) {
    if (e.tid != tid) {
      for (; !stack.empty(); stack.pop_back()) close(stack.back());
      tid = e.tid;
    }
    while (!stack.empty() && stack.back().end_ns <= e.ts_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_ns += e.dur_ns;
    stack.push_back({&e, e.ts_ns + e.dur_ns, 0});
  }
  for (; !stack.empty(); stack.pop_back()) close(stack.back());

  std::vector<LayerRow> rows;
  for (auto& [name, row] : by_name) {
    row.name = name;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_s != b.self_s ? a.self_s > b.self_s : a.name < b.name;
  });
  return rows;
}

double moduleSelfSeconds(const std::vector<LayerRow>& rows, std::string_view module) {
  double total = 0;
  for (const LayerRow& r : rows) {
    if (std::string_view(r.name).substr(0, r.name.find('.')) == module) total += r.self_s;
  }
  return total;
}

std::string formatLayerTable(const std::vector<LayerRow>& rows, std::uint32_t passes) {
  const double per = passes > 0 ? 1.0 / passes : 1.0;
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %12s %12s %12s\n", "span", "count/pass",
                "total_s/pass", "self_s/pass");
  out += line;
  for (const LayerRow& r : rows) {
    std::snprintf(line, sizeof line, "%-28s %12.1f %12.6f %12.6f\n", r.name.c_str(),
                  static_cast<double>(r.count) * per, r.total_s * per, r.self_s * per);
    out += line;
  }
  return out;
}

}  // namespace perfbench

#pragma once
// Per-layer self time from a recorded trace. A layer is a span name
// ("eco.fraig", "sat.solve", ...) and a module is the part of the name before
// the first dot ("eco", "sat", ...). A span's self time is its duration minus
// the part of it covered by its direct children on the same thread.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct LayerRow {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

/// One row per span name, sorted by self time, largest first.
std::vector<LayerRow> layerTable(const eco::obs::TraceDump& dump);

/// Sum of self time over the rows of module `module` ("eco" matches
/// "eco.run", "eco.fraig", ...).
double moduleSelfSeconds(const std::vector<LayerRow>& rows, std::string_view module);

/// Fixed-width text rendering, one line per row, times divided by `passes`
/// so the table reads per pass over the workload.
std::string formatLayerTable(const std::vector<LayerRow>& rows, std::uint32_t passes);

}  // namespace perfbench

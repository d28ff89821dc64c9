#include "eco/report.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace eco {
namespace {

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

/// One ratio column of the comparison table. A ratio is only meaningful
/// when the denominator is positive; a zero denominator with a zero
/// numerator counts as parity (both engines degenerate equally), while a
/// zero denominator with a positive numerator is unmeasurable and renders
/// as "n/a" — never inf/nan, which would also poison the geomean.
struct RatioCell {
  double value = 1.0;
  bool measurable = false;
};

RatioCell safeRatio(double num, double den) {
  if (den > 0) return {num / den, true};
  if (num <= 0) return {1.0, true};
  return {1.0, false};
}

/// Accumulates log-ratios of the measurable cells of one column.
struct GeoMean {
  double log_sum = 0;
  int n = 0;
  void add(const RatioCell& r) {
    if (!r.measurable) return;
    log_sum += std::log(std::max(r.value, 1e-6));
    ++n;
  }
  std::string str() const {
    return n > 0 ? fmt("%6.3f", std::exp(log_sum / n)) : fmt("%6s", "n/a");
  }
};

std::string ratioStr(const RatioCell& r) {
  return r.measurable ? fmt("%6.3f", r.value) : fmt("%6s", "n/a");
}

}  // namespace

std::string formatRunReport(const EcoInstance& instance, const PatchResult& r) {
  std::ostringstream os;
  os << "instance " << instance.name << ": " << instance.num_x << " inputs, "
     << instance.faulty.numPos() << " outputs, " << instance.numTargets()
     << " target(s)\n";
  if (!r.success) {
    os << "  FAILED: " << r.message << "\n";
    return os.str();
  }
  os << fmt("  clusters: %u, cut signals: %u, interpolation fallbacks: %u\n",
            r.num_clusters, r.cut_size, r.itp_failures);
  os << fmt(
      "  stages (%u thread%s): fraig %.2fs (%llu SAT queries), "
      "patchgen %.2fs, opt %.2fs, verify %.2fs\n",
      r.num_threads_used, r.num_threads_used == 1 ? "" : "s", r.fraig_seconds,
      static_cast<unsigned long long>(r.fraig_sat_queries), r.patchgen_seconds,
      r.opt_seconds, r.verify_seconds);
  os << fmt("  initial patch: cost %.2f, %u gates\n", r.initial_cost,
            r.initial_size);
  os << fmt("  final patch:   cost %.2f, %u gates, %zu base signal(s), %.2fs\n",
            r.cost, r.size, r.base.size(), r.seconds);
  for (const BaseRef& b : r.base) {
    os << fmt("    base %-16s weight %.2f\n", b.name.c_str(), b.weight);
  }
  return os.str();
}

std::string formatComparisonTable(const std::vector<ComparisonRow>& rows) {
  std::ostringstream os;
  os << fmt("%-10s %7s | %10s %6s %8s | %10s %6s %8s | %6s %6s %6s\n", "ckt",
            "#target", "b.cost", "b.size", "b.time", "o.cost", "o.size",
            "o.time", "r.cost", "r.size", "r.time");
  GeoMean geo_cost, geo_size, geo_time;
  int counted = 0;
  for (const ComparisonRow& row : rows) {
    if (!row.baseline.success || !row.ours.success) {
      os << fmt("%-10s %7u | baseline: %s / ours: %s\n", row.name.c_str(),
                row.num_targets,
                row.baseline.success ? "ok" : row.baseline.message.c_str(),
                row.ours.success ? "ok" : row.ours.message.c_str());
      continue;
    }
    const RatioCell rc = safeRatio(row.ours.cost, row.baseline.cost);
    const RatioCell rs = safeRatio(row.ours.size, row.baseline.size);
    const RatioCell rt = safeRatio(row.ours.seconds, row.baseline.seconds);
    os << fmt("%-10s %7u | %10.1f %6u %7.2fs | %10.1f %6u %7.2fs | ",
              row.name.c_str(), row.num_targets, row.baseline.cost,
              row.baseline.size, row.baseline.seconds, row.ours.cost,
              row.ours.size, row.ours.seconds)
       << ratioStr(rc) << " " << ratioStr(rs) << " " << ratioStr(rt) << "\n";
    geo_cost.add(rc);
    geo_size.add(rs);
    geo_time.add(rt);
    ++counted;
  }
  if (counted > 0) {
    // Each column averages only its own measurable cells, so one zero-time
    // baseline row cannot blank (or skew) the cost/size means.
    os << fmt("%-10s %7s | %27s | %27s | ", "geomean", "", "", "")
       << geo_cost.str() << " " << geo_size.str() << " " << geo_time.str()
       << "  (geo. mean)\n";
  }
  return os.str();
}

}  // namespace eco

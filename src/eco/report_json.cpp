#include "eco/report_json.h"

#include "obs/json.h"
#include "obs/metrics.h"

namespace eco {
namespace {

using obs::json::RequiredKey;
using obs::json::Value;

/// Required keys common to every schema version, with the Kind each must
/// carry. `success` and the numeric result block are the contract the
/// bench trajectory and CI smoke tests rely on; everything else may be
/// extended freely.
constexpr RequiredKey kRequired[] = {
    {"instance.name", Value::Kind::String},
    {"instance.num_inputs", Value::Kind::Number},
    {"instance.num_outputs", Value::Kind::Number},
    {"instance.num_targets", Value::Kind::Number},
    {"result.success", Value::Kind::Bool},
    {"result.cost", Value::Kind::Number},
    {"result.size", Value::Kind::Number},
    {"result.seconds", Value::Kind::Number},
    {"result.num_clusters", Value::Kind::Number},
    {"result.sat_conflicts", Value::Kind::Number},
    {"stages.threads", Value::Kind::Number},
    {"stages.fraig_seconds", Value::Kind::Number},
    {"stages.patchgen_seconds", Value::Kind::Number},
    {"stages.opt_seconds", Value::Kind::Number},
    {"stages.verify_seconds", Value::Kind::Number},
};

/// Additionally required from v2 on: the resource-attribution section.
constexpr RequiredKey kRequiredV2[] = {
    {"resources.peak_rss_bytes", Value::Kind::Number},
    {"resources.cpu_seconds", Value::Kind::Number},
    {"resources.alloc_count", Value::Kind::Number},
    {"resources.alloc_bytes", Value::Kind::Number},
    {"resources.stages", Value::Kind::Array},
    {"resources.threads", Value::Kind::Array},
};

}  // namespace

std::string writeJsonReport(const EcoInstance& instance, const PatchResult& r,
                            const RunReportOptions& options) {
  obs::JsonWriter w;
  w.beginObject();
  w.key("schema"); w.value(kRunReportSchema);
  w.key("schema_version"); w.value(static_cast<std::int64_t>(kRunReportSchemaVersion));

  w.key("instance");
  w.beginObject();
  w.key("name"); w.value(instance.name);
  w.key("num_inputs"); w.value(static_cast<std::uint64_t>(instance.num_x));
  w.key("num_outputs"); w.value(static_cast<std::uint64_t>(instance.golden.numPos()));
  w.key("num_targets"); w.value(static_cast<std::uint64_t>(instance.numTargets()));
  w.key("faulty_ands"); w.value(static_cast<std::uint64_t>(instance.faulty.numAnds()));
  w.key("golden_ands"); w.value(static_cast<std::uint64_t>(instance.golden.numAnds()));
  w.endObject();

  w.key("result");
  w.beginObject();
  w.key("success"); w.value(r.success);
  if (!r.message.empty()) { w.key("message"); w.value(r.message); }
  w.key("cost"); w.value(r.cost);
  w.key("size"); w.value(static_cast<std::uint64_t>(r.size));
  w.key("seconds"); w.valueFixed(r.seconds, 6);
  w.key("initial_cost"); w.value(r.initial_cost);
  w.key("initial_size"); w.value(static_cast<std::uint64_t>(r.initial_size));
  w.key("num_clusters"); w.value(static_cast<std::uint64_t>(r.num_clusters));
  w.key("cut_size"); w.value(static_cast<std::uint64_t>(r.cut_size));
  w.key("itp_failures"); w.value(static_cast<std::uint64_t>(r.itp_failures));
  w.key("sat_conflicts"); w.value(r.sat_conflicts);
  w.endObject();

  w.key("stages");
  w.beginObject();
  w.key("threads"); w.value(static_cast<std::uint64_t>(r.num_threads_used));
  w.key("fraig_seconds"); w.valueFixed(r.fraig_seconds, 6);
  w.key("patchgen_seconds"); w.valueFixed(r.patchgen_seconds, 6);
  w.key("opt_seconds"); w.valueFixed(r.opt_seconds, 6);
  w.key("verify_seconds"); w.valueFixed(r.verify_seconds, 6);
  w.key("fraig_sat_queries"); w.value(r.fraig_sat_queries);
  w.key("fraig_rounds"); w.value(static_cast<std::uint64_t>(r.fraig_rounds));
  w.endObject();

  // v2: resource attribution. Allocation counters read 0 when the obs
  // allocation hook is compiled out (sanitizers, ECO_OBS_DISABLED).
  w.key("resources");
  w.beginObject();
  w.key("peak_rss_bytes"); w.value(r.peak_rss_bytes);
  w.key("cpu_seconds"); w.valueFixed(r.cpu_seconds, 6);
  w.key("alloc_count"); w.value(r.alloc_count);
  w.key("alloc_bytes"); w.value(r.alloc_bytes);
  w.key("stages");
  w.beginArray();
  for (const StageResource& sr : r.stage_resources) {
    w.beginObject();
    w.key("stage"); w.value(sr.stage);
    w.key("seconds"); w.valueFixed(sr.seconds, 6);
    w.key("cpu_seconds"); w.valueFixed(sr.cpu_seconds, 6);
    w.key("alloc_count"); w.value(sr.alloc_count);
    w.key("alloc_bytes"); w.value(sr.alloc_bytes);
    w.key("peak_rss_bytes"); w.value(sr.peak_rss_bytes);
    w.endObject();
  }
  w.endArray();
  w.key("threads");
  w.beginArray();
  for (const auto& [name, cpu] : r.thread_cpu_seconds) {
    w.beginObject();
    w.key("name"); w.value(name);
    w.key("cpu_seconds"); w.valueFixed(cpu, 6);
    w.endObject();
  }
  w.endArray();
  w.endObject();

  if (options.include_base) {
    w.key("base");
    w.beginArray();
    for (const BaseRef& b : r.base) {
      w.beginObject();
      w.key("name"); w.value(b.name);
      w.key("weight"); w.value(b.weight);
      w.key("inverted"); w.value(b.inverted);
      w.endObject();
    }
    w.endArray();
  }

  if (options.include_metrics) {
    w.key("metrics");
    obs::writeMetricsJson(w, obs::snapshotMetrics());
  }

  w.endObject();
  return w.take();
}

bool validateJsonReport(const std::string& json, std::string* error) {
  // Backward-compatible validation: v1 documents (pre-resources) stay
  // valid; v2 additionally requires the resources section.
  Value root;
  if (!obs::json::parseDocument(json, "run report", kRunReportSchema, 1,
                                kRunReportSchemaVersion, kRequired, &root, error)) {
    return false;
  }
  return root.find("schema_version")->number < 2 ||
         obs::json::checkRequired(root, kRequiredV2, "run report", error);
}

}  // namespace eco

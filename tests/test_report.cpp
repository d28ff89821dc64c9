// Tests for run-report formatting and the aig structural utilities
// (levels, fanout counts) added for them.

#include <gtest/gtest.h>

#include "aig/aig_ops.h"
#include "eco/engine.h"
#include "eco/report.h"
#include "eco/report_json.h"
#include "obs/json.h"
#include "obs/obs_config.h"

namespace eco {
namespace {

TEST(AigOps, Levels) {
  Aig aig;
  const Lit a = aig.addPi("a");
  const Lit b = aig.addPi("b");
  const Lit n1 = aig.addAnd(a, b);
  const Lit n2 = aig.addAnd(n1, a);
  const auto d = levels(aig);
  EXPECT_EQ(d[a.var()], 0u);
  EXPECT_EQ(d[n1.var()], 1u);
  EXPECT_EQ(d[n2.var()], 2u);
}

TEST(AigOps, FanoutCounts) {
  Aig aig;
  const Lit a = aig.addPi("a");
  const Lit b = aig.addPi("b");
  const Lit n1 = aig.addAnd(a, b);
  const Lit n2 = aig.addAnd(n1, !a);
  aig.addPo(n2, "o");
  aig.addPo(n1, "o2");
  const auto refs = fanoutCounts(aig);
  EXPECT_EQ(refs[a.var()], 2u);   // n1 + n2
  EXPECT_EQ(refs[b.var()], 1u);
  EXPECT_EQ(refs[n1.var()], 2u);  // n2 + PO
  EXPECT_EQ(refs[n2.var()], 1u);  // PO
}

EcoInstance tinyInstance() {
  EcoInstance inst;
  inst.name = "report-tiny";
  const Lit a = inst.golden.addPi("a");
  const Lit b = inst.golden.addPi("b");
  inst.golden.addPo(inst.golden.addAnd(a, b), "o");
  inst.faulty.addPi("a");
  inst.faulty.addPi("b");
  const Lit t = inst.faulty.addPi("t0");
  inst.num_x = 2;
  inst.faulty.addPo(t, "o");
  return inst;
}

TEST(Report, RunReportContainsKeyNumbers) {
  const EcoInstance inst = tinyInstance();
  const PatchResult r = EcoEngine().run(inst);
  ASSERT_TRUE(r.success);
  const std::string report = formatRunReport(inst, r);
  EXPECT_NE(report.find("report-tiny"), std::string::npos);
  EXPECT_NE(report.find("final patch"), std::string::npos);
  EXPECT_NE(report.find("base"), std::string::npos);
}

TEST(Report, RunReportShowsFailure) {
  EcoInstance inst = tinyInstance();
  PatchResult r;
  r.success = false;
  r.message = "unrectifiable: something";
  const std::string report = formatRunReport(inst, r);
  EXPECT_NE(report.find("FAILED"), std::string::npos);
  EXPECT_NE(report.find("unrectifiable"), std::string::npos);
}

TEST(Report, ComparisonTableGeometry) {
  ComparisonRow row;
  row.name = "u1";
  row.num_targets = 2;
  row.baseline.success = true;
  row.baseline.cost = 100;
  row.baseline.size = 50;
  row.baseline.seconds = 1.0;
  row.ours.success = true;
  row.ours.cost = 10;
  row.ours.size = 5;
  row.ours.seconds = 2.0;
  const std::string table = formatComparisonTable({row, row});
  // Ratio columns 0.100 for cost and size; geometric mean of equal rows is
  // the same ratio.
  EXPECT_NE(table.find("0.100"), std::string::npos);
  EXPECT_NE(table.find("geomean"), std::string::npos);
  EXPECT_NE(table.find("2.00"), std::string::npos);  // time ratio
}

TEST(Report, ComparisonTableHandlesFailures) {
  ComparisonRow row;
  row.name = "bad";
  row.baseline.success = false;
  row.baseline.message = "timeout";
  row.ours.success = true;
  const std::string table = formatComparisonTable({row});
  EXPECT_NE(table.find("timeout"), std::string::npos);
  EXPECT_EQ(table.find("geomean"), std::string::npos);  // no counted rows
}

TEST(Report, ComparisonTableGuardsZeroTime) {
  // A sub-millisecond baseline rounds to 0.00s; the time ratio must render
  // as "n/a" (not inf/nan) and the cost/size geomeans must still appear.
  ComparisonRow row;
  row.name = "fast";
  row.num_targets = 1;
  row.baseline.success = true;
  row.baseline.cost = 100;
  row.baseline.size = 50;
  row.baseline.seconds = 0.0;
  row.ours.success = true;
  row.ours.cost = 10;
  row.ours.size = 5;
  row.ours.seconds = 0.5;
  const std::string table = formatComparisonTable({row});
  EXPECT_NE(table.find("n/a"), std::string::npos);
  EXPECT_EQ(table.find("inf"), std::string::npos);
  EXPECT_EQ(table.find("nan"), std::string::npos);
  EXPECT_NE(table.find("0.100"), std::string::npos);  // cost/size still ratio
  EXPECT_NE(table.find("geomean"), std::string::npos);
}

TEST(Report, ComparisonTableZeroOverZeroIsParity) {
  ComparisonRow row;
  row.name = "degenerate";
  row.baseline.success = true;
  row.baseline.seconds = 0.0;
  row.ours.success = true;
  row.ours.seconds = 0.0;  // 0/0: both engines degenerate equally
  const std::string table = formatComparisonTable({row});
  EXPECT_EQ(table.find("inf"), std::string::npos);
  EXPECT_EQ(table.find("nan"), std::string::npos);
  EXPECT_NE(table.find("1.000"), std::string::npos);
}

TEST(ReportJson, RunReportValidates) {
  const EcoInstance inst = tinyInstance();
  const PatchResult r = EcoEngine().run(inst);
  ASSERT_TRUE(r.success);
  const std::string json = writeJsonReport(inst, r);
  std::string error;
  EXPECT_TRUE(validateJsonReport(json, &error)) << error;

  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(json, &doc, &error)) << error;
  EXPECT_EQ(doc.find("schema")->string, kRunReportSchema);
  EXPECT_EQ(doc.find("instance")->find("name")->string, "report-tiny");
  EXPECT_TRUE(doc.find("result")->find("success")->boolean);
  EXPECT_EQ(doc.find("result")->find("cost")->number, r.cost);
  // The stage seconds populated by the obs spans must be present and finite.
  EXPECT_GE(doc.find("result")->find("seconds")->number, 0.0);
  EXPECT_GE(doc.find("stages")->find("fraig_seconds")->number, 0.0);
}

TEST(ReportJson, ValidatorRejectsCorruptReports) {
  const EcoInstance inst = tinyInstance();
  PatchResult r;
  r.success = true;
  const std::string good = writeJsonReport(inst, r);
  ASSERT_TRUE(validateJsonReport(good));

  std::string error;
  EXPECT_FALSE(validateJsonReport("{not json", &error));
  EXPECT_NE(error.find("not valid JSON"), std::string::npos);

  EXPECT_FALSE(validateJsonReport("[1,2,3]", &error));

  // Wrong schema name.
  std::string wrong = good;
  const auto pos = wrong.find("ecopatch-run-report");
  ASSERT_NE(pos, std::string::npos);
  wrong.replace(pos, 8, "other-th");
  EXPECT_FALSE(validateJsonReport(wrong, &error));

  // Missing a required section.
  std::string no_stages = good;
  const auto spos = no_stages.find("\"stages\"");
  ASSERT_NE(spos, std::string::npos);
  no_stages.replace(spos, 8, "\"st_ges\"");
  EXPECT_FALSE(validateJsonReport(no_stages, &error));
  EXPECT_NE(error.find("stages"), std::string::npos);
}

TEST(ReportJson, V2ReportCarriesResourceAttribution) {
  const EcoInstance inst = tinyInstance();
  const PatchResult r = EcoEngine().run(inst);
  ASSERT_TRUE(r.success);
  const std::string json = writeJsonReport(inst, r);

  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(json, &doc, &error)) << error;
  EXPECT_EQ(doc.find("schema_version")->number,
            static_cast<double>(kRunReportSchemaVersion));
  const obs::json::Value* res = doc.find("resources");
  ASSERT_NE(res, nullptr);
  EXPECT_GE(res->find("cpu_seconds")->number, 0.0);
#if ECO_OBS_ENABLED
  // RSS is real on any run; allocation counters need the obs alloc hook,
  // which sanitizer builds compile out even with obs enabled.
  EXPECT_GT(res->find("peak_rss_bytes")->number, 0.0);
#endif
  // One row per engine stage that ran, in run order.
  const obs::json::Value* stages = res->find("stages");
  ASSERT_TRUE(stages->isArray());
  ASSERT_FALSE(stages->array.empty());
  EXPECT_EQ(stages->array.front().find("stage")->string, "setup");
  for (const obs::json::Value& s : stages->array) {
    ASSERT_NE(s.find("seconds"), nullptr);
    EXPECT_GE(s.find("seconds")->number, 0.0);
    EXPECT_GE(s.find("cpu_seconds")->number, 0.0);
    ASSERT_NE(s.find("peak_rss_bytes"), nullptr);
  }
  ASSERT_TRUE(res->find("threads")->isArray());
}

TEST(ReportJson, ValidatorAcceptsV1WithoutResources) {
  // Backward compatibility: a v1 document (pre-resources) must stay valid.
  const EcoInstance inst = tinyInstance();
  PatchResult r;
  r.success = true;
  std::string v1 = writeJsonReport(inst, r);
  const auto vpos = v1.find("\"schema_version\":2");
  ASSERT_NE(vpos, std::string::npos);
  v1.replace(vpos, 18, "\"schema_version\":1");
  const auto rpos = v1.find(",\"resources\":{");
  ASSERT_NE(rpos, std::string::npos);
  const auto rend = v1.find(",\"base\"", rpos);
  const auto rend2 = rend == std::string::npos ? v1.find(",\"metrics\"", rpos) : rend;
  const auto cut = rend2 == std::string::npos ? v1.rfind('}') : rend2;
  v1.erase(rpos, cut - rpos);
  std::string error;
  EXPECT_TRUE(validateJsonReport(v1, &error)) << error;
}

TEST(ReportJson, ValidatorRequiresResourcesAtV2) {
  const EcoInstance inst = tinyInstance();
  PatchResult r;
  r.success = true;
  std::string v2 = writeJsonReport(inst, r);
  ASSERT_TRUE(validateJsonReport(v2));

  // Same document minus the resources section: invalid at version 2.
  const auto rpos = v2.find("\"resources\"");
  ASSERT_NE(rpos, std::string::npos);
  std::string no_res = v2;
  no_res.replace(rpos, 11, "\"res_urces\"");
  std::string error;
  EXPECT_FALSE(validateJsonReport(no_res, &error));
  EXPECT_NE(error.find("resources"), std::string::npos);

  // Unknown future version: rejected.
  std::string v9 = v2;
  const auto vpos = v9.find("\"schema_version\":2");
  ASSERT_NE(vpos, std::string::npos);
  v9.replace(vpos, 18, "\"schema_version\":9");
  EXPECT_FALSE(validateJsonReport(v9, &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos);
}

}  // namespace
}  // namespace eco

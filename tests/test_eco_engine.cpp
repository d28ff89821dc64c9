// End-to-end tests for the ECO engine: handcrafted single- and multi-target
// instances checked exhaustively, unrectifiable instances reported as such,
// and option-matrix sweeps on generated units.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "aig/aig_ops.h"
#include "benchgen/benchgen.h"
#include "eco/baseline.h"
#include "eco/clustering.h"
#include "eco/engine.h"
#include "eco/verify.h"
#include "obs/obs_config.h"
#include "obs/trace.h"
#include "qa/oracle.h"

namespace eco {
namespace {

/// Exhaustively checks that the patched faulty circuit matches golden.
void expectPatchedEquivalent(const EcoInstance& inst, const PatchResult& r) {
  ASSERT_TRUE(r.success) << r.message;
  ASSERT_LE(inst.num_x, 16u) << "instance too wide for exhaustive checking";
  for (std::uint32_t m = 0; m < (1u << inst.num_x); ++m) {
    std::vector<bool> x(inst.num_x);
    for (std::uint32_t i = 0; i < inst.num_x; ++i) x[i] = (m >> i) & 1;
    const auto patched = evaluatePatched(inst, r, x);
    const auto golden = inst.golden.evaluate(x);
    ASSERT_EQ(patched, golden) << "minterm " << m;
  }
}

/// Golden o = a & b; faulty o = t (the AND was ripped out).
EcoInstance tinySingleTarget() {
  EcoInstance inst;
  inst.name = "tiny1";
  const Lit ga = inst.golden.addPi("a");
  const Lit gb = inst.golden.addPi("b");
  inst.golden.addPo(inst.golden.addAnd(ga, gb), "o");

  const Lit fa = inst.faulty.addPi("a");
  const Lit fb = inst.faulty.addPi("b");
  const Lit t = inst.faulty.addPi("t0");
  inst.num_x = 2;
  // Keep a and b visible as named internal candidates via a spare buffer net.
  inst.faulty.setSignalName(fa, "na");
  inst.faulty.setSignalName(fb, "nb");
  inst.faulty.addPo(t, "o");
  inst.weights = {{"a", 3}, {"b", 3}, {"na", 1}, {"nb", 1}};
  return inst;
}

TEST(EcoEngine, SingleTargetTiny) {
  const EcoInstance inst = tinySingleTarget();
  const PatchResult r = EcoEngine().run(inst);
  expectPatchedEquivalent(inst, r);
  EXPECT_GE(r.size, 1u);  // must contain at least the AND gate
  EXPECT_LE(r.base.size(), 2u);
}

TEST(EcoEngine, CostMetricsConsistent) {
  const EcoInstance inst = tinySingleTarget();
  const PatchResult r = EcoEngine().run(inst);
  ASSERT_TRUE(r.success);
  double sum = 0;
  for (const BaseRef& b : r.base) sum += b.weight;
  EXPECT_DOUBLE_EQ(sum, r.cost);
  EXPECT_EQ(r.size, r.patch.numAnds());
  EXPECT_EQ(r.patch.numPos(), inst.numTargets());
  EXPECT_EQ(r.patch.numPis(), r.base.size());
}

/// Two coupled targets on one output cone: o = (a & b) | (a ^ c) in golden;
/// the faulty circuit lost both inner functions.
EcoInstance coupledTwoTargets() {
  EcoInstance inst;
  inst.name = "coupled2";
  {
    Aig& g = inst.golden;
    const Lit a = g.addPi("a");
    const Lit b = g.addPi("b");
    const Lit c = g.addPi("c");
    g.addPo(g.mkOr(g.addAnd(a, b), g.mkXor(a, c)), "o");
  }
  {
    Aig& f = inst.faulty;
    const Lit a = f.addPi("a");
    const Lit b = f.addPi("b");
    const Lit c = f.addPi("c");
    (void)b;
    (void)c;
    const Lit t0 = f.addPi("t0");
    const Lit t1 = f.addPi("t1");
    inst.num_x = 3;
    f.setSignalName(a, "na");
    f.addPo(f.mkOr(t0, t1), "o");
  }
  inst.default_weight = 2.0;
  return inst;
}

TEST(EcoEngine, MultiTargetCoupled) {
  const EcoInstance inst = coupledTwoTargets();
  const PatchResult r = EcoEngine().run(inst);
  expectPatchedEquivalent(inst, r);
}

TEST(EcoEngine, MultiTargetCoupledWithInterpolationFirst) {
  EcoOptions opt;
  opt.try_interpolation_first = true;
  const EcoInstance inst = coupledTwoTargets();
  const PatchResult r = EcoEngine(opt).run(inst);
  expectPatchedEquivalent(inst, r);
}

TEST(EcoEngine, ReportsUnrectifiable) {
  // Golden o = b; faulty o = t & a: with a=0 the output is stuck at 0, but
  // golden needs b. No patch function of any support can fix this.
  EcoInstance inst;
  inst.name = "unfixable";
  {
    const Lit a = inst.golden.addPi("a");
    (void)a;
    const Lit b = inst.golden.addPi("b");
    inst.golden.addPo(b, "o");
  }
  {
    const Lit a = inst.faulty.addPi("a");
    const Lit b = inst.faulty.addPi("b");
    (void)b;
    const Lit t = inst.faulty.addPi("t0");
    inst.num_x = 2;
    inst.faulty.addPo(inst.faulty.addAnd(t, a), "o");
  }
  const PatchResult r = EcoEngine().run(inst);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.message.find("unrectifiable"), std::string::npos) << r.message;
}

/// Golden o0 = a & b, o1 = a ^ b; faulty o0 = t0 and o1 = `o1(a, b)`, which
/// no target reaches.
template <typename Untouched>
EcoInstance untouchedOutput(const char* name, Untouched o1) {
  EcoInstance inst;
  inst.name = name;
  {
    const Lit a = inst.golden.addPi("a");
    const Lit b = inst.golden.addPi("b");
    inst.golden.addPo(inst.golden.addAnd(a, b), "o0");
    inst.golden.addPo(inst.golden.mkXor(a, b), "o1");
  }
  {
    const Lit a = inst.faulty.addPi("a");
    const Lit b = inst.faulty.addPi("b");
    const Lit t = inst.faulty.addPi("t0");
    inst.num_x = 2;
    inst.faulty.addPo(t, "o0");
    inst.faulty.addPo(o1(inst.faulty, a, b), "o1");
  }
  return inst;
}

bool hasStageRow(const PatchResult& r, const char* stage) {
  return std::any_of(r.stage_resources.begin(), r.stage_resources.end(),
                     [&](const StageResource& row) { return row.stage == stage; });
}

// An untouched output that differs from golden is never in one FRAIG class
// with its golden root, so it reaches the miter, with localization on or
// off, and the run names it with a counterexample that holds.
TEST(EcoEngine, ReportsUntouchedOutputMismatch) {
  const EcoInstance inst = untouchedOutput(
      "untouched", [](Aig& f, Lit a, Lit b) { return f.mkOr(a, b); });
  for (const bool localization : {true, false}) {
    EcoOptions opt;
    opt.use_localization = localization;
    const PatchResult r = EcoEngine(opt).run(inst);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.message,
              "unrectifiable: output 1 differs from golden but no target reaches it");
    EXPECT_TRUE(hasStageRow(r, "verify_untouched"));
    ASSERT_EQ(r.counterexample.size(), inst.num_x);
    EXPECT_TRUE(qa::checkCounterexample(inst, r.counterexample).ok)
        << "localization " << localization;
  }
}

// An untouched output equal to golden shares a FRAIG class with its golden
// root, so no miter is built for it; without localization there are no
// classes and the miter checks it.
TEST(EcoEngine, FraigClassesProveUntouchedOutputs) {
  const EcoInstance inst = untouchedOutput("proven", [](Aig& f, Lit a, Lit b) {
    return f.mkOr(f.addAnd(a, !b), f.addAnd(!a, b));
  });
  for (const bool localization : {true, false}) {
    EcoOptions opt;
    opt.use_localization = localization;
    const PatchResult r = EcoEngine(opt).run(inst);
    expectPatchedEquivalent(inst, r);
    EXPECT_EQ(hasStageRow(r, "verify_untouched"), !localization);
  }
}

TEST(EcoEngine, NoTargetsRejected) {
  EcoInstance inst;
  inst.name = "none";
  const Lit a = inst.golden.addPi("a");
  inst.golden.addPo(a, "o");
  const Lit fa = inst.faulty.addPi("a");
  inst.faulty.addPo(fa, "o");
  inst.num_x = 1;
  const PatchResult r = EcoEngine().run(inst);
  EXPECT_FALSE(r.success);
}

TEST(EcoEngine, CostOptNeverWorsensCost) {
  using benchgen::Family;
  benchgen::UnitSpec spec{.name = "opt",
                          .family = Family::Alu,
                          .size_param = 3,
                          .num_targets = 2,
                          .seed = 77,
                          .pi_weight = 20};
  const EcoInstance inst = benchgen::generateUnit(spec);
  EcoOptions opt;
  const PatchResult r = EcoEngine(opt).run(inst);
  ASSERT_TRUE(r.success) << r.message;
  EXPECT_LE(r.cost, r.initial_cost);
}

TEST(EcoEngine, LocalizationBeatsPiOnlyOnExpensivePiInstance) {
  using benchgen::Family;
  benchgen::UnitSpec spec{.name = "loc",
                          .family = Family::Adder,
                          .size_param = 6,
                          .num_targets = 1,
                          .seed = 5,
                          .target_depth_frac = 0.5,
                          .pi_weight = 50,
                          .internal_weight = 1};
  const EcoInstance inst = benchgen::generateUnit(spec);
  const PatchResult ours = EcoEngine().run(inst);
  const PatchResult pi_only = runWinnerProxy(inst);
  ASSERT_TRUE(ours.success) << ours.message;
  ASSERT_TRUE(pi_only.success) << pi_only.message;
  EXPECT_LE(ours.cost, pi_only.cost);
}

// ---------------------------------------------------------------------------
// Option-matrix sweep over generated units with exhaustive equivalence.

// gtest names each case after the bytes of its parameter, so the struct has
// no padding: the zero fields fill what would be indeterminate padding bytes
// and keep the test names the same from run to run.
struct SweepParam {
  benchgen::Family family;
  std::uint32_t size_param;
  std::uint32_t num_targets;
  std::uint32_t zero0 = 0;
  std::uint64_t seed;
  bool localization;
  bool cost_opt;
  bool itp_first;
  std::uint8_t zero1[5] = {};
};
static_assert(std::has_unique_object_representations_v<SweepParam>);

SweepParam sweep(benchgen::Family family, std::uint32_t size_param,
                 std::uint32_t num_targets, std::uint64_t seed,
                 bool localization, bool cost_opt, bool itp_first) {
  return SweepParam{.family = family,
                    .size_param = size_param,
                    .num_targets = num_targets,
                    .seed = seed,
                    .localization = localization,
                    .cost_opt = cost_opt,
                    .itp_first = itp_first};
}

class EngineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EngineSweep, PatchVerifiesExhaustively) {
  const SweepParam p = GetParam();
  benchgen::UnitSpec spec{.name = "sweep",
                          .family = p.family,
                          .size_param = p.size_param,
                          .num_targets = p.num_targets,
                          .seed = p.seed};
  const EcoInstance inst = benchgen::generateUnit(spec);
  EcoOptions opt;
  opt.use_localization = p.localization;
  opt.use_cost_opt = p.cost_opt;
  opt.try_interpolation_first = p.itp_first;
  const PatchResult r = EcoEngine(opt).run(inst);
  expectPatchedEquivalent(inst, r);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineSweep,
    ::testing::Values(
        sweep(benchgen::Family::Adder, 4, 1, 1, true, true, false),
        sweep(benchgen::Family::Adder, 4, 1, 1, false, false, false),
        sweep(benchgen::Family::Adder, 4, 2, 2, true, true, true),
        sweep(benchgen::Family::Comparator, 4, 2, 3, true, true, false),
        sweep(benchgen::Family::Comparator, 4, 1, 4, false, true, false),
        sweep(benchgen::Family::MuxTree, 2, 2, 5, true, true, false),
        sweep(benchgen::Family::MuxTree, 2, 1, 6, true, false, true),
        sweep(benchgen::Family::Alu, 3, 2, 7, true, true, false),
        sweep(benchgen::Family::Alu, 3, 3, 8, true, true, true),
        sweep(benchgen::Family::Parity, 8, 2, 9, true, true, false),
        sweep(benchgen::Family::Random, 120, 2, 10, true, true, false),
        sweep(benchgen::Family::Random, 120, 3, 11, false, true, true),
        sweep(benchgen::Family::Multiplier, 3, 2, 12, true, true, false),
        sweep(benchgen::Family::Multiplier, 3, 1, 13, true, true, true),
        sweep(benchgen::Family::PriorityEnc, 8, 2, 14, true, true, false),
        sweep(benchgen::Family::PriorityEnc, 8, 3, 15, false, true, false)));

// The stage table: every stage that ran has a row, the rows are disjoint
// and leave only the glue between stages uncovered, and the PatchResult
// stage times are copies of the rows.
TEST(EcoEngine, StageTableCoversTheRun) {
  const benchgen::UnitSpec spec = benchgen::contestSuite()[10];
  ASSERT_EQ(spec.name, "unit11");
  const PatchResult r = EcoEngine().run(benchgen::generateUnit(spec));
  ASSERT_TRUE(r.success) << r.message;
  ASSERT_GE(r.seconds, 0.05) << "the coverage bound needs a run of 50 ms";

  double covered = 0;
  double verify = 0;
  for (const StageResource& row : r.stage_resources) {
    EXPECT_GE(row.seconds, 0.0) << row.stage;
    covered += row.seconds;
    if (row.stage.starts_with("verify_")) verify += row.seconds;
  }
  EXPECT_LE(covered, r.seconds);
  EXPECT_LE(r.seconds - covered, std::max(0.05 * r.seconds, 0.002));

  const auto rowSeconds = [&](const char* stage) {
    for (const StageResource& row : r.stage_resources) {
      if (row.stage == stage) return row.seconds;
    }
    ADD_FAILURE() << "no row for stage " << stage;
    return -1.0;
  };
  EXPECT_EQ(r.stage_resources.front().stage, "setup");
  EXPECT_EQ(r.fraig_seconds, rowSeconds("fraig"));
  EXPECT_EQ(r.patchgen_seconds, rowSeconds("patchgen"));
  EXPECT_EQ(r.opt_seconds, rowSeconds("opt"));
  EXPECT_GT(rowSeconds("verify_initial"), 0.0);
  EXPECT_GT(rowSeconds("verify_final"), 0.0);
  EXPECT_EQ(r.verify_seconds, verify);
}

#if ECO_OBS_ENABLED
/// A traced run's result and the `outputs` arg of its verify_initial and
/// verify_final spans (-1 when the span is missing).
struct VerifyGates {
  PatchResult result;
  std::int64_t initial_outputs = -1;
  std::int64_t final_outputs = -1;
};

VerifyGates runTraced(const EcoInstance& inst, const EcoOptions& opt) {
  obs::startTrace();
  VerifyGates gates{EcoEngine(opt).run(inst)};
  for (const obs::TraceEvent& e : obs::stopTrace().events) {
    const std::string name = e.name;
    std::int64_t* slot = name == "eco.verify_initial" ? &gates.initial_outputs
                         : name == "eco.verify_final" ? &gates.final_outputs
                                                      : nullptr;
    if (slot == nullptr) continue;
    EXPECT_STREQ(e.arg_name, "outputs") << name;
    *slot = static_cast<std::int64_t>(e.arg_value);
  }
  return gates;
}

/// Per patch output (one per target): the sorted base names its cone reads
/// and its AND count.
std::vector<std::pair<std::vector<std::string>, std::uint32_t>> perTargetPatches(
    const PatchResult& r) {
  std::vector<std::pair<std::vector<std::string>, std::uint32_t>> out;
  for (std::uint32_t k = 0; k < r.patch.numPos(); ++k) {
    const std::vector<Lit> root{r.patch.poDriver(k)};
    std::vector<std::string> names;
    for (const std::uint32_t v : supportPis(r.patch, root)) {
      names.push_back(r.patch.piName(r.patch.piIndex(v)));
    }
    std::sort(names.begin(), names.end());
    out.emplace_back(std::move(names), coneAndCount(r.patch, root));
  }
  return out;
}

// verify_initial checks the outputs some cluster owns, and verify_final
// only those of the clusters whose patch cost optimization replaced (read
// here as the targets whose patch differs from the unoptimized run's).
TEST(EcoEngine, VerifyGatesCheckOnlyOutputsAPatchCanChange) {
  const benchgen::UnitSpec spec = benchgen::contestSuite()[10];
  ASSERT_EQ(spec.name, "unit11");
  const EcoInstance inst = benchgen::generateUnit(spec);
  const std::vector<TargetCluster> clusters = clusterTargets(inst);
  std::size_t touched = 0;
  for (const TargetCluster& c : clusters) touched += c.outputs.size();

  EcoOptions no_opt;
  no_opt.use_cost_opt = false;
  const PatchResult initial = EcoEngine(no_opt).run(inst);
  const VerifyGates gates = runTraced(inst, EcoOptions());
  ASSERT_TRUE(initial.success) << initial.message;
  ASSERT_TRUE(gates.result.success) << gates.result.message;
  ASSERT_LT(gates.result.cost, gates.result.initial_cost);

  const auto before = perTargetPatches(initial);
  const auto after = perTargetPatches(gates.result);
  ASSERT_EQ(before.size(), inst.numTargets());
  ASSERT_EQ(after.size(), inst.numTargets());
  std::size_t changed = 0;
  for (const TargetCluster& c : clusters) {
    if (std::any_of(c.targets.begin(), c.targets.end(),
                    [&](std::uint32_t k) { return before[k] != after[k]; })) {
      changed += c.outputs.size();
    }
  }
  EXPECT_EQ(gates.initial_outputs, static_cast<std::int64_t>(touched));
  EXPECT_EQ(gates.final_outputs, static_cast<std::int64_t>(changed));
}

// When cost optimization replaces no patch, verify_final builds no miter
// but still writes its stage row.
TEST(EcoEngine, VerifyFinalChecksNothingWhenOptChangesNothing) {
  const benchgen::UnitSpec spec = benchgen::contestSuite()[0];
  ASSERT_EQ(spec.name, "unit01");
  const VerifyGates gates = runTraced(benchgen::generateUnit(spec), EcoOptions());
  const PatchResult& r = gates.result;
  ASSERT_TRUE(r.success) << r.message;
  EXPECT_EQ(r.cost, r.initial_cost);
  EXPECT_EQ(r.size, r.initial_size);
  EXPECT_GT(gates.initial_outputs, 0);
  EXPECT_EQ(gates.final_outputs, 0);
  EXPECT_TRUE(hasStageRow(r, "verify_final"));
}
#endif  // ECO_OBS_ENABLED

// Randomized multi-seed robustness: many generated instances, all engines.
class EngineSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineSeeds, GeneratedUnitsAlwaysPatchable) {
  benchgen::UnitSpec spec{.name = "seed",
                          .family = benchgen::Family::Random,
                          .size_param = 150,
                          .num_targets = 3,
                          .seed = GetParam(),
                          .target_depth_frac = 0.3};
  const EcoInstance inst = benchgen::generateUnit(spec);
  const PatchResult r = EcoEngine().run(inst);
  expectPatchedEquivalent(inst, r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSeeds,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

}  // namespace
}  // namespace eco

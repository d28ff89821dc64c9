// Failure paths of eco::verifyPatches: a patch with the wrong function must
// produce a genuine counterexample, an uncovered target must fail unless it
// is irrelevant, a patch reading a target pseudo-PI must be rejected by
// verification rather than silently accepted, and a check over a subset of
// the outputs sees only that subset and names failures by PO index.

#include <gtest/gtest.h>

#include <vector>

#include "eco/clustering.h"
#include "eco/engine.h"
#include "eco/relations.h"
#include "eco/verify.h"

namespace eco {
namespace {

/// Golden o = a & b; faulty o = t0.
EcoInstance tinyInstance() {
  EcoInstance inst;
  inst.name = "verify-tiny";
  const Lit ga = inst.golden.addPi("a");
  const Lit gb = inst.golden.addPi("b");
  inst.golden.addPo(inst.golden.addAnd(ga, gb), "o");

  inst.faulty.addPi("a");
  inst.faulty.addPi("b");
  const Lit t = inst.faulty.addPi("t0");
  inst.num_x = 2;
  inst.faulty.addPo(t, "o");
  return inst;
}

/// The one output of tinyInstance.
const std::vector<std::uint32_t> kOutput0{0};

/// A one-output patch for `target` computing `fn(x_in0, x_in1)` over
/// X-input candidates.
TargetPatch patchOver(const Workspace& ws, const EcoInstance& inst,
                      Lit (*build)(Aig&, Lit, Lit), std::uint32_t target = 0,
                      std::uint32_t in0 = 0, std::uint32_t in1 = 1) {
  TargetPatch p;
  p.target = target;
  const Lit a = p.fn.addPi(inst.faulty.piName(in0));
  const Lit b = p.fn.addPi(inst.faulty.piName(in1));
  p.fn.addPo(build(p.fn, a, b));
  for (const std::uint32_t i : {in0, in1}) {
    Candidate c;
    c.name = inst.faulty.piName(i);
    c.f_lit = inst.faulty.piLit(i);
    c.w_fn = ws.x_pis[i];
    c.weight = 1;
    p.inputs.push_back(std::move(c));
  }
  return p;
}

TEST(VerifyFailures, WrongPatchYieldsGenuineCounterexample) {
  const EcoInstance inst = tinyInstance();
  Workspace ws = buildWorkspace(inst);
  // Patch computes a | b instead of a & b.
  const TargetPatch wrong = patchOver(
      ws, inst, +[](Aig& g, Lit a, Lit b) { return g.mkOr(a, b); });
  const std::vector<TargetPatch> patches{wrong};
  const VerifyOutcome v = verifyPatches(ws, patches, kOutput0);
  ASSERT_FALSE(v.equivalent);
  ASSERT_EQ(v.cex_inputs.size(), inst.num_x);
  // The cex must actually distinguish a|b from a&b: exactly one input true.
  EXPECT_NE(v.cex_inputs[0], v.cex_inputs[1]);
  EXPECT_EQ(v.failing_output, 0u);
}

TEST(VerifyFailures, CorrectPatchVerifies) {
  const EcoInstance inst = tinyInstance();
  Workspace ws = buildWorkspace(inst);
  const TargetPatch right = patchOver(
      ws, inst, +[](Aig& g, Lit a, Lit b) { return g.addAnd(a, b); });
  const std::vector<TargetPatch> patches{right};
  EXPECT_TRUE(verifyPatches(ws, patches, kOutput0).equivalent);
}

TEST(VerifyFailures, UncoveredTargetFails) {
  const EcoInstance inst = tinyInstance();
  Workspace ws = buildWorkspace(inst);
  // No patch at all: t0 stays free, and since o depends on it the miter
  // must be satisfiable.
  const VerifyOutcome v = verifyPatches(ws, {}, kOutput0);
  EXPECT_FALSE(v.equivalent);
  EXPECT_EQ(v.cex_inputs.size(), inst.num_x);
}

TEST(VerifyFailures, PatchReadingTargetPseudoPiIsRejected) {
  const EcoInstance inst = tinyInstance();
  Workspace ws = buildWorkspace(inst);
  // An adversarial "patch" wired to the target pseudo-PI itself: t0 := t0.
  // Substitution leaves the target free, so verification must fail — this
  // is the self-referential support the structural oracle also rejects.
  TargetPatch cyclic;
  cyclic.target = 0;
  const Lit in = cyclic.fn.addPi("t0");
  cyclic.fn.addPo(in);
  Candidate c;
  c.name = "t0";
  c.f_lit = inst.faulty.piLit(2);
  c.w_fn = ws.t_pis[0];
  c.weight = 0;
  cyclic.inputs.push_back(std::move(c));
  const std::vector<TargetPatch> patches{cyclic};
  const VerifyOutcome v = verifyPatches(ws, patches, kOutput0);
  EXPECT_FALSE(v.equivalent);
}

TEST(VerifyFailures, UntouchedOutputMismatchReported) {
  // po0 matches golden, po1 = !a differs and no target reaches it.
  EcoInstance inst;
  inst.name = "verify-untouched";
  const Lit ga = inst.golden.addPi("a");
  inst.golden.addPo(ga, "o0");
  inst.golden.addPo(ga, "o1");
  const Lit fa = inst.faulty.addPi("a");
  const Lit t = inst.faulty.addPi("t0");
  inst.num_x = 1;
  inst.faulty.addPo(t, "o0");
  inst.faulty.addPo(!fa, "o1");

  Workspace ws = buildWorkspace(inst);
  const std::vector<std::uint32_t> untouched{1};
  const VerifyOutcome v = verifyPatches(ws, {}, untouched);
  ASSERT_FALSE(v.equivalent);
  EXPECT_EQ(v.failing_output, 1u);

  // The engine reaches the same verdict end to end.
  const PatchResult r = EcoEngine().run(inst);
  ASSERT_FALSE(r.success);
  EXPECT_NE(r.message.find("unrectifiable"), std::string::npos);
  EXPECT_EQ(r.counterexample.size(), inst.num_x);
}

/// Two clusters and an untouched output. Golden o0 = a & b, o1 = a,
/// o2 = b & c; faulty o0 = t0, o1 = a, o2 = t1. Cluster A is {t0} with
/// output 0, cluster B is {t1} with output 2.
EcoInstance twoClusterInstance() {
  EcoInstance inst;
  inst.name = "verify-two-clusters";
  const Lit ga = inst.golden.addPi("a");
  const Lit gb = inst.golden.addPi("b");
  const Lit gc = inst.golden.addPi("c");
  inst.golden.addPo(inst.golden.addAnd(ga, gb), "o0");
  inst.golden.addPo(ga, "o1");
  inst.golden.addPo(inst.golden.addAnd(gb, gc), "o2");

  const Lit fa = inst.faulty.addPi("a");
  inst.faulty.addPi("b");
  inst.faulty.addPi("c");
  const Lit t0 = inst.faulty.addPi("t0");
  const Lit t1 = inst.faulty.addPi("t1");
  inst.num_x = 3;
  inst.faulty.addPo(t0, "o0");
  inst.faulty.addPo(fa, "o1");
  inst.faulty.addPo(t1, "o2");
  return inst;
}

TEST(VerifyFailures, OutputSubsetSeesOnlyItsClusterAndNamesGlobalPo) {
  const EcoInstance inst = twoClusterInstance();
  const std::vector<TargetCluster> clusters = clusterTargets(inst);
  ASSERT_EQ(clusters.size(), 2u);
  ASSERT_EQ(clusters[0].outputs, std::vector<std::uint32_t>{0});
  ASSERT_EQ(clusters[1].outputs, std::vector<std::uint32_t>{2});

  Workspace ws = buildWorkspace(inst);
  // Cluster A's patch is right (t0 = a & b); cluster B's is wrong
  // (t1 = b | c instead of b & c).
  const std::vector<TargetPatch> patches{
      patchOver(ws, inst, +[](Aig& g, Lit a, Lit b) { return g.addAnd(a, b); }, 0, 0, 1),
      patchOver(ws, inst, +[](Aig& g, Lit b, Lit c) { return g.mkOr(b, c); }, 1, 1, 2)};

  EXPECT_TRUE(verifyPatches(ws, patches, clusters[0].outputs).equivalent);
  const VerifyOutcome v = verifyPatches(ws, patches, clusters[1].outputs);
  ASSERT_FALSE(v.equivalent);
  EXPECT_EQ(v.failing_output, 2u);
  ASSERT_EQ(v.cex_inputs.size(), inst.num_x);

  // The counterexample is genuine: the patched circuit differs from golden
  // at the reported output. Patch PO k drives target k, over inputs a, b, c.
  PatchResult r;
  const Lit a = r.patch.addPi("a");
  const Lit b = r.patch.addPi("b");
  const Lit c = r.patch.addPi("c");
  r.patch.addPo(r.patch.addAnd(a, b), "t0");
  r.patch.addPo(r.patch.mkOr(b, c), "t1");
  for (std::uint32_t i = 0; i < 3; ++i) {
    r.base.push_back({inst.faulty.piName(i), inst.faulty.piLit(i), 1});
  }
  EXPECT_NE(evaluatePatched(inst, r, v.cex_inputs)[2],
            inst.golden.evaluate(v.cex_inputs)[2]);
}

TEST(VerifyFailures, EmptyOutputSubsetIsEquivalent) {
  const EcoInstance inst = tinyInstance();
  Workspace ws = buildWorkspace(inst);
  const std::uint32_t nodes = ws.w.numNodes();
  // Even with the target left floating: no output, no miter.
  EXPECT_TRUE(verifyPatches(ws, {}, {}).equivalent);
  EXPECT_EQ(ws.w.numNodes(), nodes);
}

}  // namespace
}  // namespace eco

// Unit tests for the individual ECO pipeline stages: clustering (Fig. 2),
// workspace relations (care/diff algebra), localization cuts (Alg. 2),
// rebasing (Eq. 12), and base selection (Sec. 6.2).

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "eco/candidates.h"
#include "eco/clustering.h"
#include "eco/costopt.h"
#include "eco/localization.h"
#include "eco/rebase.h"
#include "eco/relations.h"

namespace eco {
namespace {

/// The Figure 2 scenario: t1 and t2 share an output, t2 and t3 share
/// another; t4 is separate — expect clusters {t1,t2,t3} and {t4}.
EcoInstance figure2Instance() {
  EcoInstance inst;
  inst.name = "fig2";
  {
    Aig& g = inst.golden;
    const Lit a = g.addPi("a");
    const Lit b = g.addPi("b");
    const Lit c = g.addPi("c");
    const Lit d = g.addPi("d");
    g.addPo(g.addAnd(a, b), "o1");
    g.addPo(g.mkOr(b, c), "o2");
    g.addPo(g.mkXor(c, d), "o3");
    g.addPo(g.addAnd(c, d), "o4");
  }
  {
    Aig& f = inst.faulty;
    const Lit a = f.addPi("a");
    const Lit b = f.addPi("b");
    const Lit c = f.addPi("c");
    const Lit d = f.addPi("d");
    (void)a;
    (void)c;
    const Lit t1 = f.addPi("t1");
    const Lit t2 = f.addPi("t2");
    const Lit t3 = f.addPi("t3");
    const Lit t4 = f.addPi("t4");
    inst.num_x = 4;
    // o1 sees t1 and t2; o2 sees t2 and t3; o3 sees t3; o4 sees t4.
    f.addPo(f.addAnd(t1, t2), "o1");
    f.addPo(f.mkOr(t2, f.addAnd(t3, b)), "o2");
    f.addPo(f.mkXor(t3, d), "o3");
    f.addPo(t4, "o4");
  }
  return inst;
}

TEST(Clustering, Figure2Grouping) {
  const EcoInstance inst = figure2Instance();
  const auto clusters = clusterTargets(inst);
  ASSERT_EQ(clusters.size(), 2u);
  const std::unordered_set<std::uint32_t> c0(clusters[0].targets.begin(),
                                             clusters[0].targets.end());
  EXPECT_EQ(c0, (std::unordered_set<std::uint32_t>{0, 1, 2}));
  ASSERT_EQ(clusters[1].targets.size(), 1u);
  EXPECT_EQ(clusters[1].targets[0], 3u);
  // Output partition: cluster 0 owns o1,o2,o3; cluster 1 owns o4.
  EXPECT_EQ(clusters[0].outputs, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(clusters[1].outputs, (std::vector<std::uint32_t>{3}));
}

TEST(Clustering, TargetWithNoOutputGetsOwnCluster) {
  EcoInstance inst;
  const Lit a = inst.golden.addPi("a");
  inst.golden.addPo(a, "o");
  const Lit fa = inst.faulty.addPi("a");
  inst.faulty.addPi("t0");  // floating, reaches nothing
  inst.num_x = 1;
  inst.faulty.addPo(fa, "o");
  const auto clusters = clusterTargets(inst);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_TRUE(clusters[0].outputs.empty());
}

TEST(Relations, CareAndDiffSetsSingleOutput) {
  // f = x1 & t; g = x1 & x2. care^t = x1; on-set = x1 & !(x1&x2 == x1&0)...
  // concretely: on = care & (f|t=0 xor g) = x1 & (0 xor x1&x2) = x1&x2.
  EcoInstance inst;
  {
    Aig& g = inst.golden;
    const Lit x1 = g.addPi("x1");
    const Lit x2 = g.addPi("x2");
    g.addPo(g.addAnd(x1, x2), "o");
  }
  {
    Aig& f = inst.faulty;
    const Lit x1 = f.addPi("x1");
    f.addPi("x2");
    const Lit t = f.addPi("t0");
    inst.num_x = 2;
    f.addPo(f.addAnd(x1, t), "o");
  }
  Workspace ws = buildWorkspace(inst);
  const OnOffSets oo =
      buildOnOff(ws.w, ws.f_roots, ws.g_roots, ws.t_pis[0]);
  ws.w.addPo(oo.on, "on");
  ws.w.addPo(oo.off, "off");
  // Workspace PIs: x1, x2, t (t irrelevant for on/off after cofactoring).
  for (int m = 0; m < 4; ++m) {
    const bool x1 = m & 1, x2 = (m >> 1) & 1;
    const auto out = ws.w.evaluate({x1, x2, false});
    const std::size_t n_po = ws.w.numPos();
    EXPECT_EQ(out[n_po - 2], x1 && x2) << "on-set at m=" << m;
    EXPECT_EQ(out[n_po - 1], x1 && !x2) << "off-set at m=" << m;
  }
}

TEST(Localization, CutUsesSharedEquivalentSignals) {
  // Faulty and golden share a mid-level signal (a&b built differently).
  // The localized network must offer it as a base instead of only PIs.
  EcoInstance inst;
  {
    Aig& g = inst.golden;
    const Lit a = g.addPi("a");
    const Lit b = g.addPi("b");
    const Lit c = g.addPi("c");
    const Lit shared = g.addAnd(a, b);
    g.addPo(g.mkXor(shared, c), "o");
  }
  {
    Aig& f = inst.faulty;
    const Lit a = f.addPi("a");
    const Lit b = f.addPi("b");
    f.addPi("c");
    const Lit t = f.addPi("t0");
    inst.num_x = 3;
    const Lit shared = f.mkMux(a, b, kFalse);  // a&b, different structure
    f.setSignalName(shared, "mid");
    f.addPo(f.mkXor(shared, t), "o");
  }
  inst.weights = {{"a", 10}, {"b", 10}, {"c", 10}, {"mid", 1}};

  Workspace ws = buildWorkspace(inst);
  std::vector<Lit> roots = ws.f_roots;
  roots.insert(roots.end(), ws.g_roots.begin(), ws.g_roots.end());
  const fraig::EquivClasses classes = fraig::computeEquivClasses(ws.w, roots);
  const std::vector<Candidate> candidates = collectCandidates(inst, ws);
  const auto clusters = clusterTargets(inst);
  ASSERT_EQ(clusters.size(), 1u);
  const LocalNetwork net =
      buildLocalNetwork(inst, ws, clusters[0], candidates, &classes);
  bool has_mid = false;
  for (const CutBase& b : net.bases) has_mid |= (b.signal.name == "mid");
  EXPECT_TRUE(has_mid);
  // The cut network must re-express both cones: sanity-check PO count.
  EXPECT_EQ(net.f_roots.size(), 1u);
  EXPECT_EQ(net.g_roots.size(), 1u);
}

TEST(Localization, WithoutClassesFallsBackToPis) {
  EcoInstance inst = figure2Instance();
  Workspace ws = buildWorkspace(inst);
  const std::vector<Candidate> candidates = collectCandidates(inst, ws);
  const auto clusters = clusterTargets(inst);
  const LocalNetwork net =
      buildLocalNetwork(inst, ws, clusters[0], candidates, nullptr);
  for (const CutBase& b : net.bases) {
    EXPECT_TRUE(inst.faulty.findPi(b.signal.name).has_value())
        << b.signal.name << " is not a PI";
  }
}

TEST(Candidates, ExcludesTargetFanout) {
  EcoInstance inst;
  {
    Aig& g = inst.golden;
    const Lit a = g.addPi("a");
    const Lit b = g.addPi("b");
    g.addPo(g.addAnd(g.addAnd(a, b), a), "o");
  }
  {
    Aig& f = inst.faulty;
    const Lit a = f.addPi("a");
    const Lit b = f.addPi("b");
    const Lit t = f.addPi("t0");
    inst.num_x = 2;
    const Lit pre = f.addAnd(a, b);       // independent of t: candidate
    const Lit post = f.addAnd(t, a);      // in TFO(t): excluded
    f.setSignalName(pre, "pre");
    f.setSignalName(post, "post");
    f.addPo(post, "o");
  }
  Workspace ws = buildWorkspace(inst);
  const std::vector<Candidate> cands = collectCandidates(inst, ws);
  bool has_pre = false, has_post = false;
  for (const Candidate& c : cands) {
    has_pre |= c.name == "pre";
    has_post |= c.name == "post";
  }
  EXPECT_TRUE(has_pre);
  EXPECT_FALSE(has_post);
}

// ---------------------------------------------------------------------------
// Rebase oracle: feasibility must match brute-force functional dependency.

struct RebaseFixture {
  EcoInstance inst;
  Workspace ws;
  Lit on, off;
  std::vector<Candidate> cands;
};

/// Patch requirement: on = x0&x1, off = !x0&!x1 (i.e. implement any f with
/// f(11)=1, f(00)=0 on the care set). Candidates: x0, x1, x0^x1, x0&x1.
RebaseFixture makeRebaseFixture() {
  RebaseFixture fx;
  EcoInstance& inst = fx.inst;
  {
    Aig& g = inst.golden;
    g.addPi("x0");
    g.addPi("x1");
    g.addPo(kFalse, "o");
  }
  {
    Aig& f = inst.faulty;
    const Lit x0 = f.addPi("x0");
    const Lit x1 = f.addPi("x1");
    f.addPi("t0");
    inst.num_x = 2;
    f.setSignalName(f.mkXor(x0, x1), "nxor");
    f.setSignalName(f.addAnd(x0, x1), "nand2");
    f.addPo(kFalse, "o");
  }
  fx.ws = buildWorkspace(inst);
  const Lit x0 = fx.ws.x_pis[0];
  const Lit x1 = fx.ws.x_pis[1];
  fx.on = fx.ws.w.addAnd(x0, x1);
  fx.off = fx.ws.w.addAnd(!x0, !x1);
  fx.cands = collectCandidates(inst, fx.ws);
  return fx;
}

TEST(Rebase, FeasibilityMatchesFunctionalDependency) {
  RebaseFixture fx = makeRebaseFixture();
  RebaseOracle oracle(fx.ws, fx.on, fx.off, fx.cands);
  // Candidate order: x0, x1, nxor, nand2 (PIs first, then named signals).
  ASSERT_EQ(fx.cands.size(), 4u);
  ASSERT_EQ(fx.cands[2].name, "nxor");
  ASSERT_EQ(fx.cands[3].name, "nand2");
  // x0 alone distinguishes on (x0=1) from off (x0=0): feasible.
  EXPECT_TRUE(oracle.feasible(std::vector<std::uint32_t>{0}));
  EXPECT_TRUE(oracle.feasible(std::vector<std::uint32_t>{1}));
  // nand2 alone: on->1, off->0: feasible.
  EXPECT_TRUE(oracle.feasible(std::vector<std::uint32_t>{3}));
  // nxor alone: on gives 0 and off gives 0 — cannot distinguish.
  EXPECT_FALSE(oracle.feasible(std::vector<std::uint32_t>{2}));
  // Empty base: infeasible (on and off both nonempty).
  EXPECT_FALSE(oracle.feasible(std::vector<std::uint32_t>{}));
}

TEST(Rebase, SynthesisProducesCorrectPatch) {
  RebaseFixture fx = makeRebaseFixture();
  const std::vector<std::uint32_t> sel{3};  // nand2
  const auto patch = synthesizeOverBase(fx.ws, fx.on, fx.off, fx.cands, sel, -1);
  ASSERT_TRUE(patch.has_value());
  ASSERT_EQ(patch->numPis(), 1u);
  // Patch over nand2 must map on-set value (nand2=1) to 1 and off-set value
  // (nand2=0) to 0.
  EXPECT_EQ(patch->evaluate({true})[0], true);
  EXPECT_EQ(patch->evaluate({false})[0], false);
}

TEST(Rebase, CexEnumerationTerminatesAndBlocks) {
  RebaseFixture fx = makeRebaseFixture();
  RebaseOracle oracle(fx.ws, fx.on, fx.off, fx.cands);
  // Watch {x0, x1}, nothing selected: every on-side valuation is (1,1),
  // so exactly one counterexample pattern must be found.
  const std::vector<std::uint32_t> watch{0, 1};
  const auto pats = oracle.enumerateCex({}, watch, 16);
  ASSERT_EQ(pats.size(), 1u);
  EXPECT_EQ(pats[0], 0b11u);
  // Oracle must remain usable: feasibility query unaffected by controls.
  EXPECT_TRUE(oracle.feasible(std::vector<std::uint32_t>{0}));
}

TEST(Rebase, CexEnumerationRetiresControlVariables) {
  // on = x0|x1 has three on-side valuations of {x0, x1}, none fixed at the
  // root, so every blocking clause keeps its control variable free unless
  // the enumeration retires it.
  RebaseFixture fx = makeRebaseFixture();
  fx.on = !fx.off;
  RebaseOracle oracle(fx.ws, fx.on, fx.off, fx.cands);
  ASSERT_EQ(fx.cands.size(), 4u);
  const auto feasibleBySubset = [&] {
    std::vector<bool> answers;
    for (std::uint32_t mask = 0; mask < 16; ++mask) {
      std::vector<std::uint32_t> sel;
      for (std::uint32_t i = 0; i < 4; ++i) {
        if ((mask >> i) & 1) sel.push_back(i);
      }
      answers.push_back(oracle.feasible(sel));
    }
    return answers;
  };
  const std::vector<bool> feasible_before = feasibleBySubset();

  const std::vector<std::uint32_t> watch{0, 1};
  const std::vector<std::uint64_t> expected{0b01, 0b10, 0b11};
  constexpr int kEnumerations = 200;
  std::uint64_t last_sat_decisions = 0;
  for (int round = 0; round < kEnumerations; ++round) {
    auto pats = oracle.enumerateCex({}, watch, 16);
    std::sort(pats.begin(), pats.end());
    ASSERT_EQ(pats, expected) << "round " << round;
    // After the first round the collision bank answers the enumeration,
    // so probe the controls with a Sat query of their own: nothing
    // selected, the on-set and off-set inputs collide.
    const std::uint64_t before = oracle.numDecisions();
    ASSERT_FALSE(oracle.feasible(std::vector<std::uint32_t>{}));
    last_sat_decisions = oracle.numDecisions() - before;
  }
  // Without retirement the last Sat answer has to decide every stale
  // control; retired, it makes a handful of decisions.
  EXPECT_LE(last_sat_decisions, 32u);
  EXPECT_EQ(feasibleBySubset(), feasible_before);
}

TEST(Rebase, BankedEnumerationMatchesSolvedWithFewerSolves) {
  // on = x0|x1, off = !x0&!x1. Over Watch {x0, x1, nand2} with nothing
  // selected the on side has three valuations: 0b001, 0b010, 0b111.
  RebaseFixture fx = makeRebaseFixture();
  fx.on = !fx.off;
  RebaseOracle oracle(fx.ws, fx.on, fx.off, fx.cands);
  const std::vector<std::uint32_t> watch{0, 1, 3};
  const auto enumerate = [&](std::uint64_t* solves) {
    const std::uint64_t before = oracle.numSolves();
    auto pats = oracle.enumerateCex({}, watch, 16);
    *solves = oracle.numSolves() - before;
    std::sort(pats.begin(), pats.end());
    return pats;
  };
  std::uint64_t cold_solves = 0;
  const std::vector<std::uint64_t> cold = enumerate(&cold_solves);
  EXPECT_EQ(cold, (std::vector<std::uint64_t>{0b001, 0b010, 0b111}));

  // Other queries of the same oracle add collisions to its bank.
  for (std::uint32_t i = 0; i < 4; ++i) {
    (void)oracle.feasible(std::vector<std::uint32_t>{i});
  }
  (void)oracle.enumerateCex(std::vector<std::uint32_t>{2},
                            std::vector<std::uint32_t>{3}, 16);

  std::uint64_t banked_solves = 0;
  EXPECT_EQ(enumerate(&banked_solves), cold);
  EXPECT_LT(banked_solves, cold_solves);
}

TEST(CostOpt, SelectsCheaperEquivalentBase) {
  // on = x0&x1 / off = !(x0&x1): only fn is nand2 itself; base {x0,x1}
  // costs 20, base {nand2} costs 1. Selection must find the cheap one.
  RebaseFixture fx = makeRebaseFixture();
  // Rebuild with off = !(on) over the care universe.
  fx.off = !fx.on;
  RebaseOracle oracle(fx.ws, fx.on, fx.off, fx.cands);
  std::vector<double> w{10, 10, 5, 1};
  const std::vector<std::uint32_t> initial{0, 1};
  ASSERT_TRUE(oracle.feasible(initial));
  EcoOptions opt;
  opt.watch_size = 2;
  const BaseSelection sel = selectBase(oracle, w, initial, opt);
  ASSERT_EQ(sel.base.size(), 1u);
  EXPECT_EQ(sel.base[0], 3u);
  EXPECT_DOUBLE_EQ(sel.cost, 1.0);
}

TEST(CostOpt, KeepsFeasibleBaseWhenNothingCheaperExists) {
  RebaseFixture fx = makeRebaseFixture();
  RebaseOracle oracle(fx.ws, fx.on, fx.off, fx.cands);
  std::vector<double> w{1, 5, 9, 9};
  const std::vector<std::uint32_t> initial{0};
  EcoOptions opt;
  const BaseSelection sel = selectBase(oracle, w, initial, opt);
  EXPECT_TRUE(oracle.feasible(sel.base));
  EXPECT_LE(sel.cost, 1.0);
}

}  // namespace
}  // namespace eco

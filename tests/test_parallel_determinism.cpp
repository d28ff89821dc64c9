// Determinism contract of the parallel engine (DESIGN.md): EcoEngine::run
// must produce bit-identical patches — cost, size, base selection — for any
// worker count. The FRAIG stage runs on one thread; its classes are checked
// here against exhaustive truth tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "aig/aig_ops.h"
#include "benchgen/benchgen.h"
#include "eco/engine.h"
#include "eco/relations.h"
#include "eco/verify.h"
#include "fraig/fraig.h"
#include "sim/sim.h"

namespace eco {
namespace {

/// A small slice of the contest suite plus a handcrafted multi-cluster
/// instance; kept small so the thread sweep stays tier-1 fast.
std::vector<EcoInstance> exampleInstances() {
  std::vector<EcoInstance> instances;
  const std::vector<benchgen::UnitSpec> suite = benchgen::contestSuite();
  for (std::size_t i = 0; i < suite.size() && i < 6; ++i) {
    instances.push_back(benchgen::generateUnit(suite[i]));
  }

  // Two independent output cones -> two clusters, exercising the parallel
  // per-cluster dispatch with more than one task.
  EcoInstance inst;
  inst.name = "two_clusters";
  {
    Aig& g = inst.golden;
    const Lit a = g.addPi("a");
    const Lit b = g.addPi("b");
    const Lit c = g.addPi("c");
    const Lit d = g.addPi("d");
    g.addPo(g.mkXor(a, b), "o1");
    g.addPo(g.mkOr(c, d), "o2");
  }
  {
    Aig& f = inst.faulty;
    const Lit a = f.addPi("a");
    const Lit b = f.addPi("b");
    const Lit c = f.addPi("c");
    const Lit d = f.addPi("d");
    const Lit t0 = f.addPi("t0");
    const Lit t1 = f.addPi("t1");
    inst.num_x = 4;
    f.setSignalName(f.addAnd(a, b), "nab");
    f.setSignalName(f.addAnd(c, d), "ncd");
    f.addPo(t0, "o1");
    f.addPo(t1, "o2");
  }
  inst.weights = {{"a", 2}, {"b", 2}, {"c", 2}, {"d", 2}, {"nab", 1}, {"ncd", 1}};
  instances.push_back(std::move(inst));
  return instances;
}

TEST(ParallelDeterminism, IdenticalPatchAcrossThreadCounts) {
  for (const EcoInstance& inst : exampleInstances()) {
    EcoOptions opt;
    opt.num_threads = 1;
    const PatchResult ref = EcoEngine(opt).run(inst);
    ASSERT_TRUE(ref.success) << inst.name << ": " << ref.message;
    EXPECT_EQ(ref.num_threads_used, 1u);

    for (const std::uint32_t threads : {2u, 4u}) {
      opt.num_threads = threads;
      const PatchResult r = EcoEngine(opt).run(inst);
      ASSERT_TRUE(r.success) << inst.name << " with " << threads << " threads";
      EXPECT_EQ(r.num_threads_used, threads);
      EXPECT_DOUBLE_EQ(r.cost, ref.cost) << inst.name << " @" << threads;
      EXPECT_EQ(r.size, ref.size) << inst.name << " @" << threads;
      EXPECT_DOUBLE_EQ(r.initial_cost, ref.initial_cost)
          << inst.name << " @" << threads;
      EXPECT_EQ(r.initial_size, ref.initial_size)
          << inst.name << " @" << threads;
      ASSERT_EQ(r.base.size(), ref.base.size()) << inst.name << " @" << threads;
      for (std::size_t i = 0; i < r.base.size(); ++i) {
        EXPECT_EQ(r.base[i].name, ref.base[i].name)
            << inst.name << " base " << i << " @" << threads;
      }
      EXPECT_EQ(r.patch.numAnds(), ref.patch.numAnds());
      EXPECT_EQ(r.num_clusters, ref.num_clusters);
      EXPECT_EQ(r.cut_size, ref.cut_size);
    }
  }
}

TEST(ParallelDeterminism, ParallelRunsProduceVerifiedPatches) {
  for (const EcoInstance& inst : exampleInstances()) {
    if (inst.num_x > 12) continue;  // keep the exhaustive check cheap
    EcoOptions opt;
    opt.num_threads = 4;
    const PatchResult r = EcoEngine(opt).run(inst);
    ASSERT_TRUE(r.success) << inst.name;
    for (std::uint32_t m = 0; m < (1u << inst.num_x); ++m) {
      std::vector<bool> x(inst.num_x);
      for (std::uint32_t i = 0; i < inst.num_x; ++i) x[i] = (m >> i) & 1;
      ASSERT_EQ(evaluatePatched(inst, r, x), inst.golden.evaluate(x))
          << inst.name << " minterm " << m;
    }
  }
}

// Ground truth for the FRAIG stage, on workspaces small enough to simulate
// exhaustively: the classes are exactly the partition of the cone nodes
// (the constant included) by truth table up to complement, each class
// represented by its smallest node with the relative phase. Workspaces with
// more than kMaxInputs inputs (unit03, unit05 and unit06) are skipped.
TEST(FraigClasses, EqualTheTruthTablePartition) {
  constexpr std::uint32_t kMaxInputs = 16;
  std::vector<EcoInstance> instances = exampleInstances();
  for (const benchgen::UnitSpec& spec :
       {benchgen::UnitSpec{.name = "random", .family = benchgen::Family::Random,
                           .size_param = 60, .num_targets = 2, .seed = 3},
        benchgen::UnitSpec{.name = "parity", .family = benchgen::Family::Parity,
                           .size_param = 8, .num_targets = 2, .seed = 5},
        benchgen::UnitSpec{.name = "prio", .family = benchgen::Family::PriorityEnc,
                           .size_param = 8, .num_targets = 1, .seed = 7},
        benchgen::UnitSpec{.name = "adder", .family = benchgen::Family::Adder,
                           .size_param = 6, .num_targets = 2, .seed = 9}}) {
    instances.push_back(benchgen::generateUnit(spec));
  }
  std::size_t checked = 0;
  for (const EcoInstance& inst : instances) {
    const Workspace ws = buildWorkspace(inst);
    std::vector<Lit> roots = ws.f_roots;
    roots.insert(roots.end(), ws.g_roots.begin(), ws.g_roots.end());
    const std::uint32_t n = ws.w.numPis();
    if (n > kMaxInputs) continue;
    ++checked;
    const std::uint32_t minterms = 1u << n;
    sim::PatternSet patterns(n, std::max(1u, minterms / 64));
    for (std::uint32_t m = 0; m < minterms; ++m) {
      for (std::uint32_t p = 0; p < n; ++p) patterns.setBit(p, m, (m >> p) & 1);
    }
    const sim::PatternSet values = sim::simulateAll(ws.w, patterns);

    std::vector<std::uint32_t> cone = collectCone(ws.w, roots);
    cone.push_back(0);
    std::sort(cone.begin(), cone.end());
    // Canonical truth table -> (smallest node, its phase).
    std::map<std::vector<std::uint64_t>, std::pair<std::uint32_t, bool>> first;
    const fraig::EquivClasses classes = fraig::computeEquivClasses(ws.w, roots);
    for (const std::uint32_t var : cone) {
      const auto table = values.of(var);
      const bool phase = (table[0] & 1) != 0;
      std::vector<std::uint64_t> key(table.begin(), table.end());
      if (phase) {
        for (std::uint64_t& w : key) w = ~w;
      }
      const auto [rep, rep_phase] = first.try_emplace(key, var, phase).first->second;
      EXPECT_EQ(classes.normalize(Lit::fromVar(var, false)),
                Lit::fromVar(rep, phase != rep_phase))
          << inst.name << " var " << var;
    }
  }
  EXPECT_EQ(checked, instances.size() - 3);
}

}  // namespace
}  // namespace eco

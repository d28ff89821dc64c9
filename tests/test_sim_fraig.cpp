// Tests for bit-parallel simulation and FRAIG equivalence classes.

#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aig/aig.h"
#include "aig/aig_ops.h"
#include "base/rng.h"
#include "fraig/fraig.h"
#include "sim/sim.h"

namespace eco {
namespace {

TEST(Sim, MatchesPointEvaluation) {
  Rng rng(7);
  Aig aig;
  const Lit a = aig.addPi("a");
  const Lit b = aig.addPi("b");
  const Lit c = aig.addPi("c");
  const Lit f = aig.mkOr(aig.addAnd(a, b), aig.mkXor(b, !c));
  aig.addPo(f, "f");

  sim::PatternSet patterns(3, 2);
  patterns.randomize(rng);
  const sim::PatternSet values = sim::simulateAll(aig, patterns);
  std::vector<std::uint64_t> out(2);
  sim::litValues(values, f, out);

  for (std::uint32_t bit = 0; bit < 128; ++bit) {
    std::vector<bool> in(3);
    for (std::uint32_t p = 0; p < 3; ++p) {
      in[p] = (patterns.of(p)[bit / 64] >> (bit % 64)) & 1;
    }
    const bool expect = aig.evaluate(in)[0];
    const bool got = (out[bit / 64] >> (bit % 64)) & 1;
    ASSERT_EQ(got, expect) << "bit " << bit;
  }
}

TEST(Sim, SetBit) {
  sim::PatternSet p(1, 1);
  p.setBit(0, 5, true);
  EXPECT_EQ(p.of(0)[0], std::uint64_t{1} << 5);
  p.setBit(0, 5, false);
  EXPECT_EQ(p.of(0)[0], 0u);
}

TEST(Fraig, DetectsStructuralAndComplementEquivalences) {
  Aig aig;
  const Lit a = aig.addPi("a");
  const Lit b = aig.addPi("b");
  // f1 = a & b; f2 = !(!a | !b) == f1 (structurally identical in an AIG,
  // so build a genuinely different realization: mux(a, b, 0)).
  const Lit f1 = aig.addAnd(a, b);
  const Lit f2 = aig.mkMux(a, b, kFalse);  // a ? b : 0 == a & b
  const Lit f3 = !aig.mkOr(!a, !b);        // strashes onto f1
  const Lit g = aig.mkOr(!a, !b);          // == !f1 (complement class)
  aig.addPo(f1, "f1");
  aig.addPo(f2, "f2");
  aig.addPo(f3, "f3");
  aig.addPo(g, "g");

  std::vector<Lit> roots{f1, f2, f3, g};
  const fraig::EquivClasses classes = fraig::computeEquivClasses(aig, roots);
  EXPECT_EQ(classes.normalize(f1), classes.normalize(f2));
  EXPECT_EQ(classes.normalize(f1), classes.normalize(f3));
  EXPECT_EQ(classes.normalize(f1), !classes.normalize(g));
}

TEST(Fraig, DetectsConstantSignals) {
  Aig aig;
  const Lit a = aig.addPi("a");
  const Lit b = aig.addPi("b");
  const Lit z = aig.addAnd(aig.mkXor(a, b), aig.mkEquiv(a, b));  // constant 0
  const Lit one = aig.mkOr(aig.mkXor(a, b), aig.mkEquiv(a, b));  // constant 1
  aig.addPo(z, "z");
  aig.addPo(one, "one");
  std::vector<Lit> roots{z, one};
  const fraig::EquivClasses classes = fraig::computeEquivClasses(aig, roots);
  EXPECT_EQ(classes.normalize(z), kFalse);
  EXPECT_EQ(classes.normalize(one), kTrue);
}

TEST(Fraig, DoesNotMergeInequivalentNodes) {
  // Functions agreeing on most inputs (differ on a single minterm) — random
  // simulation may bucket them; SAT must split them.
  Aig aig;
  const Lit a = aig.addPi("a");
  const Lit b = aig.addPi("b");
  const Lit c = aig.addPi("c");
  const Lit d = aig.addPi("d");
  std::vector<Lit> all{a, b, c, d};
  const Lit f1 = aig.mkAndN(all);                         // abcd
  const Lit f2 = kFalse;                                   // constant 0
  const Lit f3 = aig.addAnd(aig.mkAndN(all), !a);          // also constant 0
  aig.addPo(f1, "f1");
  aig.addPo(f2, "f2");
  aig.addPo(f3, "f3");
  std::vector<Lit> roots{f1, f2, f3};
  const fraig::EquivClasses classes = fraig::computeEquivClasses(aig, roots);
  EXPECT_NE(classes.normalize(f1), classes.normalize(kFalse));
  EXPECT_EQ(classes.normalize(f3), kFalse);
}

TEST(Fraig, CrossCircuitSharedEquivalences) {
  // Two adder realizations of the same function over shared PIs.
  Aig aig;
  const Lit a0 = aig.addPi("a0");
  const Lit a1 = aig.addPi("a1");
  const Lit b0 = aig.addPi("b0");
  const Lit b1 = aig.addPi("b1");
  // Circuit 1 sum bits.
  const Lit s0 = aig.mkXor(a0, b0);
  const Lit c0 = aig.addAnd(a0, b0);
  const Lit s1 = aig.mkXor(aig.mkXor(a1, b1), c0);
  // Circuit 2: same functions, built differently.
  const Lit s0b = aig.mkOr(aig.addAnd(a0, !b0), aig.addAnd(!a0, b0));
  const Lit c0b = !aig.mkOr(!a0, !b0);
  const Lit s1b = aig.mkXor(a1, aig.mkXor(b1, c0b));
  aig.addPo(s0, "s0");
  aig.addPo(s1, "s1");
  aig.addPo(s0b, "s0b");
  aig.addPo(s1b, "s1b");
  std::vector<Lit> roots{s0, s1, s0b, s1b};
  const fraig::EquivClasses classes = fraig::computeEquivClasses(aig, roots);
  EXPECT_EQ(classes.normalize(s0), classes.normalize(s0b));
  EXPECT_EQ(classes.normalize(s1), classes.normalize(s1b));
}

// Two 64-stage parity chains over shared PIs, built from different gates:
// every stage pair a_i == b_i is a true equivalence. The sequential sweep
// decides pairs in topological order, so each stage's proof reuses the
// clauses learned for the stages below it; an unordered sweep proves deep
// stages first and needs several times more conflicts (about 1,500 here,
// against about 400 in order).
TEST(Fraig, TopologicalSweepReusesFaninProofs) {
  Aig aig;
  std::vector<Lit> x;
  for (int i = 0; i < 64; ++i) x.push_back(aig.addPi("x" + std::to_string(i)));
  Lit a = x[0];
  Lit b = x[0];
  for (int i = 1; i < 64; ++i) {
    a = aig.mkXor(a, x[i]);
    b = !aig.mkOr(aig.addAnd(b, x[i]), aig.addAnd(!b, !x[i]));
  }
  aig.addPo(a, "a");
  aig.addPo(b, "b");
  const std::vector<Lit> roots{a, b};
  fraig::Stats stats;
  const fraig::EquivClasses classes =
      fraig::computeEquivClasses(aig, roots, {}, &stats);
  EXPECT_EQ(classes.normalize(a), classes.normalize(b));
  EXPECT_GT(stats.sat_queries, 0u);
  EXPECT_LE(stats.sat_conflicts, 800u);
}

// ------------------------------------------------------- compressCones --

// XOR realized as !((a & b) | (!a & !b)), which does not strash onto mkXor.
Lit altXor(Aig& aig, Lit a, Lit b) {
  return !aig.mkOr(aig.addAnd(a, b), aig.addAnd(!a, !b));
}

// Two parity functions of `x`: a left-to-right mkXor chain and a balanced
// tree of altXor gates. They share no gate.
std::pair<Lit, Lit> twoParityTrees(Aig& aig, std::span<const Lit> x) {
  Lit chain = x[0];
  for (std::size_t i = 1; i < x.size(); ++i) chain = aig.mkXor(chain, x[i]);
  std::vector<Lit> level(x.begin(), x.end());
  while (level.size() > 1) {
    std::vector<Lit> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(altXor(aig, level[i], level[i + 1]));
    }
    if (level.size() % 2 != 0) next.push_back(level.back());
    level = std::move(next);
  }
  return {chain, level[0]};
}

// A random AIG over `n_pis` PIs whose gates draw fanins from a small
// pool, so the cones hold many equivalent and constant nodes.
std::vector<Lit> randomRedundantAig(Aig& aig, std::uint64_t seed,
                                    std::uint32_t n_pis) {
  Rng rng(seed);
  std::vector<Lit> pool;
  for (std::uint32_t i = 0; i < n_pis; ++i) {
    pool.push_back(aig.addPi("x" + std::to_string(i)));
  }
  for (int i = 0; i < 300; ++i) {
    const Lit x = pool[rng.below(pool.size())] ^ rng.chance(1, 2);
    const Lit y = pool[rng.below(pool.size())] ^ rng.chance(1, 2);
    // Alternate realizations of AND, OR and XOR over the same fanins.
    switch (rng.below(3)) {
      case 0: pool.push_back(aig.addAnd(x, y)); break;
      case 1: pool.push_back(aig.mkXor(x, y)); break;
      default: pool.push_back(altXor(aig, x, y)); break;
    }
  }
  std::vector<Lit> roots;
  for (int i = 0; i < 12; ++i) roots.push_back(pool[pool.size() - 1 - 7 * i]);
  return roots;
}

// Root values of `aig` under every assignment of its PIs (<= 12 of them).
std::vector<std::vector<bool>> truthTables(const Aig& aig,
                                           std::span<const Lit> roots) {
  std::vector<std::vector<bool>> tables(roots.size());
  const std::uint32_t n = aig.numPis();
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    std::vector<bool> value(aig.numNodes(), false);
    for (std::uint32_t v = 1; v < aig.numNodes(); ++v) {
      if (aig.isPi(v)) {
        value[v] = (m >> aig.piIndex(v)) & 1;
      } else {
        const Lit f0 = aig.fanin0(v);
        const Lit f1 = aig.fanin1(v);
        value[v] = (value[f0.var()] ^ f0.complemented()) &&
                   (value[f1.var()] ^ f1.complemented());
      }
    }
    for (std::size_t r = 0; r < roots.size(); ++r) {
      tables[r].push_back(value[roots[r].var()] ^ roots[r].complemented());
    }
  }
  return tables;
}

TEST(Compress, DifferentlyAssociatedParityTreesCollapse) {
  Aig aig;
  std::vector<Lit> x;
  for (int i = 0; i < 10; ++i) x.push_back(aig.addPi("x" + std::to_string(i)));
  const auto [chain, tree] = twoParityTrees(aig, x);
  ASSERT_NE(chain, tree);
  const std::vector<Lit> roots{chain, tree};
  fraig::Stats stats;
  const std::vector<Lit> out = fraig::compressCones(aig, roots, {}, &stats);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_GT(stats.sat_queries, 0u);
  EXPECT_LE(coneAndCount(aig, out), coneAndCount(aig, roots));
}

class CompressRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompressRandom, RootsKeepTheirFunctions) {
  Aig aig;
  const std::vector<Lit> roots = randomRedundantAig(aig, GetParam(), 10);
  const auto before = truthTables(aig, roots);
  fraig::Options options;
  options.seed = GetParam();
  const std::vector<Lit> out = fraig::compressCones(aig, roots, options);
  EXPECT_EQ(truthTables(aig, out), before);
  EXPECT_LT(coneAndCount(aig, out), coneAndCount(aig, roots));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompressRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Compress, ZeroBudgetKeepsAbandonedNodes) {
  Aig aig;
  std::vector<Lit> x;
  for (int i = 0; i < 10; ++i) x.push_back(aig.addPi("x" + std::to_string(i)));
  const auto [chain, tree] = twoParityTrees(aig, x);
  const std::vector<Lit> roots{chain, tree};
  const std::uint32_t nodes = aig.numNodes();
  fraig::Options options;
  options.conflict_budget = 0;
  fraig::Stats stats;
  const std::vector<Lit> out = fraig::compressCones(aig, roots, options, &stats);
  EXPECT_GT(stats.sat_queries, 0u);
  EXPECT_EQ(out, roots);
  EXPECT_EQ(aig.numNodes(), nodes);
}

TEST(Compress, CopiesOfOneGraphGiveIdenticalLiterals) {
  Aig first;
  const std::vector<Lit> roots = randomRedundantAig(first, 11, 12);
  Aig second = first;
  const std::vector<Lit> a = fraig::compressCones(first, roots);
  const std::vector<Lit> b = fraig::compressCones(second, roots);
  EXPECT_EQ(a, b);
  EXPECT_EQ(first.numNodes(), second.numNodes());
}

// The two 64-stage parity chains of TopologicalSweepReusesFaninProofs.
// Once stage i-1 has merged, stage i's miter is over the same two fanin
// literals, so each stage needs two queries of a few conflicts each (252
// conflicts in all, against about 400 for the class sweep).
TEST(Compress, ParityChainsMergeStageByStage) {
  Aig aig;
  std::vector<Lit> x;
  for (int i = 0; i < 64; ++i) x.push_back(aig.addPi("x" + std::to_string(i)));
  Lit a = x[0];
  Lit b = x[0];
  for (int i = 1; i < 64; ++i) {
    a = aig.mkXor(a, x[i]);
    b = altXor(aig, b, x[i]);
  }
  const std::vector<Lit> roots{a, b};
  fraig::Stats stats;
  const std::vector<Lit> out = fraig::compressCones(aig, roots, {}, &stats);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(coneAndCount(aig, out), 3u * 63);
  EXPECT_LE(stats.sat_queries, 2u * 63);
  EXPECT_LE(stats.sat_conflicts, 5u * 63);
}

// Property: on random AIGs, every merge FRAIG reports is a true functional
// equivalence (exhaustively checked over up to 2^10 inputs).
class FraigRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FraigRandom, MergesAreSound) {
  Rng rng(GetParam());
  Aig aig;
  const std::uint32_t n_pis = 6;
  for (std::uint32_t i = 0; i < n_pis; ++i) aig.addPi("x" + std::to_string(i));
  std::vector<Lit> pool;
  for (std::uint32_t i = 0; i < n_pis; ++i) pool.push_back(aig.piLit(i));
  for (int i = 0; i < 120; ++i) {
    const Lit x = pool[rng.below(pool.size())] ^ rng.chance(1, 2);
    const Lit y = pool[rng.below(pool.size())] ^ rng.chance(1, 2);
    const Lit n = aig.addAnd(x, y);
    pool.push_back(n);
  }
  std::vector<Lit> roots;
  for (int i = 0; i < 8; ++i) roots.push_back(pool[pool.size() - 1 - i]);
  for (const Lit r : roots) aig.addPo(r, "");

  const fraig::EquivClasses classes = fraig::computeEquivClasses(aig, roots);
  // Exhaustive soundness check for every merged node in the cones.
  const std::vector<std::uint32_t> cone = collectCone(aig, roots);
  for (std::uint32_t m = 0; m < (1u << n_pis); ++m) {
    std::vector<bool> in(n_pis);
    for (std::uint32_t i = 0; i < n_pis; ++i) in[i] = (m >> i) & 1;
    // Evaluate all nodes.
    std::vector<bool> value(aig.numNodes(), false);
    for (std::uint32_t v = 1; v < aig.numNodes(); ++v) {
      if (aig.isPi(v)) {
        value[v] = in[aig.piIndex(v)];
      } else {
        const Lit f0 = aig.fanin0(v);
        const Lit f1 = aig.fanin1(v);
        value[v] = (value[f0.var()] ^ f0.complemented()) &&
                   (value[f1.var()] ^ f1.complemented());
      }
    }
    for (const std::uint32_t v : cone) {
      const Lit nl = classes.normalize(Lit::fromVar(v, false));
      if (nl.var() == v) continue;  // representative
      const bool rep_val = value[nl.var()] ^ nl.complemented();
      ASSERT_EQ(value[v], rep_val) << "node " << v << " minterm " << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FraigRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace eco

#include "benchgen/faults.h"

#include <algorithm>

#include "aig/aig_ops.h"
#include "base/check.h"
#include "base/rng.h"

namespace eco::benchgen {
namespace {

/// Node-by-node copy of `src` into `dst`. PI k must already exist in `dst`
/// and is seeded to `pi_map[k]` (complemented seeds implement polarity
/// faults). When `flip_node` names an AND node of `src`, its fanin0 edge is
/// copied complemented. PO drivers and named internal signals are
/// re-registered (names of nodes that constant-fold away are dropped);
/// `prefix` is prepended to PO and internal-signal names for tiling.
void copyWithEdits(const Aig& src, Aig& dst, std::span<const Lit> pi_map,
                   std::uint32_t flip_node, const std::string& prefix) {
  VarMap map;
  map[0] = kFalse;  // constant-driven POs in tiny/shrunk units
  for (std::uint32_t i = 0; i < src.numPis(); ++i) map[src.piVar(i)] = pi_map[i];
  for (std::uint32_t v = 1; v < src.numNodes(); ++v) {
    if (!src.isAnd(v)) continue;
    const Lit f0 = src.fanin0(v);
    const Lit f1 = src.fanin1(v);
    Lit a = map.at(f0.var()) ^ f0.complemented();
    const Lit b = map.at(f1.var()) ^ f1.complemented();
    if (v == flip_node) a = !a;
    map[v] = dst.addAnd(a, b);
  }
  for (std::uint32_t j = 0; j < src.numPos(); ++j) {
    const Lit d = src.poDriver(j);
    dst.addPo(map.at(d.var()) ^ d.complemented(), prefix + src.poName(j));
  }
  for (const auto& [name, lit] : src.namedSignals()) {
    const auto it = map.find(lit.var());
    if (it == map.end()) continue;
    const Lit nl = it->second ^ lit.complemented();
    if (nl == kTrue || nl == kFalse || !dst.isAnd(nl.var())) continue;
    dst.setSignalName(nl, prefix + name);
  }
}

UnitSpec unitFromFuzz(const FuzzSpec& fs, std::uint64_t seed_salt,
                      const std::string& name) {
  UnitSpec u;
  u.name = name;
  u.family = fs.family;
  u.size_param = fs.size_param;
  u.num_targets = fs.num_targets;
  u.seed = fs.seed + seed_salt;
  u.target_depth_frac = fs.target_depth_frac;
  u.restructure_pct = fs.restructure_pct;
  // The shrinker drives size_param toward the family minimum; clamp the
  // target count to the eligible (live AND) nodes so generateUnit never
  // trips its more-targets-than-nodes invariant.
  std::vector<Lit> roots;
  const Aig golden = buildGolden(u);
  for (std::uint32_t j = 0; j < golden.numPos(); ++j) {
    roots.push_back(golden.poDriver(j));
  }
  std::uint32_t live_ands = 0;
  for (const std::uint32_t v : collectCone(golden, roots)) {
    if (golden.isAnd(v)) ++live_ands;
  }
  u.num_targets = std::min(u.num_targets, std::max(1u, live_ands));
  return u;
}

/// Rebuilds `inst.faulty` with per-target-PI polarity seeds and an optional
/// fanin flip, preserving names. X PIs keep identity.
void rewriteFaulty(EcoInstance& inst, bool complement_targets,
                   std::uint32_t flip_node) {
  const Aig src = std::move(inst.faulty);
  Aig dst;
  std::vector<Lit> pi_map;
  for (std::uint32_t i = 0; i < src.numPis(); ++i) {
    const Lit pi = dst.addPi(src.piName(i));
    pi_map.push_back(complement_targets && i >= inst.num_x ? !pi : pi);
  }
  copyWithEdits(src, dst, pi_map, flip_node, "");
  inst.faulty = std::move(dst);
}

/// Picks a live AND node of the faulty circuit (inside some PO cone) for a
/// fanin flip; returns 0 when there is none.
std::uint32_t pickFlipNode(const Aig& f, Rng& rng) {
  std::vector<Lit> roots;
  for (std::uint32_t j = 0; j < f.numPos(); ++j) roots.push_back(f.poDriver(j));
  std::vector<std::uint32_t> ands;
  for (const std::uint32_t v : collectCone(f, roots)) {
    if (f.isAnd(v)) ands.push_back(v);
  }
  if (ands.empty()) return 0;
  return ands[rng.below(ands.size())];
}

}  // namespace

EcoInstance tileInstances(const std::vector<EcoInstance>& parts,
                          const std::string& name) {
  EcoInstance out;
  out.name = name;

  // Combined PI frames, X first then targets.
  std::vector<std::vector<Lit>> f_pi_map(parts.size());
  std::vector<std::vector<Lit>> g_pi_map(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::string prefix = "u" + std::to_string(p) + "_";
    f_pi_map[p].resize(parts[p].faulty.numPis());
    g_pi_map[p].resize(parts[p].golden.numPis());
    for (std::uint32_t i = 0; i < parts[p].num_x; ++i) {
      const std::string pi_name = prefix + parts[p].faulty.piName(i);
      f_pi_map[p][i] = out.faulty.addPi(pi_name);
      g_pi_map[p][i] = out.golden.addPi(pi_name);
    }
  }
  out.num_x = out.faulty.numPis();
  std::uint32_t t_global = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (std::uint32_t k = 0; k < parts[p].numTargets(); ++k) {
      f_pi_map[p][parts[p].targetPi(k)] =
          out.faulty.addPi("t" + std::to_string(t_global++));
    }
  }

  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::string prefix = "u" + std::to_string(p) + "_";
    copyWithEdits(parts[p].faulty, out.faulty, f_pi_map[p], 0, prefix);
    copyWithEdits(parts[p].golden, out.golden, g_pi_map[p], 0, prefix);
    for (const auto& [sig, w] : parts[p].weights) out.weights[prefix + sig] = w;
    out.default_weight = parts[p].default_weight;
  }
  return out;
}

const char* faultModeName(FaultMode mode) {
  switch (mode) {
    case FaultMode::CleanCut: return "clean-cut";
    case FaultMode::GateFlip: return "gate-flip";
    case FaultMode::WrongPolarity: return "wrong-polarity";
    case FaultMode::DeadTarget: return "dead-target";
    case FaultMode::MultiClusterTile: return "multi-cluster-tile";
  }
  return "?";
}

std::string describeSpec(const FuzzSpec& spec) {
  std::string s = "seed=" + std::to_string(spec.seed);
  s += " mode=" + std::string(faultModeName(spec.mode));
  s += " family=" + std::to_string(static_cast<int>(spec.family));
  s += " size=" + std::to_string(spec.size_param);
  s += " targets=" + std::to_string(spec.num_targets);
  if (spec.num_tiles > 1) s += " tiles=" + std::to_string(spec.num_tiles);
  s += " restructure=" + std::to_string(spec.restructure_pct);
  s += " depth=" + std::to_string(spec.target_depth_frac);
  return s;
}

FuzzSpec randomFuzzSpec(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x51CA7EULL);
  FuzzSpec spec;
  spec.seed = seed;

  struct FamilyRange {
    Family family;
    std::uint32_t lo, hi;
  };
  // Small units only: the harness runs thousands of instances per sweep.
  static constexpr FamilyRange kFamilies[] = {
      {Family::Adder, 2, 6},        {Family::Comparator, 2, 8},
      {Family::MuxTree, 2, 3},      {Family::Alu, 2, 4},
      {Family::Parity, 3, 10},      {Family::Random, 40, 160},
      {Family::Multiplier, 2, 3},   {Family::PriorityEnc, 3, 10},
  };
  const FamilyRange& fr = kFamilies[rng.below(std::size(kFamilies))];
  spec.family = fr.family;
  spec.size_param = static_cast<std::uint32_t>(rng.range(fr.lo, fr.hi));
  spec.num_targets = static_cast<std::uint32_t>(
      rng.range(1, spec.family == Family::Random ? 4 : 3));
  spec.restructure_pct = static_cast<std::uint32_t>(rng.below(31));
  const double depths[] = {0.0, 0.0, 0.3, 0.5};
  spec.target_depth_frac = depths[rng.below(std::size(depths))];

  const std::uint64_t roll = rng.below(100);
  if (roll < 30) {
    spec.mode = FaultMode::CleanCut;
  } else if (roll < 50) {
    spec.mode = FaultMode::GateFlip;
  } else if (roll < 70) {
    spec.mode = FaultMode::WrongPolarity;
  } else if (roll < 80) {
    spec.mode = FaultMode::DeadTarget;
  } else {
    spec.mode = FaultMode::MultiClusterTile;
    spec.num_tiles = static_cast<std::uint32_t>(rng.range(2, 3));
  }
  return spec;
}

FuzzInstance generateFuzzInstance(const FuzzSpec& spec) {
  FuzzInstance out;
  out.spec = spec;
  Rng rng(spec.seed ^ 0xF00DF00DULL);
  const std::string name =
      "fuzz-" + std::to_string(spec.seed) + "-" + faultModeName(spec.mode);

  if (spec.mode == FaultMode::MultiClusterTile) {
    std::vector<EcoInstance> parts;
    const std::uint32_t tiles = std::max(1u, spec.num_tiles);
    for (std::uint32_t p = 0; p < tiles; ++p) {
      FuzzSpec part = spec;
      // Vary the tiles so clusters differ in family and difficulty.
      if (p > 0) {
        const FuzzSpec var = randomFuzzSpec(spec.seed * 1000003ULL + p);
        part.family = var.family;
        part.size_param = var.size_param;
        part.num_targets = var.num_targets;
      }
      parts.push_back(
          generateUnit(unitFromFuzz(part, p * 77ULL, "tile" + std::to_string(p))));
    }
    out.instance = tileInstances(parts, name);
    out.known_rectifiable = true;
    return out;
  }

  out.instance = generateUnit(unitFromFuzz(spec, 0, name));
  out.instance.name = name;
  switch (spec.mode) {
    case FaultMode::CleanCut:
    case FaultMode::MultiClusterTile:
      break;
    case FaultMode::WrongPolarity:
      rewriteFaulty(out.instance, /*complement_targets=*/true, /*flip_node=*/0);
      break;
    case FaultMode::GateFlip: {
      const std::uint32_t node = pickFlipNode(out.instance.faulty, rng);
      if (node != 0) {
        rewriteFaulty(out.instance, /*complement_targets=*/false, node);
        out.known_rectifiable = false;  // unknown, not necessarily irreparable
      }
      break;
    }
    case FaultMode::DeadTarget: {
      Aig& f = out.instance.faulty;
      f.addPi("t" + std::to_string(out.instance.numTargets()));
      break;
    }
  }
  ECO_CHECK(out.instance.numTargets() >= 1);
  return out;
}

EcoInstance cofactorPi(const EcoInstance& inst, std::uint32_t x_index,
                       bool value) {
  ECO_CHECK(x_index < inst.num_x);
  EcoInstance out;
  out.name = inst.name;
  out.num_x = inst.num_x - 1;
  out.weights = inst.weights;
  out.default_weight = inst.default_weight;
  const Lit constant = value ? kTrue : kFalse;

  std::vector<Lit> f_map;
  for (std::uint32_t i = 0; i < inst.faulty.numPis(); ++i) {
    f_map.push_back(i == x_index ? constant
                                 : out.faulty.addPi(inst.faulty.piName(i)));
  }
  copyWithEdits(inst.faulty, out.faulty, f_map, 0, "");

  std::vector<Lit> g_map;
  for (std::uint32_t i = 0; i < inst.golden.numPis(); ++i) {
    g_map.push_back(i == x_index ? constant
                                 : out.golden.addPi(inst.golden.piName(i)));
  }
  copyWithEdits(inst.golden, out.golden, g_map, 0, "");
  return out;
}

}  // namespace eco::benchgen

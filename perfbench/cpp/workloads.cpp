#include "workloads.h"

#include "aig/aig_ops.h"
#include "benchgen/benchgen.h"
#include "benchgen/faults.h"

namespace perfbench {
namespace {

using eco::benchgen::Family;
using eco::benchgen::UnitSpec;

/// Seeded Fisher-Yates shuffle on splitmix64: the documented order at
/// kDefaultSeed, a seed-determined permutation otherwise. The seed orders
/// the work but does not re-draw it, so every seed runs the same instances
/// and the metrics stay comparable across seeds.
template <typename T>
void permute(std::vector<T>& items, std::uint64_t seed) {
  if (seed == kDefaultSeed) return;
  std::uint64_t state = seed;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[next() % i]);
  }
}

BenchInstance serialize(const eco::EcoInstance& inst, bool known_rectifiable) {
  return {inst.name, eco::io::saveInstance(inst), known_rectifiable};
}

/// Splices independent units into one instance: every part's X inputs
/// first (num_x stays a prefix), then every part's targets. Names get a
/// "uN_" prefix ('/' is not a Verilog identifier character), so each part
/// keeps its own outputs and clusters.
eco::EcoInstance tile(const std::vector<eco::EcoInstance>& parts,
                      std::string name) {
  eco::EcoInstance out;
  out.name = std::move(name);
  std::vector<eco::VarMap> fmap(parts.size()), gmap(parts.size());
  const auto prefix = [](std::size_t i) { return 'u' + std::to_string(i) + '_'; };
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const eco::EcoInstance& p = parts[i];
    for (std::uint32_t x = 0; x < p.num_x; ++x) {
      const std::string nm = prefix(i) + p.faulty.piName(x);
      fmap[i][p.faulty.piVar(x)] = out.faulty.addPi(nm);
      gmap[i][p.golden.piVar(x)] = out.golden.addPi(nm);
    }
    out.num_x += p.num_x;
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const eco::EcoInstance& p = parts[i];
    for (std::uint32_t k = p.num_x; k < p.faulty.numPis(); ++k) {
      fmap[i][p.faulty.piVar(k)] = out.faulty.addPi(prefix(i) + p.faulty.piName(k));
    }
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const eco::EcoInstance& p = parts[i];
    const auto copyPos = [&](const eco::Aig& src, eco::VarMap& map, eco::Aig& dst) {
      std::vector<eco::Lit> roots;
      for (std::uint32_t j = 0; j < src.numPos(); ++j) roots.push_back(src.poDriver(j));
      const std::vector<eco::Lit> copied = eco::copyCones(src, roots, map, dst);
      for (std::uint32_t j = 0; j < copied.size(); ++j) {
        dst.addPo(copied[j], prefix(i) + src.poName(j));
      }
    };
    copyPos(p.faulty, fmap[i], out.faulty);
    copyPos(p.golden, gmap[i], out.golden);
    for (const auto& [nm, lit] : p.faulty.namedSignals()) {
      const auto it = fmap[i].find(lit.var());
      if (it != fmap[i].end()) {
        out.faulty.setSignalName(it->second ^ lit.complemented(), prefix(i) + nm);
      }
    }
    for (const auto& [nm, w] : p.weights) out.weights[prefix(i) + nm] = w;
  }
  return out;
}

std::vector<BenchInstance> contest20(std::uint64_t seed) {
  std::vector<BenchInstance> out;
  for (const UnitSpec& spec : eco::benchgen::contestSuite()) {
    out.push_back(serialize(eco::benchgen::generateUnit(spec), true));
  }
  permute(out, seed);
  return out;
}

std::vector<BenchInstance> tiledParity(std::uint64_t seed) {
  std::vector<eco::EcoInstance> parts;
  for (std::uint64_t i = 0; i < 6; ++i) {
    parts.push_back(eco::benchgen::generateUnit({.name = 'p' + std::to_string(i),
                                                 .family = Family::Parity,
                                                 .size_param = 16,
                                                 .num_targets = 5,
                                                 .seed = 900 + i}));
  }
  permute(parts, seed);
  return {serialize(tile(parts, "tiled_parity"), true)};
}

std::vector<BenchInstance> wideNetlist(std::uint64_t seed) {
  const UnitSpec specs[] = {
      {.name = "prio256_s7", .family = Family::PriorityEnc, .size_param = 256,
       .num_targets = 1, .seed = 7},
      {.name = "prio256_s11", .family = Family::PriorityEnc, .size_param = 256,
       .num_targets = 1, .seed = 11},
      {.name = "adder512_s7", .family = Family::Adder, .size_param = 512,
       .num_targets = 1, .seed = 7},
  };
  std::vector<BenchInstance> out;
  for (const UnitSpec& spec : specs) {
    out.push_back(serialize(eco::benchgen::generateUnit(spec), true));
  }
  permute(out, seed);
  return out;
}

/// Fuzz instances randomFuzzSpec(1 .. kFuzzCount), the start of the fuzz
/// harness's default sweep.
constexpr std::uint64_t kFuzzCount = 40;

std::vector<BenchInstance> fuzzMix(std::uint64_t seed) {
  std::vector<BenchInstance> out;
  for (std::uint64_t s = 1; s <= kFuzzCount; ++s) {
    const eco::benchgen::FuzzInstance fi =
        eco::benchgen::generateFuzzInstance(eco::benchgen::randomFuzzSpec(s));
    out.push_back(serialize(fi.instance, fi.known_rectifiable));
  }
  permute(out, seed);
  return out;
}

}  // namespace

eco::EcoOptions Workload::options() const {
  eco::EcoOptions o;
  o.num_threads = threads;
  o.use_cost_opt = cost_opt;
  o.check_level = eco::check::Level::kOff;
  return o;
}

const std::vector<std::string_view>& workloadNames() {
  static const std::vector<std::string_view> names = {"contest20", "tiled_parity",
                                                      "wide_netlist", "fuzz_mix"};
  return names;
}

std::optional<Workload> makeWorkload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  if (name == "contest20") {
    w.expected_dominant = "opt";
    w.one_pass = true;
    w.instances = contest20(seed);
  } else if (name == "tiled_parity") {
    w.threads = 3;
    w.cost_opt = false;
    w.expected_dominant = "patchgen";
    w.instances = tiledParity(seed);
  } else if (name == "wide_netlist") {
    w.threads = 3;
    w.expected_dominant = "fraig+verify";
    w.instances = wideNetlist(seed);
  } else if (name == "fuzz_mix") {
    w.threads = 3;
    w.instances = fuzzMix(seed);
  } else {
    return std::nullopt;
  }
  return w;
}

}  // namespace perfbench

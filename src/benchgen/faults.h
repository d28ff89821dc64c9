#pragma once
// Seeded fault injection for the fuzzing harness (src/qa).
//
// generateUnit always produces instances that are rectifiable by
// construction — good for regression suites, useless for probing the
// engine's unrectifiability reasoning or its agreement across
// configurations. This layer draws a random generation spec from a single
// seed and mutates the clean instance with one of several fault modes:
//
//   CleanCut        — the plain generateUnit cut (rectifiable)
//   GateFlip        — additionally complements one AND fanin edge of the
//                     faulty circuit; rectifiability becomes unknown
//   WrongPolarity   — every fanout of each target pseudo-PI reads it
//                     complemented (rectifiable: patches invert)
//   DeadTarget      — one extra floating pseudo-PI reaching no output
//                     (rectifiable: its patch is arbitrary)
//   MultiClusterTile— a disjoint tiling of independent sub-units sharing
//                     nothing; exercises clustering and the parallel
//                     per-cluster paths (rectifiable)
//
// Everything is deterministic in the seed, which is what makes shrinking
// (src/qa/shrink) and corpus replay possible.

#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/benchgen.h"
#include "eco/instance.h"

namespace eco::benchgen {

enum class FaultMode : std::uint8_t {
  CleanCut = 0,
  GateFlip,
  WrongPolarity,
  DeadTarget,
  MultiClusterTile,
};

const char* faultModeName(FaultMode mode);

/// Generation parameters of one fuzz instance. The shrinker mutates these
/// fields, so keep them individually reducible.
struct FuzzSpec {
  std::uint64_t seed = 1;
  FaultMode mode = FaultMode::CleanCut;
  Family family = Family::Adder;
  std::uint32_t size_param = 4;
  std::uint32_t num_targets = 1;
  std::uint32_t num_tiles = 1;  ///< > 1 only meaningful for MultiClusterTile
  std::uint32_t restructure_pct = 10;
  double target_depth_frac = 0.0;
};

/// One-line human-readable description (for logs and reproducer metadata).
std::string describeSpec(const FuzzSpec& spec);

/// Draws a spec from the fuzz distribution: small units across all
/// families, 1–4 targets, all fault modes. Deterministic in `seed`.
FuzzSpec randomFuzzSpec(std::uint64_t seed);

struct FuzzInstance {
  FuzzSpec spec;
  EcoInstance instance;
  /// True when the construction guarantees a patch exists; false means
  /// rectifiability is unknown and only cross-configuration agreement and
  /// witness validity can be checked.
  bool known_rectifiable = true;
};

/// Generates the instance of a spec (deterministic).
FuzzInstance generateFuzzInstance(const FuzzSpec& spec);

/// Disjoint tiling: concatenates `parts` into one instance. The faulty PIs
/// are every part's X inputs (part order), then all targets renamed
/// t0, t1, ... in part order, as EcoInstance requires. PI, PO, internal
/// signal and weight names get the prefix "u<part>_". Each part keeps its
/// own output cones, so clustering finds at least one cluster per part.
EcoInstance tileInstances(const std::vector<EcoInstance>& parts, const std::string& name);

/// Cofactors X input `x_index` of both circuits to `value` and drops the
/// input. Preserves rectifiability (any patch restricts), PO counts, and
/// signal names of surviving nodes. The shrinker's "drop PIs" move.
EcoInstance cofactorPi(const EcoInstance& instance, std::uint32_t x_index,
                       bool value);

}  // namespace eco::benchgen

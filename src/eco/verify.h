#pragma once
// Patch application and SAT-based equivalence verification.
//
// The decisive soundness check of the whole flow: substitute the patch
// functions for the target pseudo-PIs inside the workspace and prove the
// patched faulty outputs equivalent to the golden outputs with a miter.
//
// The engine checks only the outputs a patch can change. clusterTargets
// unites every pair of targets that reach a common output, so a cluster's
// outputs depend on its own targets' patches alone, and base signals lie
// outside every target's fanout. An output in no cluster contains no target
// pseudo-PI, so substitution leaves it unchanged; the engine proves those
// before patch generation (FRAIG classes, then the same miter with no
// patches).

#include <cstdint>
#include <span>
#include <vector>

#include "eco/patchgen.h"
#include "eco/relations.h"

namespace eco {

/// Copies a standalone patch cone into the workspace, mapping each patch PI
/// to its signal's workspace function. Returns the patch's w literal.
Lit composePatchInWorkspace(Workspace& ws, const TargetPatch& patch);

struct VerifyOutcome {
  bool equivalent = false;
  /// On inequivalence: a distinguishing X assignment and the first PO index
  /// observed to differ under it.
  std::vector<bool> cex_inputs;
  std::uint32_t failing_output = 0;
};

/// Verifies that substituting `patches` (one per target, any order; targets
/// not covered stay floating and make verification fail unless irrelevant)
/// makes the faulty outputs `outputs` (PO indices, ascending) equivalent to
/// their golden counterparts, with one miter and one solver. On failure,
/// `failing_output` is a PO index of the circuit, not a position in
/// `outputs`. An empty `outputs` builds no miter and is equivalent.
VerifyOutcome verifyPatches(Workspace& ws, std::span<const TargetPatch> patches,
                            std::span<const std::uint32_t> outputs);

/// Point-evaluates the patched faulty circuit on one X assignment: base
/// signal values are computed from the faulty circuit (they never depend on
/// targets), fed through the patch network, and the resulting target values
/// are applied. Reference semantics for tests and examples.
std::vector<bool> evaluatePatched(const EcoInstance& instance,
                                  const PatchResult& result,
                                  const std::vector<bool>& x);

}  // namespace eco

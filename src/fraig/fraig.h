#pragma once
// FRAIG-style functional equivalence class computation (the FRAIG stage of
// the paper's flow, Fig. 1).
//
// Candidate classes come from word-parallel random simulation; candidates
// are confirmed by incremental SAT (miter per pair) and refuted
// counterexamples are fed back as new simulation patterns until the classes
// stabilize. Complemented equivalences (a == !b) are handled by canonical
// signature phase.
//
// The ECO flow runs this on a combined AIG holding both the faulty and the
// golden cones over shared PIs; signals of the two circuits falling into
// one class are exactly the paper's "shared equivalent signals".

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.h"

namespace eco {
class ThreadPool;
}  // namespace eco

namespace eco::fraig {

struct Options {
  std::uint32_t sim_words = 8;        ///< initial random pattern words (x64)
  std::uint32_t max_rounds = 64;      ///< refinement round cap
  std::int64_t conflict_budget = 10000;  ///< per-query SAT budget
  std::uint64_t seed = 0xECD5EEDULL;
  /// When non-null with >= 2 workers, each refinement round batches its
  /// candidate-pair SAT checks into fixed chunks of 32 pairs in
  /// (representative, candidate) order and runs the chunks concurrently,
  /// one fresh incremental sat::Solver per chunk; outcomes are merged at a
  /// deterministic barrier in pair order, so the refinement is reproducible
  /// and independent of the worker count. Null (or a 1-worker pool)
  /// selects the sequential path: one incremental solver for the whole
  /// call, pairs decided in ascending candidate (topological) order.
  ThreadPool* pool = nullptr;
};

/// Counters filled by computeEquivClasses and compressCones (per call, not
/// cumulative).
struct Stats {
  std::uint64_t sat_queries = 0;     ///< individual solve() calls issued
  std::uint32_t rounds = 0;          ///< refinement rounds executed
  std::uint64_t counterexamples = 0; ///< distinguishing patterns fed back
  std::uint64_t sat_conflicts = 0;   ///< conflicts of this call's solvers
};

class EquivClasses {
 public:
  explicit EquivClasses(std::uint32_t num_vars);

  /// Canonical literal of `l`'s proven equivalence class. Two literals are
  /// proven functionally equivalent iff their normalized literals coincide.
  Lit normalize(Lit l) const {
    const Lit r = repr_[l.var()];
    return r ^ l.complemented();
  }

  /// True iff `var` has a proven-equivalent node with a smaller index (or
  /// is equivalent to the constant).
  bool hasSmallerEquiv(std::uint32_t var) const {
    return repr_[var].var() != var;
  }

  void merge(std::uint32_t var, Lit repr);

  std::uint32_t numVars() const { return static_cast<std::uint32_t>(repr_.size()); }

 private:
  std::vector<Lit> repr_;  ///< indexed by var; representatives map to themselves
};

/// Computes proven equivalence classes among all nodes in the cones of
/// `roots` (constant node included, so stuck-at signals are detected).
/// `stats`, when non-null, receives this call's work counters.
EquivClasses computeEquivClasses(const Aig& aig, std::span<const Lit> roots,
                                 const Options& options = {},
                                 Stats* stats = nullptr);

/// Functionally reduces the cones of `roots` as an on-the-fly FRAIG: one
/// topological walk rebuilds every node with Aig::addAnd over its fanins'
/// reduced literals, so merges that have become structural are caught by
/// strashing. A new reduced node is simulated from its fanins and looked
/// up among the class representatives (the first reduced node of each
/// simulation class, the constant and the PIs included); on a match it is
/// SAT-checked against that representative alone, on one incremental
/// solver encoded over the reduced graph. Unsat merges it, a budget-out
/// keeps it unmerged, and a model becomes a new pattern bit before the
/// lookup is repeated. Returns the rebuilt root literals in the same
/// graph; `stats`, when non-null, receives this call's work counters
/// (`rounds` stays 0). The ECO engine uses this to damp the cone growth of
/// Algorithm 1's iterated substitutions. `options.pool` and
/// `options.max_rounds` are ignored.
std::vector<Lit> compressCones(Aig& aig, std::span<const Lit> roots,
                               const Options& options = {},
                               Stats* stats = nullptr);

}  // namespace eco::fraig

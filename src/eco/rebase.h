#pragma once
// Rebasing with functional dependency (Sec. 6.1, Eq. 12, Fig. 3).
//
// The oracle holds two CNF copies of the patch constraint: the A copy
// asserts the on-set (mu = 1) over inputs X, the B copy asserts the off-set
// (mu* = 0) over an independent input copy X*, and every base candidate
// b_i is encoded in both copies with a selection variable s_i adding
//   s_i -> (b_i == b_i*).
// A candidate base set is feasible — some function over it implements the
// patch — iff the formula is UNSAT under the unit assumptions selecting it.
// Counterexample enumeration over the Watch signals (Sec. 6.2.1) uses
// control variables to block witnessed on-side valuations. Each control
// variable is retired by the root unit ~c when its enumeration ends, so
// the blocks never outlive the enumeration that made them.
//
// Every Sat model of the oracle is a collision: an on-set input X and an
// off-set input X* that a base must tell apart. The oracle banks each
// distinct collision as two candidate bitsets (the candidates whose A and
// B values differ; the A values). A banked collision whose differing set
// misses `selected` is a model of a later enumeration over `selected`,
// since the root units ~c satisfy every retired block and learned clauses
// hold in every model. enumerateCex therefore reads the patterns these
// collisions imply first and asks the solver only for the rest; run to
// completion, it returns the same pattern set either way.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "eco/candidates.h"
#include "sat/solver.h"

namespace eco {

class RebaseOracle {
 public:
  /// `on_w`/`off_w` must be functions of the workspace X inputs only;
  /// candidate functions likewise.
  RebaseOracle(const Workspace& ws, Lit on_w, Lit off_w,
               std::span<const Candidate> candidates);

  std::uint32_t numCandidates() const {
    return static_cast<std::uint32_t>(sel_.size());
  }

  /// True iff the selected candidate subset can implement the patch.
  /// Undecided (budgeted) queries conservatively report false.
  bool feasible(std::span<const std::uint32_t> selected);

  /// After a feasible() == true: the subset of `selected` that the solver
  /// actually used to derive infeasibility of a collision (an unsat core —
  /// itself a feasible base).
  const std::vector<std::uint32_t>& lastCore() const { return last_core_; }

  /// Counterexample enumeration (Sec. 6.2.1): with `selected` assumed,
  /// enumerates distinct on-side valuations of the `watch` candidates
  /// (bit i of a pattern = value of watch[i] in the A copy), blocking each
  /// with a fresh control variable. Patterns implied by banked collisions
  /// come first, in bank order, then the solver's. Stops at `max_cex`
  /// patterns or once all 2^|watch| are found. The control variables are
  /// retired (fixed false at the root) on return.
  std::vector<std::uint64_t> enumerateCex(std::span<const std::uint32_t> selected,
                                          std::span<const std::uint32_t> watch,
                                          std::uint32_t max_cex);

  std::uint64_t numConflicts() const { return solver_.numConflicts(); }
  std::uint64_t numDecisions() const { return solver_.numDecisions(); }
  /// Solver calls made by feasible() and enumerateCex() so far.
  std::uint64_t numSolves() const { return solves_; }

 private:
  /// Banks the solver's current Sat model unless an equal entry exists.
  void bankModel();

  sat::Solver solver_;
  std::vector<sat::SLit> sel_;    ///< selection literal per candidate
  std::vector<sat::SLit> val_a_;  ///< candidate value in the on (A) copy
  std::vector<sat::SLit> val_b_;  ///< candidate value in the off (B) copy
  std::vector<std::uint32_t> last_core_;
  std::uint64_t solves_ = 0;
  std::size_t words_ = 0;  ///< 64-bit words per candidate bitset
  /// Collision bank, 2 * words_ words per entry: differing set, A values.
  std::vector<std::uint64_t> bank_;
  /// Entry hash -> entry start in bank_, for deduplication.
  std::unordered_multimap<std::uint64_t, std::size_t> bank_index_;
};

/// Synthesizes a patch function over the selected candidates by Craig
/// interpolation with fresh shared variables y_i == b_i (A side) and
/// y_i == b_i* (B side). Returns a standalone single-output AIG whose PI i
/// is the raw value of candidates[selected[i]], or nullopt when the query
/// does not refute within the budget (infeasible or budgeted out).
std::optional<Aig> synthesizeOverBase(const Workspace& ws, Lit on_w, Lit off_w,
                                      std::span<const Candidate> candidates,
                                      std::span<const std::uint32_t> selected,
                                      std::int64_t conflict_budget);

}  // namespace eco

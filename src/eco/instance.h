#pragma once
// Problem and result types for the multi-fix ECO engine.
//
// An instance follows the ICCAD 2017 contest formulation (Sec. 2.2): the
// faulty circuit F(X, T) has its pre-specified target signals T rewritten
// as floating pseudo-PIs; the golden circuit G(X) is the reference; every
// usable base signal of F carries a weight. A patch assigns each target a
// function over base signals of F such that F|_{T=P} == G.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/aig.h"
#include "check/check.h"

namespace eco {

struct EcoInstance {
  std::string name;

  /// Faulty circuit. PIs are the X inputs followed by the target
  /// pseudo-PIs; `num_x` X inputs come first.
  Aig faulty;
  std::uint32_t num_x = 0;

  /// Golden circuit over the same X inputs (same count and order) with the
  /// same number of POs in the same order.
  Aig golden;

  /// Weight of each base-candidate signal of F, keyed by signal name
  /// (PI names and named internal signals). Signals without an entry get
  /// `default_weight`.
  std::unordered_map<std::string, double> weights;
  double default_weight = 1.0;

  std::uint32_t numTargets() const { return faulty.numPis() - num_x; }
  /// PI index (in `faulty`) of target k.
  std::uint32_t targetPi(std::uint32_t k) const { return num_x + k; }
  const std::string& targetName(std::uint32_t k) const {
    return faulty.piName(targetPi(k));
  }
  double weightOf(const std::string& name) const {
    const auto it = weights.find(name);
    return it == weights.end() ? default_weight : it->second;
  }
};

/// One patch input: an existing signal of F, optionally complemented
/// (the inversion is realized inside the patch and counted in its size).
struct BaseRef {
  std::string name;   ///< F signal name (PI name or internal signal name)
  Lit lit;            ///< literal in the *faulty* AIG
  double weight = 0;  ///< cost of using this signal
  bool inverted = false;
};

/// One row of the per-stage table (run report v2): wall seconds, plus CPU
/// and allocation deltas that are process-wide over the stage window
/// (exact for a single engine, an upper bound with concurrent engines);
/// peak_rss_bytes is the monotonic process high-water mark observed at
/// stage end.
struct StageResource {
  std::string stage;
  double seconds = 0;
  double cpu_seconds = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
};

struct PatchResult {
  bool success = false;
  std::string message;
  /// On unrectifiability: an X assignment under which no target valuation
  /// (or no generated patch) reproduces the golden outputs.
  std::vector<bool> counterexample;
  /// When an invariant audit failed the run (message prefixed
  /// "internal error: invariant audit"): the full machine-readable
  /// AuditReport ("ecopatch-audit-report" JSON).
  std::string audit_json;

  /// Patch network: PI i corresponds to base[i]; PO k is the patch
  /// function of target k (named after the target).
  Aig patch;
  std::vector<BaseRef> base;

  double cost = 0;         ///< sum of base weights (contest cost metric)
  std::uint32_t size = 0;  ///< AND-gate count of the patch network
  double seconds = 0;      ///< wall-clock of the engine run

  // Stage statistics (for benches and EXPERIMENTS.md).
  std::uint32_t num_clusters = 0;
  std::uint32_t cut_size = 0;
  std::uint32_t initial_size = 0;
  double initial_cost = 0;
  std::uint32_t itp_failures = 0;  ///< Sec. 4.3 interpolation fallbacks
  std::uint64_t sat_conflicts = 0;

  // Per-stage wall-clock, copied from the `stage_resources` rows (0 for a
  // stage that did not run), and FRAIG solver-call counters.
  std::uint32_t num_threads_used = 1;   ///< resolved worker count of the run
  double fraig_seconds = 0;             ///< FRAIG sweeping stage
  double patchgen_seconds = 0;          ///< localization + patchgen + minimization
  double opt_seconds = 0;               ///< Sec. 6 cost optimization
  double verify_seconds = 0;            ///< sum of the three verify_* rows
  std::uint64_t fraig_sat_queries = 0;  ///< solve() calls in the FRAIG stage
  std::uint32_t fraig_rounds = 0;       ///< FRAIG walks: 1 if the stage ran, else 0

  // Resource attribution (run report v2 "resources" section); alloc
  // counters are 0 when the obs allocation hook is compiled out
  // (sanitizers, ECO_OBS_DISABLED). One disjoint row per stage that ran,
  // in run order; a run of 50 ms or more has at most max(5% of
  // `seconds`, 2 ms) outside them (DESIGN.md "Observability").
  std::vector<StageResource> stage_resources;
  std::uint64_t peak_rss_bytes = 0;            ///< process peak at run end
  double cpu_seconds = 0;                      ///< process CPU over the run
  std::uint64_t alloc_count = 0;               ///< operator new calls in the run
  std::uint64_t alloc_bytes = 0;               ///< bytes requested in the run
  /// Per-thread CPU seconds of threads registered at run end ("main",
  /// "pool-0", ...) — the pool is still alive at capture time.
  std::vector<std::pair<std::string, double>> thread_cpu_seconds;
};

/// Conflict budget of the interpolation solves in patch generation
/// (Sec. 4.3) and in synthesizeOverBase (cost optimization).
inline constexpr std::int64_t kItpConflictBudget = 200000;

struct EcoOptions {
  bool use_localization = true;  ///< Sec. 5 cut-based re-expression
  bool use_cost_opt = true;      ///< Sec. 6 rebase + base selection
  /// Try interpolation for the initial patch (may fail on multi-output
  /// conflicts, Sec. 4.3); fall back to the on-set function.
  bool try_interpolation_first = false;
  std::uint32_t watch_size = 5;  ///< beta, |Watch| (paper: 5)
  std::uint32_t opt_rounds = 2;  ///< optimization iterations over all targets
  std::uint32_t max_candidates = 160;  ///< cap on |B'| per rebase
  /// Cap on candidates whose counterexamples are enumerated per Watch round
  /// (Sec. 6.2 Step 2); bounds the dominant SAT cost of base selection.
  std::uint32_t max_step2_candidates = 48;
  /// When the working cones of Algorithm 1 exceed this many AND nodes, a
  /// FRAIG reduction pass (compressCones) collapses proven-equivalent
  /// structure; damps the growth of iterated on-set substitution.
  std::uint32_t compress_threshold = 3000;
  /// Run AIG minimization (flatten/rebalance + FRAIG sweep) on every patch
  /// function — the contest's secondary metric counts patch gates.
  bool minimize_patches = true;
  std::uint64_t seed = 0xC0FFEEULL;
  /// Restrict base candidates to the X primary inputs (the PI-support
  /// baseline proxy; see DESIGN.md).
  bool pi_candidates_only = false;
  /// Charge zero for a base signal another target's patch already pays for
  /// (the contest cost counts each distinct base signal once).
  bool account_shared_bases = true;
  /// Worker threads for FRAIG sweeping and per-cluster patch generation.
  /// 0 = one per hardware thread; 1 = the exact sequential legacy path.
  /// Results (patch, cost, size) are identical for every value — see the
  /// determinism contract in DESIGN.md.
  std::uint32_t num_threads = 0;
  /// Invariant-audit level for this run (src/check): stage-boundary
  /// checkpoints at kStage, plus per-GC solver audits and per-patch AIG
  /// audits at kParanoid. Defaults to the ECO_CHECK environment variable.
  check::Level check_level = check::levelFromEnv();
  /// Wall-clock budget for one run in seconds; 0 = unlimited. Checked at
  /// stage boundaries (a stage in flight is never interrupted): when
  /// exceeded the run fails with a "time budget exhausted" message and,
  /// if a postmortem path is configured, dumps a flight-recorder
  /// postmortem with reason "budget".
  double time_budget_seconds = 0;
};

}  // namespace eco

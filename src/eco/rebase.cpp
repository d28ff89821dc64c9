#include "eco/rebase.h"

#include <algorithm>
#include <unordered_set>

#include "base/check.h"
#include "cnf/cnf.h"
#include "itp/itp.h"
#include "obs/metrics.h"

namespace eco {

RebaseOracle::RebaseOracle(const Workspace& ws, Lit on_w, Lit off_w,
                           std::span<const Candidate> candidates) {
  cnf::SolverSink sink(solver_);
  cnf::CnfMap map_a, map_b;  // independent X copies
  for (const Lit x : ws.x_pis) {
    map_a[x.var()] = sat::SLit::make(solver_.newVar(), false);
    map_b[x.var()] = sat::SLit::make(solver_.newVar(), false);
  }
  // "p_k constraint" + "care set" halves (Fig. 3): the A copy must lie in
  // the on-set, the B copy in the off-set.
  const sat::SLit on = cnf::encodeCone(ws.w, on_w, map_a, sink);
  solver_.addClause({on});
  const sat::SLit off = cnf::encodeCone(ws.w, off_w, map_b, sink);
  solver_.addClause({off});

  sel_.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    const sat::SLit a = cnf::encodeCone(ws.w, c.w_fn, map_a, sink);
    const sat::SLit b = cnf::encodeCone(ws.w, c.w_fn, map_b, sink);
    const sat::SLit s = sat::SLit::make(solver_.newVar(), false);
    // s -> (a == b)
    solver_.addClause({~s, ~a, b});
    solver_.addClause({~s, a, ~b});
    sel_.push_back(s);
    val_a_.push_back(a);
    val_b_.push_back(b);
  }
  words_ = (sel_.size() + 63) / 64;
}

void RebaseOracle::bankModel() {
  const std::size_t start = bank_.size();
  bank_.resize(start + 2 * words_, 0);
  std::uint64_t* differ = bank_.data() + start;
  std::uint64_t* a_value = differ + words_;
  for (std::size_t i = 0; i < sel_.size(); ++i) {
    const bool a = solver_.modelValue(val_a_[i]) == sat::LBool::True;
    const bool b = solver_.modelValue(val_b_[i]) == sat::LBool::True;
    differ[i / 64] |= std::uint64_t{a != b} << (i % 64);
    a_value[i / 64] |= std::uint64_t{a} << (i % 64);
  }
  std::uint64_t hash = 0;
  for (std::size_t w = start; w < bank_.size(); ++w) {
    hash = (hash ^ bank_[w]) * 0x100000001b3u;
  }
  const auto [lo, hi] = bank_index_.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    if (std::equal(differ, differ + 2 * words_, bank_.data() + it->second)) {
      bank_.resize(start);  // already banked
      return;
    }
  }
  bank_index_.emplace(hash, start);
}

bool RebaseOracle::feasible(std::span<const std::uint32_t> selected) {
  std::vector<sat::SLit> assumptions;
  assumptions.reserve(selected.size());
  for (const std::uint32_t i : selected) {
    ECO_CHECK(i < sel_.size());
    assumptions.push_back(sel_[i]);
  }
  const sat::Status status = solver_.solve(assumptions);
  ++solves_;
  ECO_OBS_COUNT("rebase.feasible_solves", 1);
  if (status == sat::Status::Sat) bankModel();
  if (status != sat::Status::Unsat) return false;
  // Map the failed-assumption core back to candidate indices.
  last_core_.clear();
  std::unordered_map<std::uint32_t, std::uint32_t> index_of_var;
  for (const std::uint32_t i : selected) index_of_var[sel_[i].var()] = i;
  for (const sat::SLit l : solver_.failedAssumptions()) {
    const auto it = index_of_var.find(l.var());
    if (it != index_of_var.end()) last_core_.push_back(it->second);
  }
  if (last_core_.empty()) {
    // The formula is unsatisfiable without any selection (degenerate patch:
    // on-set or off-set empty). Any base works, including the empty one.
    last_core_.assign(selected.begin(), selected.end());
  }
  return true;
}

std::vector<std::uint64_t> RebaseOracle::enumerateCex(
    std::span<const std::uint32_t> selected, std::span<const std::uint32_t> watch,
    std::uint32_t max_cex) {
  ECO_CHECK(watch.size() <= 64);
  std::vector<sat::SLit> assumptions;
  std::vector<std::uint64_t> selected_mask(words_, 0);
  for (const std::uint32_t i : selected) {
    assumptions.push_back(sel_[i]);
    selected_mask[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  // Past 2^|watch| patterns nothing is left to enumerate.
  const std::uint64_t limit =
      watch.size() < 64
          ? std::min<std::uint64_t>(max_cex, std::uint64_t{1} << watch.size())
          : max_cex;

  std::vector<std::uint64_t> patterns;
  std::unordered_set<std::uint64_t> seen;
  std::vector<sat::Var> controls;
  // Block this on-side valuation under a fresh control variable
  // (Sec. 6.2.1): c -> OR_j (watch_j != pat_j).
  const auto block = [&](std::uint64_t pat) {
    patterns.push_back(pat);
    const sat::Var c = solver_.newVar();
    controls.push_back(c);
    std::vector<sat::SLit> clause{sat::SLit::make(c, true)};
    for (std::size_t j = 0; j < watch.size(); ++j) {
      const bool bit = (pat >> j) & 1;
      clause.push_back(bit ? ~val_a_[watch[j]] : val_a_[watch[j]]);
    }
    solver_.addClause(clause);
    assumptions.push_back(sat::SLit::make(c, false));
  };

  // Banked collisions whose differing set misses `selected`.
  for (std::size_t e = 0; e < bank_.size() && patterns.size() < limit;
       e += 2 * words_) {
    const std::uint64_t* differ = bank_.data() + e;
    bool model = true;
    for (std::size_t w = 0; w < words_ && model; ++w) {
      model = (differ[w] & selected_mask[w]) == 0;
    }
    if (!model) continue;
    const std::uint64_t* a_value = differ + words_;
    std::uint64_t pat = 0;
    for (std::size_t j = 0; j < watch.size(); ++j) {
      pat |= ((a_value[watch[j] / 64] >> (watch[j] % 64)) & 1) << j;
    }
    if (seen.insert(pat).second) block(pat);
  }
  const std::size_t banked = patterns.size();

  std::uint64_t solves = 0;
  while (patterns.size() < limit) {
    const sat::Status status = solver_.solve(assumptions);
    ++solves;
    if (status != sat::Status::Sat) break;  // Unsat: fully enumerated
    bankModel();
    std::uint64_t pat = 0;
    for (std::size_t j = 0; j < watch.size(); ++j) {
      if (solver_.modelValue(val_a_[watch[j]]) == sat::LBool::True) {
        pat |= std::uint64_t{1} << j;
      }
    }
    if (!seen.insert(pat).second) break;  // defensive: should be blocked
    block(pat);
  }
  solves_ += solves;
  ECO_OBS_COUNT("rebase.enumerate_solves", solves);
  ECO_OBS_COUNT("rebase.enumerate_banked", banked);
  // Retire this enumeration's controls: the root unit ~c satisfies each
  // blocking clause, so later queries never have to decide c again.
  // solve() returned at level 0, where clauses may be added.
  for (const sat::Var c : controls) solver_.addClause({sat::SLit::make(c, true)});
  return patterns;
}

std::optional<Aig> synthesizeOverBase(const Workspace& ws, Lit on_w, Lit off_w,
                                      std::span<const Candidate> candidates,
                                      std::span<const std::uint32_t> selected,
                                      std::int64_t conflict_budget) {
  itp::ItpJob job;
  cnf::CnfMap map_a, map_b;
  for (const Lit x : ws.x_pis) {
    map_a[x.var()] = sat::SLit::make(job.solver().newVar(), false);
    map_b[x.var()] = sat::SLit::make(job.solver().newVar(), false);
  }

  Aig result;
  const sat::SLit on = cnf::encodeCone(ws.w, on_w, map_a, job.sinkA());
  job.addClauseA({on});
  const sat::SLit off = cnf::encodeCone(ws.w, off_w, map_b, job.sinkB());
  job.addClauseB({off});

  for (const std::uint32_t i : selected) {
    const Candidate& c = candidates[i];
    const Lit pi = result.addPi(c.name);
    const sat::SLit a = cnf::encodeCone(ws.w, c.w_fn, map_a, job.sinkA());
    const sat::SLit b = cnf::encodeCone(ws.w, c.w_fn, map_b, job.sinkB());
    const sat::Var y = job.solver().newVar();
    const sat::SLit yl = sat::SLit::make(y, false);
    job.markShared(y, pi);
    // y == b_i in A, y == b_i* in B: y becomes the only interface.
    job.addClauseA({~yl, a});
    job.addClauseA({yl, ~a});
    job.addClauseB({~yl, b});
    job.addClauseB({yl, ~b});
  }

  if (job.solve(conflict_budget) != sat::Status::Unsat) return std::nullopt;
  const Lit out = job.buildInterpolant(result);
  result.addPo(out);
  return result;
}

}  // namespace eco

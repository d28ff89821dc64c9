#include "fraig/fraig.h"

#include <algorithm>
#include <unordered_map>

#include "aig/aig_ops.h"
#include "base/check.h"
#include "base/rng.h"
#include "cnf/cnf.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sat/solver.h"

namespace eco::fraig {

EquivClasses::EquivClasses(std::uint32_t num_vars) {
  repr_.reserve(num_vars);
  for (std::uint32_t v = 0; v < num_vars; ++v) {
    repr_.push_back(Lit::fromVar(v, false));
  }
}

void EquivClasses::merge(std::uint32_t var, Lit repr) {
  ECO_CHECK(repr.var() < var);
  ECO_CHECK_MSG(repr_[repr.var()].var() == repr.var(),
                "merge target must be a class representative");
  repr_[var] = repr;
}

namespace {

// 64-bit FNV-1a over the signature words.
std::uint64_t hashWords(std::span<const std::uint64_t> words, bool invert) {
  std::uint64_t h = 1469598103934665603ULL;
  const std::uint64_t m = invert ? ~std::uint64_t{0} : 0;
  for (const std::uint64_t w : words) {
    std::uint64_t x = w ^ m;
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// Canonical phase: complement the signature if its first bit is set, so a
// node and its complement land in the same bucket.
bool canonicalPhase(std::span<const std::uint64_t> sig) { return (sig[0] & 1) != 0; }

constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// The reduced graph of the on-the-fly walk: one slot per reduced node, in
/// creation order, which is topological (a slot's fanins are earlier
/// slots). Each slot carries its simulation signature, `words` random
/// words followed by one word per 64 counterexamples, in one flat buffer
/// sized to the cone. Classes are keyed by the canonical hash of the
/// random words, which never change, so feeding back a counterexample
/// re-simulates one word without re-bucketing anything.
class OnTheFlyFraig {
 public:
  OnTheFlyFraig(Aig& aig, std::size_t cone_size, const Options& options,
                Stats& stats)
      : aig_(aig), options_(options), stats_(stats), rng_(options.seed),
        words_(std::max<std::uint32_t>(options.sim_words, 1)), stride_(words_),
        sink_(solver_) {
    slots_.reserve(cone_size + 1);
    sigs_.reserve((cone_size + 1) * stride_);
    // The constant is slot 0 and a representative, so stuck-at nodes merge
    // onto it; encodeCone maps var 0 to its own frozen-false variable.
    newSlot(0);
    addRep(0);
  }

  std::uint64_t conflicts() const { return solver_.numConflicts(); }

  /// Registers a cone PI: random signature, a solver variable, and a class.
  Lit addPi(std::uint32_t var) {
    const std::uint32_t s = newSlot(var);
    for (std::uint32_t w = 0; w < words_; ++w) sig(s)[w] = rng_.next();
    cnf_[var] = sat::SLit::make(solver_.newVar(), false);
    addRep(s);
    return slots_[s].repr;
  }

  /// Reduced literal of AND(m0, m1) over reduced fanins.
  Lit addAnd(Lit m0, Lit m1) {
    const Lit r = aig_.addAnd(m0, m1);
    if (const std::uint32_t s = slotOf(r.var()); s != kNoSlot) {
      return slots_[s].repr ^ r.complemented();
    }
    // Folding only returns constants and fanins, both registered, so this
    // is an AND over two slots: a new node or a strash hit on an old one.
    const std::uint32_t s = newSlot(r.var());
    Slot& slot = slots_[s];
    slot.fanin0 = aig_.fanin0(r.var());
    slot.fanin1 = aig_.fanin1(r.var());
    for (std::uint32_t w = 0; w < stride_; ++w) simulate(s, w);
    const std::uint64_t key = classKey(s);
    for (;;) {
      bool phase = false;
      const std::uint32_t rep = findRep(s, key, &phase);
      if (rep == kNoSlot) {
        addRep(s, key);
        return r;
      }
      const Lit rep_lit = slots_[rep].repr ^ phase;
      const sat::Status status = prove(rep_lit, r);
      if (status == sat::Status::Unsat) {
        slots_[s].repr = rep_lit;
        return rep_lit;
      }
      // Abandoned: kept unmerged, and never a representative.
      if (status == sat::Status::Undef) return r;
      addCounterexample();
    }
  }

 private:
  struct Slot {
    std::uint32_t var = 0;
    Lit fanin0;  ///< invalid for the constant and PIs
    Lit fanin1;
    Lit repr;    ///< the reduced literal this node stands for
    std::uint32_t next_rep = kNoSlot;  ///< next representative in its bucket
  };

  std::uint32_t slotOf(std::uint32_t var) const {
    return var < slot_of_.size() ? slot_of_[var] : kNoSlot;
  }

  std::uint32_t newSlot(std::uint32_t var) {
    const auto s = static_cast<std::uint32_t>(slots_.size());
    if (slot_of_.size() <= var) slot_of_.resize(aig_.numNodes(), kNoSlot);
    slot_of_[var] = s;
    Slot slot;
    slot.var = var;
    slot.repr = Lit::fromVar(var, false);
    slots_.push_back(slot);
    sigs_.resize(sigs_.size() + stride_, 0);
    return s;
  }

  std::span<std::uint64_t> sig(std::uint32_t s) {
    return {sigs_.data() + static_cast<std::size_t>(s) * stride_, stride_};
  }

  /// Word `w` of an AND slot's signature from its fanins' words.
  void simulate(std::uint32_t s, std::uint32_t w) {
    const Slot& slot = slots_[s];
    if (!slot.fanin0.valid()) return;  // constant or PI: words are inputs
    const auto word = [&](Lit f) {
      const std::uint64_t v = sig(slot_of_[f.var()])[w];
      return f.complemented() ? ~v : v;
    };
    sig(s)[w] = word(slot.fanin0) & word(slot.fanin1);
  }

  std::uint64_t classKey(std::uint32_t s) {
    const auto words = sig(s);
    return hashWords(words.first(words_), canonicalPhase(words));
  }

  void addRep(std::uint32_t s) { addRep(s, classKey(s)); }
  void addRep(std::uint32_t s, std::uint64_t key) {
    const auto [it, fresh] = bucket_head_.try_emplace(key, s);
    if (!fresh) {
      slots_[s].next_rep = it->second;
      it->second = s;
    }
  }

  /// The representative whose signature equals slot `s`'s over all words,
  /// up to complement (`*phase`), or kNoSlot.
  std::uint32_t findRep(std::uint32_t s, std::uint64_t key, bool* phase) {
    const auto it = bucket_head_.find(key);
    if (it == bucket_head_.end()) return kNoSlot;
    const auto a = sig(s);
    for (std::uint32_t rep = it->second; rep != kNoSlot;
         rep = slots_[rep].next_rep) {
      const auto b = sig(rep);
      *phase = canonicalPhase(a) != canonicalPhase(b);
      const std::uint64_t m = *phase ? ~std::uint64_t{0} : 0;
      if (std::equal(a.begin(), a.end(), b.begin(),
                     [m](std::uint64_t x, std::uint64_t y) { return x == (y ^ m); })) {
        return rep;
      }
    }
    return kNoSlot;
  }

  /// Miter of `rep` and `node` over the reduced graph: Unsat when equal,
  /// Sat with a distinguishing model, Undef when a query ran out of budget.
  sat::Status prove(Lit rep, Lit node) {
    const sat::SLit a = cnf::encodeCone(aig_, rep, cnf_, sink_);
    const sat::SLit b = cnf::encodeCone(aig_, node, cnf_, sink_);
    solver_.setConflictBudget(options_.conflict_budget);
    ++stats_.sat_queries;
    const sat::Status s1 = solver_.solve({a, ~b});
    if (s1 != sat::Status::Unsat) return s1;
    ++stats_.sat_queries;
    return solver_.solve({~a, b});
  }

  /// Writes the solver's model as the next pattern bit of every registered
  /// PI (a fresh word every 64 bits) and re-simulates that word.
  void addCounterexample() {
    const std::uint32_t w = words_ + static_cast<std::uint32_t>(stats_.counterexamples / 64);
    const std::uint64_t bit = std::uint64_t{1} << (stats_.counterexamples % 64);
    if (w == stride_) widen();
    ++stats_.counterexamples;
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
      const Slot& slot = slots_[s];
      if (slot.fanin0.valid() || slot.var == 0) continue;
      const sat::LBool v = solver_.modelValue(cnf_.at(slot.var));
      if (v == sat::LBool::Undef ? rng_.chance(1, 2) : v == sat::LBool::True) {
        sig(s)[w] |= bit;
      }
    }
    for (std::uint32_t s = 0; s < slots_.size(); ++s) simulate(s, w);
  }

  /// Appends one all-zero counterexample word to every signature.
  void widen() {
    std::vector<std::uint64_t> wider;
    wider.reserve(slots_.capacity() * (stride_ + 1));
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
      const auto old = sig(s);
      wider.insert(wider.end(), old.begin(), old.end());
      wider.push_back(0);
    }
    sigs_ = std::move(wider);
    ++stride_;
  }

  Aig& aig_;
  const Options& options_;
  Stats& stats_;
  Rng rng_;
  const std::uint32_t words_;  ///< random words per signature
  std::uint32_t stride_;       ///< random plus counterexample words
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> sigs_;
  std::vector<std::uint32_t> slot_of_;  ///< aig var -> slot
  std::unordered_map<std::uint64_t, std::uint32_t> bucket_head_;
  // One incremental solver over the reduced graph. Preprocessing stays off:
  // later miters reuse variables encoded by earlier ones.
  sat::Solver solver_;
  cnf::SolverSink sink_;
  cnf::CnfMap cnf_;
};

/// What reduceCones returns.
struct Walk {
  std::vector<std::uint32_t> cone;  ///< ascending cone variables of `aig`
  std::vector<Lit> reduced;         ///< reduced literal, by variable of `aig`
};

/// The walk both entry points share. It visits the cones of `roots` in
/// ascending variable order, which is topological (fanins have smaller
/// indices), makes the oldest node of each class its representative and
/// keeps the reduced cones smaller than collectCone's DFS order does. It
/// rebuilds every node into `graph` over its fanins' reduced literals.
/// `graph` is `aig` itself when compressing in place; otherwise it is an
/// empty scratch graph, which gets one PI per cone PI.
Walk reduceCones(const Aig& aig, std::span<const Lit> roots, Aig& graph,
                 const Options& options, Stats& stats) {
  Walk walk{collectCone(aig, roots), std::vector<Lit>(aig.numNodes())};
  std::sort(walk.cone.begin(), walk.cone.end());
  walk.reduced[0] = kFalse;
  OnTheFlyFraig fraig(graph, walk.cone.size(), options, stats);
  for (const std::uint32_t var : walk.cone) {
    if (aig.isPi(var)) {
      walk.reduced[var] = fraig.addPi(&graph == &aig ? var : graph.addPi().var());
      continue;
    }
    const Lit f0 = aig.fanin0(var);
    const Lit f1 = aig.fanin1(var);
    walk.reduced[var] = fraig.addAnd(walk.reduced[f0.var()] ^ f0.complemented(),
                                     walk.reduced[f1.var()] ^ f1.complemented());
  }
  stats.sat_conflicts = fraig.conflicts();
  ECO_OBS_COUNT("fraig.sat_queries", stats.sat_queries);
  ECO_OBS_COUNT("fraig.counterexamples", stats.counterexamples);
  return walk;
}

}  // namespace

EquivClasses computeEquivClasses(const Aig& aig, std::span<const Lit> roots,
                                 const Options& options, Stats* stats) {
  obs::Span span("fraig.compute_classes");
  ECO_OBS_COUNT("fraig.rounds", 1);
  Stats local;
  local.rounds = 1;
  Aig scratch;
  const Walk walk = reduceCones(aig, roots, scratch, options, local);
  // Each cone node joins the class of the first (smallest) cone node whose
  // reduced literal is on the same reduced node, with the relative phase.
  // The constant owns reduced node 0, so stuck-at nodes join its class.
  EquivClasses classes(aig.numNodes());
  std::vector<std::uint32_t> owner(scratch.numNodes(), kNoSlot);
  owner[0] = 0;
  for (const std::uint32_t var : walk.cone) {
    const Lit r = walk.reduced[var];
    const std::uint32_t first = owner[r.var()];
    if (first == kNoSlot) {
      owner[r.var()] = var;
      continue;
    }
    classes.merge(var, Lit::fromVar(first, walk.reduced[first].complemented() !=
                                               r.complemented()));
  }
  span.arg("sat_queries", local.sat_queries);
  if (stats != nullptr) *stats = local;
  return classes;
}

std::vector<Lit> compressCones(Aig& aig, std::span<const Lit> roots,
                               const Options& options, Stats* stats) {
  obs::Span span("fraig.compress");
  ECO_OBS_COUNT("fraig.compress_calls", 1);
  Stats local;
  const Walk walk = reduceCones(aig, roots, aig, options, local);
  span.arg("sat_queries", local.sat_queries);
  if (stats != nullptr) *stats = local;
  std::vector<Lit> out;
  out.reserve(roots.size());
  for (const Lit r : roots) out.push_back(walk.reduced[r.var()] ^ r.complemented());
  return out;
}

}  // namespace eco::fraig

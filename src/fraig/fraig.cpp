#include "fraig/fraig.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "aig/aig_ops.h"
#include "base/check.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "cnf/cnf.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sat/solver.h"
#include "sim/sim.h"

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

/// One candidate equivalence check of the batched (parallel) sweep:
/// rep (positive phase) vs cand, complemented when the canonical phases of
/// their signatures disagree.
struct PairTask {
  std::uint32_t rep = 0;
  std::uint32_t cand = 0;
  bool phase_diff = false;
};

enum class PairOutcome : std::uint8_t {
  Equivalent,     ///< both directions Unsat: merge cand into rep's class
  Distinguished,  ///< a model separates them: feed back as a new pattern
  Abandoned,      ///< conflict budget exceeded: never re-query this pair
};

struct PairResult {
  PairOutcome outcome = PairOutcome::Abandoned;
  std::uint32_t queries = 0;
  std::vector<bool> cex;  ///< PI assignment when Distinguished
};

/// Pairs per chunk of the batched sweep. Each chunk owns one incremental
/// solver + CNF map, so cone encodings amortize across its pairs (the
/// tasks are sorted, so pairs of one representative land in one chunk).
/// The value is a constant — chunk composition must not depend on the
/// worker count, or determinism across thread counts would be lost.
constexpr std::size_t kPairChunk = 32;

/// Decides one chunk of candidate pairs on a chunk-local incremental
/// solver. Everything here is chunk-local and the chunk's contents depend
/// only on the (sorted) task list, so every outcome — including
/// counterexample models — is deterministic for a fixed pattern history,
/// independent of scheduling order or worker count. Returns the chunk
/// solver's conflict count.
std::uint64_t checkPairChunk(const Aig& aig, std::span<const PairTask> tasks,
                             std::span<PairResult> results, std::int64_t budget,
                             std::uint64_t cex_seed) {
  // Preprocessing stays off: each task's encodeCone call may reuse internal
  // variables encoded by earlier tasks, which variable elimination would
  // have removed from the database.
  sat::Solver solver;
  cnf::SolverSink sink(solver);
  cnf::CnfMap map;
  for (std::uint32_t i = 0; i < aig.numPis(); ++i) {
    map[aig.piVar(i)] = sat::SLit::make(solver.newVar(), false);
  }

  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const PairTask& task = tasks[t];
    PairResult& result = results[t];
    const Lit rep_lit = Lit::fromVar(task.rep, false);
    const Lit cand_lit = Lit::fromVar(task.cand, task.phase_diff);
    const sat::SLit a = cnf::encodeCone(aig, rep_lit, map, sink);
    const sat::SLit b = cnf::encodeCone(aig, cand_lit, map, sink);

    const auto storeModel = [&] {
      Rng rng(cex_seed ^ ((static_cast<std::uint64_t>(task.rep) << 32) |
                          task.cand));
      result.cex.resize(aig.numPis());
      for (std::uint32_t p = 0; p < aig.numPis(); ++p) {
        const sat::LBool v = solver.modelValue(map.at(aig.piVar(p)));
        result.cex[p] =
            v == sat::LBool::Undef ? rng.chance(1, 2) : v == sat::LBool::True;
      }
    };

    solver.setConflictBudget(budget);
    const sat::Status s1 = solver.solve({a, ~b});
    ++result.queries;
    if (s1 == sat::Status::Sat) {
      result.outcome = PairOutcome::Distinguished;
      storeModel();
      continue;
    }
    if (s1 == sat::Status::Undef) {
      result.outcome = PairOutcome::Abandoned;
      continue;
    }
    solver.setConflictBudget(budget);
    const sat::Status s2 = solver.solve({~a, b});
    ++result.queries;
    if (s2 == sat::Status::Sat) {
      result.outcome = PairOutcome::Distinguished;
      storeModel();
      continue;
    }
    result.outcome = s2 == sat::Status::Unsat ? PairOutcome::Equivalent
                                              : PairOutcome::Abandoned;
  }
  return solver.numConflicts();
}

// Key of a settled pair: (lo var, hi var).
std::uint64_t pairKey(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
}

/// This round's candidate pairs. Unmerged cone nodes are bucketed by
/// canonical simulation signature; each bucket's smallest node (its
/// representative) is paired with every other member whose signature
/// matches exactly, unless the pair is already settled. The pairs come back
/// in no particular order: each sweep path sorts them its own way.
std::vector<PairTask> collectPairs(
    const sim::PatternSet& values, std::span<const std::uint32_t> cone_vars,
    const EquivClasses& classes,
    const std::unordered_set<std::uint64_t>& settled) {
  // Bucket by canonical signature hash. cone_vars is ascending, so each
  // bucket's first member is its smallest.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  for (const std::uint32_t var : cone_vars) {
    if (classes.hasSmallerEquiv(var)) continue;  // already merged
    const auto sig = values.of(var);
    buckets[hashWords(sig, canonicalPhase(sig))].push_back(var);
  }

  std::vector<PairTask> tasks;
  for (const auto& [hash, members] : buckets) {
    (void)hash;
    const std::uint32_t rep = members[0];
    const auto rep_sig = values.of(rep);
    for (std::size_t i = 1; i < members.size(); ++i) {
      const std::uint32_t cand = members[i];
      if (settled.count(pairKey(rep, cand)) != 0) continue;
      // Exact signature comparison (hash buckets can collide).
      const auto cand_sig = values.of(cand);
      const bool phase_diff = canonicalPhase(rep_sig) != canonicalPhase(cand_sig);
      const std::uint64_t m = phase_diff ? ~std::uint64_t{0} : 0;
      bool equal = true;
      for (std::size_t w = 0; w < rep_sig.size() && equal; ++w) {
        equal = rep_sig[w] == (cand_sig[w] ^ m);
      }
      if (equal) tasks.push_back(PairTask{rep, cand, phase_diff});
    }
  }
  return tasks;
}

}  // namespace

EquivClasses computeEquivClasses(const Aig& aig, std::span<const Lit> roots,
                                 const Options& options, Stats* stats) {
  obs::Span span("fraig.compute_classes");
  EquivClasses classes(aig.numNodes());
  Rng rng(options.seed);
  Stats local;

  // Restrict attention to the cones of the roots (plus the constant node).
  std::vector<std::uint32_t> cone_vars = collectCone(aig, roots);
  cone_vars.push_back(0);
  std::sort(cone_vars.begin(), cone_vars.end());

  sim::PatternSet patterns(aig.numPis(), options.sim_words);
  patterns.randomize(rng);

  const bool parallel =
      options.pool != nullptr && options.pool->numWorkers() >= 2;

  // Sequential path: one incremental solver over the whole region, cones
  // encoded on demand. The parallel path instead encodes per chunk. Like the
  // chunk solver, preprocessing must stay off — later cones reference
  // earlier-encoded internals.
  sat::Solver solver;
  cnf::SolverSink sink(solver);
  cnf::CnfMap cnf_map;
  if (!parallel) {
    for (std::uint32_t i = 0; i < aig.numPis(); ++i) {
      cnf_map[aig.piVar(i)] = sat::SLit::make(solver.newVar(), false);
    }
    solver.setConflictBudget(options.conflict_budget);
  }
  const auto litOf = [&](Lit l) {
    return cnf::encodeCone(aig, l, cnf_map, sink);
  };

  // Pairs already proven or abandoned, keyed by pairKey.
  std::unordered_set<std::uint64_t> settled;

  // Pending counterexamples collected during a verification sweep.
  sim::PatternSet cex(aig.numPis(), 1);
  std::uint32_t cex_count = 0;

  for (std::uint32_t round = 0; round < options.max_rounds; ++round) {
    ++local.rounds;
    ECO_OBS_GAUGE_SET("fraig.round", round + 1);
    obs::Span round_span("fraig.round");
    round_span.arg("round", round);
    const sim::PatternSet values = sim::simulateAll(aig, patterns);
    std::vector<PairTask> tasks =
        collectPairs(values, cone_vars, classes, settled);

    bool found_cex = false;
    cex_count = 0;

    if (parallel) {
      // Batched sweep: decide each pair concurrently on an isolated chunk
      // solver, then merge outcomes in deterministic pair order at the
      // barrier below. (rep, cand) order puts the pairs of one
      // representative into one chunk, so a chunk encodes few cones.
      std::sort(tasks.begin(), tasks.end(),
                [](const PairTask& a, const PairTask& b) {
                  return a.rep != b.rep ? a.rep < b.rep : a.cand < b.cand;
                });

      ECO_OBS_OBSERVE("fraig.round_pairs", tasks.size());
      std::vector<PairResult> results(tasks.size());
      const std::size_t num_chunks =
          (tasks.size() + kPairChunk - 1) / kPairChunk;
      std::vector<std::uint64_t> chunk_conflicts(num_chunks, 0);
      options.pool->parallelFor(num_chunks, [&](std::size_t c) {
        // Runs on a pool worker: the chunk span lands in that worker's
        // thread-local buffer and renders on its own trace row.
        const std::size_t begin = c * kPairChunk;
        const std::size_t len = std::min(kPairChunk, tasks.size() - begin);
        obs::Span chunk_span("fraig.pair_chunk");
        chunk_span.arg("pairs", len);
        chunk_conflicts[c] = checkPairChunk(
            aig, std::span<const PairTask>(tasks.data() + begin, len),
            std::span<PairResult>(results.data() + begin, len),
            options.conflict_budget,
            options.seed ^ (0x9E3779B97F4A7C15ULL * (round + 1)));
      });
      for (const std::uint64_t c : chunk_conflicts) local.sat_conflicts += c;

      // Deterministic barrier: apply merges and pattern feedback in pair
      // order. Representatives are bucket minima, so they are never merged
      // away within the round and every merge target stays a class
      // representative.
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const PairTask& t = tasks[i];
        const PairResult& r = results[i];
        local.sat_queries += r.queries;
        switch (r.outcome) {
          case PairOutcome::Equivalent: {
            const Lit rep_lit = Lit::fromVar(t.rep, false);
            classes.merge(t.cand, t.phase_diff ? !rep_lit : rep_lit);
            settled.insert(pairKey(t.rep, t.cand));
            break;
          }
          case PairOutcome::Abandoned:
            settled.insert(pairKey(t.rep, t.cand));
            break;
          case PairOutcome::Distinguished:
            found_cex = true;
            if (cex_count < 64) {
              for (std::uint32_t p = 0; p < aig.numPis(); ++p) {
                cex.setBit(p, cex_count, r.cex[p]);
              }
              ++cex_count;
              ++local.counterexamples;
            }
            break;
        }
      }
    } else {
      // Ascending candidate order is topological order (a node's fanins
      // have smaller indices), so the pairs in a candidate's fanin cone are
      // decided before it and their learned clauses shorten its proof.
      std::sort(tasks.begin(), tasks.end(),
                [](const PairTask& a, const PairTask& b) {
                  return a.cand < b.cand;
                });
      for (const PairTask& t : tasks) {
        // SAT check: rep_lit == cand_lit (with relative phase)?
        const Lit rep_lit = Lit::fromVar(t.rep, false);
        const sat::SLit a = litOf(rep_lit);
        const sat::SLit b = litOf(Lit::fromVar(t.cand, t.phase_diff));
        const sat::Status s1 = solver.solve({a, ~b});
        ++local.sat_queries;
        sat::Status s2 = sat::Status::Undef;
        if (s1 == sat::Status::Unsat) {
          s2 = solver.solve({~a, b});
          ++local.sat_queries;
        }
        if (s1 == sat::Status::Sat || s2 == sat::Status::Sat) {
          // Record the distinguishing pattern.
          for (std::uint32_t p = 0; p < aig.numPis(); ++p) {
            const sat::LBool v = solver.modelValue(cnf_map.at(aig.piVar(p)));
            cex.setBit(p, cex_count,
                       v == sat::LBool::Undef ? rng.chance(1, 2)
                                              : v == sat::LBool::True);
          }
          ++cex_count;
          ++local.counterexamples;
          found_cex = true;
          if (cex_count == 64) break;
          continue;
        }
        if (s2 == sat::Status::Unsat) {
          classes.merge(t.cand, t.phase_diff ? !rep_lit : rep_lit);
        }
        // Proven or abandoned either way: never re-query this pair.
        settled.insert(pairKey(t.rep, t.cand));
      }
    }

    if (!found_cex) break;
    // Extend the pattern set with the counterexamples and refine.
    sim::PatternSet extended(aig.numPis(), patterns.wordsPerSignal() + 1);
    for (std::uint32_t p = 0; p < aig.numPis(); ++p) {
      auto dst = extended.of(p);
      const auto src = patterns.of(p);
      for (std::uint32_t w = 0; w < patterns.wordsPerSignal(); ++w) dst[w] = src[w];
      dst[patterns.wordsPerSignal()] = cex.of(p)[0];
    }
    patterns = std::move(extended);
  }
  if (!parallel) local.sat_conflicts = solver.numConflicts();
  ECO_OBS_COUNT("fraig.sweeps", 1);
  ECO_OBS_COUNT("fraig.rounds", local.rounds);
  ECO_OBS_COUNT("fraig.sat_queries", local.sat_queries);
  ECO_OBS_COUNT("fraig.counterexamples", local.counterexamples);
  span.arg("sat_queries", local.sat_queries);
  if (stats != nullptr) *stats = local;
  return classes;
}

namespace {

constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// The reduced graph compressCones builds: one slot per reduced node, in
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

}  // namespace

std::vector<Lit> compressCones(Aig& aig, std::span<const Lit> roots,
                               const Options& options, Stats* stats) {
  obs::Span span("fraig.compress");
  ECO_OBS_COUNT("fraig.compress_calls", 1);
  Stats local;
  // Ascending variable order is topological (fanins have smaller indices)
  // and makes the oldest node of each class its representative, as in
  // computeEquivClasses; it also keeps the reduced cones smaller than the
  // DFS order of collectCone does.
  std::vector<std::uint32_t> cone = collectCone(aig, roots);
  std::sort(cone.begin(), cone.end());
  // Reduced literal of every cone node, by original variable.
  std::vector<Lit> reduced(aig.numNodes());
  reduced[0] = kFalse;
  {
    OnTheFlyFraig fraig(aig, cone.size(), options, local);
    // Each node is rebuilt from its fanins' reduced literals.
    for (const std::uint32_t var : cone) {
      if (aig.isPi(var)) {
        reduced[var] = fraig.addPi(var);
        continue;
      }
      const Lit f0 = aig.fanin0(var);
      const Lit f1 = aig.fanin1(var);
      reduced[var] = fraig.addAnd(reduced[f0.var()] ^ f0.complemented(),
                                  reduced[f1.var()] ^ f1.complemented());
    }
    local.sat_conflicts = fraig.conflicts();
  }
  ECO_OBS_COUNT("fraig.sat_queries", local.sat_queries);
  ECO_OBS_COUNT("fraig.counterexamples", local.counterexamples);
  span.arg("sat_queries", local.sat_queries);
  if (stats != nullptr) *stats = local;
  std::vector<Lit> out;
  out.reserve(roots.size());
  for (const Lit r : roots) out.push_back(reduced[r.var()] ^ r.complemented());
  return out;
}

}  // namespace eco::fraig

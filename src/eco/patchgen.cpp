#include "eco/patchgen.h"

#include <unordered_map>

#include "base/check.h"
#include "cnf/cnf.h"
#include "eco/relations.h"
#include "fraig/fraig.h"
#include "itp/itp.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eco {
namespace {

/// SynthesizePatch (Algorithm 1, line 7): interpolate (on, off) over the
/// network's PIs when requested; on satisfiability (the Sec. 4.3
/// multi-output conflict) fall back to the on-set function. Returns the
/// patch literal in net.v and whether interpolation failed.
Lit synthesizePatch(LocalNetwork& net, const OnOffSets& oo,
                    const EcoOptions& options, bool* itp_failed) {
  *itp_failed = false;
  // Either the on-set or the negated off-set is a valid patch (Sec. 4.3);
  // take the structurally smaller one.
  const auto coneSize = [&](Lit l) {
    const std::vector<Lit> root{l};
    return coneAndCount(net.v, root);
  };
  const Lit direct = coneSize(oo.on) <= coneSize(!oo.off) ? oo.on : !oo.off;
  if (!options.try_interpolation_first) return direct;

  itp::ItpJob job;
  // Shared variables: every PI of the localized network (cut signals and
  // remaining target variables); the interpolant is built back into net.v.
  cnf::CnfMap map_a, map_b;
  for (std::uint32_t i = 0; i < net.v.numPis(); ++i) {
    const sat::Var v = job.solver().newVar();
    const sat::SLit sl = sat::SLit::make(v, false);
    map_a[net.v.piVar(i)] = sl;
    map_b[net.v.piVar(i)] = sl;
    job.markShared(v, net.v.piLit(i));
  }
  const sat::SLit on = cnf::encodeCone(net.v, oo.on, map_a, job.sinkA());
  job.addClauseA({on});
  const sat::SLit off = cnf::encodeCone(net.v, oo.off, map_b, job.sinkB());
  job.addClauseB({off});

  const sat::Status status = job.solve(kItpConflictBudget);
  if (status != sat::Status::Unsat) {
    // Satisfiable (or budgeted out): interpolation is not applicable here.
    *itp_failed = true;
    return direct;
  }
  const Lit itp = job.buildInterpolant(net.v);
  return coneSize(itp) <= coneSize(direct) ? itp : direct;
}

}  // namespace

ClusterPatchResult dependentPatchGen(const TargetCluster& cluster,
                                     LocalNetwork& net,
                                     const EcoOptions& options) {
  obs::Span span("eco.dependent_patchgen");
  span.arg("targets", cluster.targets.size());
  ClusterPatchResult result;
  const std::uint32_t alpha = static_cast<std::uint32_t>(cluster.targets.size());

  // Iterated substitution of on-set patches can grow the working cones
  // multiplicatively (XOR-dominated cones barely share structure). A FRAIG
  // reduction pass collapses proven-equivalent nodes whenever the live
  // cones exceed the configured threshold — the same role the FRAIG stage
  // plays for "computation overhead" in the paper's flow.
  fraig::Options fraig_opt;
  fraig_opt.sim_words = 4;
  fraig_opt.conflict_budget = 2000;
  const auto compressAll = [&](std::vector<Lit>& f_cur, std::vector<Lit>& p_dep,
                               std::uint32_t upto) {
    std::vector<Lit> all = f_cur;
    all.insert(all.end(), net.g_roots.begin(), net.g_roots.end());
    for (std::uint32_t j = 0; j < upto; ++j) all.push_back(p_dep[j]);
    if (coneAndCount(net.v, all) <= options.compress_threshold) return;
    const std::vector<Lit> mapped = fraig::compressCones(net.v, all, fraig_opt);
    std::size_t idx = 0;
    for (Lit& r : f_cur) r = mapped[idx++];
    for (Lit& r : net.g_roots) r = mapped[idx++];
    for (std::uint32_t j = 0; j < upto; ++j) p_dep[j] = mapped[idx++];
  };

  // Phase 1: target-variable dependent patches p'_k(C_d, t_{k+1..alpha}).
  std::vector<Lit> p_dep(alpha);
  std::vector<Lit> f_cur = net.f_roots;
  for (std::uint32_t k = 0; k < alpha; ++k) {
    const Lit t_k = net.t_pis[k];
    const OnOffSets oo = buildOnOff(net.v, f_cur, net.g_roots, t_k);
    bool itp_failed = false;
    p_dep[k] = synthesizePatch(net, oo, options, &itp_failed);
    if (options.try_interpolation_first) {
      if (itp_failed) {
        ++result.itp_failures;
        ECO_OBS_COUNT("eco.itp_fallbacks", 1);
      } else {
        ++result.itp_successes;
      }
    }
    // F' <- F'|_{t_k = p'_k}
    VarMap repl;
    repl[t_k.var()] = p_dep[k];
    f_cur = substitute(net.v, f_cur, repl);
    compressAll(f_cur, p_dep, k + 1);
  }

  // Phase 2: eliminate target-variable dependencies bottom-up:
  //   p_alpha = p'_alpha,  p_k = p'_k(t_{k+1}=p_{k+1}, ..., t_alpha=p_alpha).
  //
  // A FRAIG compress pass may have rebuilt a patch cone on a representative
  // whose *structure* mentions an already-eliminated target variable even
  // though the function is provably independent of it (the merge was
  // SAT-proven over all PIs, and the pre-compress cone had no such
  // dependence). Such vacuous occurrences are grounded to constant false:
  // substituting any value for a variable the function does not depend on
  // preserves the function, and extraction requires a target-free support.
  std::vector<Lit> p_final(alpha);
  for (std::uint32_t k = alpha; k-- > 0;) {
    VarMap repl;
    for (std::uint32_t j = 0; j < alpha; ++j) {
      repl[net.t_pis[j].var()] = j > k ? p_final[j] : kFalse;
    }
    const std::vector<Lit> roots{p_dep[k]};
    p_final[k] = substitute(net.v, roots, repl)[0];
    if (coneAndCount(net.v, std::vector<Lit>{p_final[k]}) >
        options.compress_threshold) {
      const std::vector<Lit> one{p_final[k]};
      p_final[k] = fraig::compressCones(net.v, one, fraig_opt)[0];
      // The compress itself can re-introduce vacuous target structure;
      // ground it the same way.
      VarMap ground;
      for (std::uint32_t j = 0; j < alpha; ++j) {
        ground[net.t_pis[j].var()] = kFalse;
      }
      const std::vector<Lit> again{p_final[k]};
      p_final[k] = substitute(net.v, again, ground)[0];
    }
  }

  result.patches.reserve(alpha);
  for (std::uint32_t k = 0; k < alpha; ++k) {
    result.patches.push_back(extractPatch(net, p_final[k], cluster.targets[k]));
  }
  return result;
}

TargetPatch extractPatch(const LocalNetwork& net, Lit root,
                         std::uint32_t global_target) {
  TargetPatch patch;
  patch.target = global_target;

  // The support must be free of target variables after phase 2.
  const std::vector<Lit> roots{root};
  const std::vector<std::uint32_t> support = supportPis(net.v, roots);
  std::unordered_map<std::uint32_t, const CutBase*> base_of_var;
  for (const CutBase& b : net.bases) base_of_var[b.v_pi.var()] = &b;

  VarMap map;
  for (const std::uint32_t pi_var : support) {
    const auto it = base_of_var.find(pi_var);
    ECO_CHECK_MSG(it != base_of_var.end(),
                  "patch support contains a non-base variable (phase 2 failed)");
    const CutBase& b = *it->second;
    // The patch PI carries the *raw* signal; the cut PI equals the raw
    // signal XOR inverted, so absorb the inversion here.
    const Lit raw_pi = patch.fn.addPi(b.signal.name);
    map[pi_var] = raw_pi ^ b.inverted;
    patch.inputs.push_back(b.signal);
  }
  const Lit out = copyCones(net.v, roots, map, patch.fn)[0];
  patch.fn.addPo(out);
  return patch;
}

void pruneUnusedInputs(TargetPatch& patch) {
  const std::vector<Lit> roots{patch.fn.poDriver(0)};
  const std::vector<std::uint32_t> support = supportPis(patch.fn, roots);
  if (support.size() == patch.fn.numPis()) return;
  std::unordered_map<std::uint32_t, bool> used;
  for (const std::uint32_t v : support) used[v] = true;

  Aig pruned;
  std::vector<Candidate> inputs;
  VarMap map;
  for (std::uint32_t i = 0; i < patch.fn.numPis(); ++i) {
    const std::uint32_t var = patch.fn.piVar(i);
    if (used.count(var) == 0) continue;
    map[var] = pruned.addPi(patch.fn.piName(i));
    inputs.push_back(patch.inputs[i]);
  }
  const Lit out = copyCones(patch.fn, roots, map, pruned)[0];
  pruned.addPo(out);
  patch.fn = std::move(pruned);
  patch.inputs = std::move(inputs);
}

}  // namespace eco

#include "eco/baseline.h"

#include <numeric>
#include <unordered_map>

#include "base/timer.h"
#include "eco/candidates.h"
#include "eco/relations.h"
#include "eco/verify.h"

namespace eco {

EcoOptions winnerProxyOptions() {
  EcoOptions o;
  o.use_localization = false;
  o.pi_candidates_only = true;
  o.use_cost_opt = true;
  o.opt_rounds = 1;
  o.try_interpolation_first = false;
  return o;
}

PatchResult runWinnerProxy(const EcoInstance& instance) {
  return EcoEngine(winnerProxyOptions()).run(instance);
}

namespace {

/// Extracts a standalone PI-support patch from a workspace literal.
TargetPatch extractXPatch(const EcoInstance& instance, const Workspace& ws,
                          Lit root, std::uint32_t target) {
  TargetPatch patch;
  patch.target = target;
  const std::vector<Lit> roots{root};
  const std::vector<std::uint32_t> support = supportPis(ws.w, roots);
  VarMap map;
  std::unordered_map<std::uint32_t, std::uint32_t> x_index;
  for (std::uint32_t i = 0; i < ws.x_pis.size(); ++i) {
    x_index[ws.x_pis[i].var()] = i;
  }
  for (const std::uint32_t var : support) {
    const auto it = x_index.find(var);
    ECO_CHECK_MSG(it != x_index.end(),
                  "Tang11 patch support is not X-only (coupled targets)");
    const std::uint32_t i = it->second;
    Candidate c;
    c.name = instance.faulty.piName(i);
    c.f_lit = instance.faulty.piLit(i);
    c.w_fn = ws.x_pis[i];
    c.weight = instance.weightOf(c.name);
    map[var] = patch.fn.addPi(c.name);
    patch.inputs.push_back(std::move(c));
  }
  const Lit out = copyCones(ws.w, roots, map, patch.fn)[0];
  patch.fn.addPo(out);
  return patch;
}

}  // namespace

PatchResult runTang11(const EcoInstance& instance) {
  Timer timer;
  PatchResult result;
  const std::uint32_t alpha = instance.numTargets();
  Workspace ws = buildWorkspace(instance);

  // Independent per-target fix: other targets are held at constant 0 (their
  // "unpatched" stand-in); no dependent-patch iteration.
  std::vector<TargetPatch> patches;
  for (std::uint32_t k = 0; k < alpha; ++k) {
    std::vector<Lit> f_fixed = ws.f_roots;
    for (std::uint32_t j = 0; j < alpha; ++j) {
      if (j == k) continue;
      f_fixed = cofactorRoots(ws.w, f_fixed, ws.t_pis[j], false);
    }
    const OnOffSets oo = buildOnOff(ws.w, f_fixed, ws.g_roots, ws.t_pis[k]);
    patches.push_back(extractXPatch(instance, ws, oo.on, k));
  }

  std::vector<std::uint32_t> all_outputs(ws.f_roots.size());
  std::iota(all_outputs.begin(), all_outputs.end(), 0u);
  const VerifyOutcome v = verifyPatches(ws, patches, all_outputs);
  result.seconds = timer.seconds();
  if (!v.equivalent) {
    result.success = false;
    result.message = "independent per-target fix failed verification (output " +
                     std::to_string(v.failing_output) + ")";
    return result;
  }
  result.success = true;
  result.message = "ok";

  // Assemble cost/size (deduplicated inputs).
  std::unordered_map<std::string, Lit> pi_of_name;
  for (const TargetPatch& p : patches) {
    VarMap map;
    for (std::uint32_t i = 0; i < p.fn.numPis(); ++i) {
      const Candidate& in = p.inputs[i];
      auto it = pi_of_name.find(in.name);
      if (it == pi_of_name.end()) {
        const Lit pi = result.patch.addPi(in.name);
        it = pi_of_name.emplace(in.name, pi).first;
        BaseRef ref;
        ref.name = in.name;
        ref.lit = in.f_lit;
        ref.weight = in.weight;
        result.base.push_back(std::move(ref));
        result.cost += in.weight;
      }
      map[p.fn.piVar(i)] = it->second;
    }
    const std::vector<Lit> roots{p.fn.poDriver(0)};
    const Lit out = copyCones(p.fn, roots, map, result.patch)[0];
    result.patch.addPo(out, instance.targetName(p.target));
  }
  result.size = result.patch.numAnds();
  return result;
}

}  // namespace eco

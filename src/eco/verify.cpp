#include "eco/verify.h"

#include "base/check.h"
#include "cnf/cnf.h"
#include "sat/solver.h"

namespace eco {
namespace {

/// SAT-checks OR_j (a_j xor b_j) over the workspace PIs; fills a cex on SAT.
/// Miter j compares output po_index[j].
VerifyOutcome checkMiters(Workspace& ws, std::span<const Lit> a,
                          std::span<const Lit> b,
                          std::span<const std::uint32_t> po_index) {
  VerifyOutcome out;
  Aig& w = ws.w;
  sat::Solver solver;
  // One-shot query, no assumptions, no late clauses: preprocessing is safe,
  // and model reads of eliminated variables are reconstructed.
  solver.setPreprocessing(true);
  cnf::SolverSink sink(solver);
  cnf::CnfMap map;
  for (const Lit x : ws.x_pis) map[x.var()] = sat::SLit::make(solver.newVar(), false);
  // Targets stay free in the miter encoding only if some cone still refers
  // to them; a correct full substitution leaves none. Seed them anyway so a
  // partial substitution yields a counterexample instead of an abort.
  for (const Lit t : ws.t_pis) map[t.var()] = sat::SLit::make(solver.newVar(), false);

  std::vector<sat::SLit> miter_lits;
  std::vector<Lit> xors;
  for (std::size_t j = 0; j < a.size(); ++j) {
    xors.push_back(w.mkXor(a[j], b[j]));
  }
  for (const Lit x : xors) {
    miter_lits.push_back(cnf::encodeCone(w, x, map, sink));
  }
  solver.addClause(miter_lits);
  const sat::Status status = solver.solve();
  if (status == sat::Status::Unsat) {
    out.equivalent = true;
    return out;
  }
  ECO_CHECK_MSG(status == sat::Status::Sat, "verification solve did not finish");
  out.equivalent = false;
  out.cex_inputs.resize(ws.x_pis.size());
  for (std::size_t i = 0; i < ws.x_pis.size(); ++i) {
    out.cex_inputs[i] =
        solver.modelValue(map.at(ws.x_pis[i].var())) == sat::LBool::True;
  }
  for (std::size_t j = 0; j < miter_lits.size(); ++j) {
    if (solver.modelValue(miter_lits[j]) == sat::LBool::True) {
      out.failing_output = po_index[j];
      break;
    }
  }
  return out;
}

}  // namespace

Lit composePatchInWorkspace(Workspace& ws, const TargetPatch& patch) {
  VarMap map;
  for (std::uint32_t i = 0; i < patch.fn.numPis(); ++i) {
    map[patch.fn.piVar(i)] = patch.inputs[i].w_fn;
  }
  const std::vector<Lit> roots{patch.fn.poDriver(0)};
  return copyCones(patch.fn, roots, map, ws.w)[0];
}

VerifyOutcome verifyPatches(Workspace& ws, std::span<const TargetPatch> patches,
                            std::span<const std::uint32_t> outputs) {
  if (outputs.empty()) {
    VerifyOutcome out;
    out.equivalent = true;
    return out;
  }
  VarMap repl;
  for (const TargetPatch& p : patches) {
    repl[ws.t_pis[p.target].var()] = composePatchInWorkspace(ws, p);
  }
  std::vector<Lit> f, g;
  for (const std::uint32_t j : outputs) {
    f.push_back(ws.f_roots[j]);
    g.push_back(ws.g_roots[j]);
  }
  return checkMiters(ws, substitute(ws.w, f, repl), g, outputs);
}

std::vector<bool> evaluatePatched(const EcoInstance& instance,
                                  const PatchResult& result,
                                  const std::vector<bool>& x) {
  ECO_CHECK(x.size() == instance.num_x);
  const Aig& f = instance.faulty;
  // Pass 1: node values with targets tied to 0 — base signals are outside
  // every target's fanout, so their values are already exact.
  std::vector<bool> value(f.numNodes(), false);
  for (std::uint32_t v = 1; v < f.numNodes(); ++v) {
    if (f.isPi(v)) {
      const std::uint32_t i = f.piIndex(v);
      value[v] = i < instance.num_x ? x[i] : false;
    } else {
      const Lit f0 = f.fanin0(v);
      const Lit f1 = f.fanin1(v);
      value[v] = (value[f0.var()] ^ f0.complemented()) &&
                 (value[f1.var()] ^ f1.complemented());
    }
  }
  // Patch inputs by base reference.
  std::vector<bool> patch_in(result.base.size());
  for (std::size_t i = 0; i < result.base.size(); ++i) {
    const Lit l = result.base[i].lit;
    patch_in[i] = value[l.var()] ^ l.complemented();
  }
  const std::vector<bool> t_vals = result.patch.evaluate(patch_in);
  // Pass 2: full evaluation with patched target values. Patch PO k drives
  // target k (assembleResult emits POs in ascending target order).
  std::vector<bool> pis(f.numPis());
  for (std::uint32_t i = 0; i < instance.num_x; ++i) pis[i] = x[i];
  for (std::uint32_t k = 0; k < instance.numTargets(); ++k) {
    pis[instance.targetPi(k)] = t_vals[k];
  }
  return f.evaluate(pis);
}

}  // namespace eco

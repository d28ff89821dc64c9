#include "eco/engine.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "aig/aig_ops.h"
#include "aig/minimize.h"
#include "base/check.h"
#include "base/thread_pool.h"
#include "check/aig_audit.h"
#include "check/check.h"
#include "check/patch_audit.h"
#include "eco/candidates.h"
#include "eco/clustering.h"
#include "eco/costopt.h"
#include "eco/localization.h"
#include "eco/patchgen.h"
#include "eco/rebase.h"
#include "eco/relations.h"
#include "eco/verify.h"
#include "fraig/fraig.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace eco {
namespace {

/// Merges the per-target patches into one patch network with deduplicated
/// inputs and fills the result's base/cost/size fields. Each patch's
/// inputs are visited in candidate-index order (inputs that are not
/// candidates last, in patch order), so the reported base order does not
/// depend on the order an unsat core listed them in.
void assembleResult(const EcoInstance& instance,
                    std::span<const Candidate> candidates,
                    std::span<const TargetPatch> patches, PatchResult& result) {
  result.patch = Aig();
  result.base.clear();
  std::unordered_map<std::string, Lit> pi_of_name;
  std::unordered_map<std::string, std::size_t> candidate_index;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidate_index.emplace(candidates[i].name, i);
  }
  const auto indexOf = [&](const Candidate& in) {
    const auto it = candidate_index.find(in.name);
    return it != candidate_index.end() ? it->second : candidates.size();
  };

  // Deterministic target order.
  std::vector<const TargetPatch*> ordered;
  for (const TargetPatch& p : patches) ordered.push_back(&p);
  std::sort(ordered.begin(), ordered.end(),
            [](const TargetPatch* a, const TargetPatch* b) {
              return a->target < b->target;
            });

  for (const TargetPatch* p : ordered) {
    std::vector<std::uint32_t> pis(p->fn.numPis());
    for (std::uint32_t i = 0; i < pis.size(); ++i) pis[i] = i;
    std::stable_sort(pis.begin(), pis.end(), [&](std::uint32_t a, std::uint32_t b) {
      return indexOf(p->inputs[a]) < indexOf(p->inputs[b]);
    });
    VarMap map;
    for (const std::uint32_t i : pis) {
      const Candidate& in = p->inputs[i];
      auto it = pi_of_name.find(in.name);
      if (it == pi_of_name.end()) {
        const Lit pi = result.patch.addPi(in.name);
        it = pi_of_name.emplace(in.name, pi).first;
        BaseRef ref;
        ref.name = in.name;
        ref.lit = in.f_lit;
        ref.weight = in.weight;
        result.base.push_back(std::move(ref));
      }
      map[p->fn.piVar(i)] = it->second;
    }
    const std::vector<Lit> roots{p->fn.poDriver(0)};
    const Lit out = copyCones(p->fn, roots, map, result.patch)[0];
    result.patch.addPo(out, instance.targetName(p->target));
  }

  result.cost = 0;
  for (const BaseRef& b : result.base) result.cost += b.weight;
  result.size = result.patch.numAnds();
}

/// One engine stage's bookkeeping (DESIGN.md "Observability"): the timed
/// `eco.<stage>` span, the `engine.stage` label that live status and
/// postmortems read, and the resource window of the stage's row in
/// `PatchResult::stage_resources`. `span_name` is "eco.<stage>"; the label
/// and the row take the name without the "eco." prefix.
class Stage {
 public:
  Stage(const char* span_name, PatchResult& result)
      : name_(span_name + 4),
        span_(span_name, obs::Span::Mode::kTimed),
        scope_("engine.stage", name_),
        usage0_(obs::currentUsage()),
        result_(result) {}
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;
  /// An early return closes the stage too: every stage that ran has a row.
  ~Stage() { stop(); }

  void arg(const char* key, std::uint64_t value) { span_.arg(key, value); }

  /// Ends the stage (idempotent): appends its row once and returns its
  /// wall seconds.
  double stop() {
    if (!stopped_) {
      stopped_ = true;
      const obs::ResourceUsage d = obs::usageSince(usage0_);
      result_.stage_resources.push_back({name_, span_.stop(), d.cpu_seconds,
                                         d.alloc_count, d.alloc_bytes, d.peak_rss_bytes});
    }
    return span_.stop();
  }

 private:
  const char* name_;
  obs::Span span_;
  obs::ProgressScope scope_;
  obs::ResourceUsage usage0_;
  PatchResult& result_;
  bool stopped_ = false;
};

/// Indices 0..n-1 in descending order of `work(i)`, ties in index order.
/// ThreadPool::parallelFor claims indices in order, so walking this
/// permutation starts the largest items first and no large item is left to
/// run alone at the end of a stage.
template <typename Work>
std::vector<std::size_t> largestFirst(std::size_t n, Work work) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return work(a) > work(b);
  });
  return order;
}

/// The stage sequence of one run. Returns at the first stage that fails
/// the run, with `result.success` and `result.message` set; the worker
/// pool lands in `pool_storage` so that it outlives the stages.
void runStages(const EcoInstance& instance, const EcoOptions& options,
               const obs::Span& run_span, std::optional<ThreadPool>& pool_storage,
               PatchResult& result) {
  // Wall-clock budget, checked at stage boundaries only (a stage in
  // flight is never interrupted, keeping results deterministic for a
  // given budget outcome).
  const auto budgetExhausted = [&](const char* after_stage) -> bool {
    if (options.time_budget_seconds <= 0) return false;
    if (run_span.seconds() < options.time_budget_seconds) return false;
    result.success = false;
    result.message = std::string("engine time budget exhausted after stage ") +
                     after_stage;
    ECO_OBS_COUNT("eco.budget_exhausted", 1);
    obs::dumpPostmortem("budget", result.message.c_str());
    return true;
  };
  // Invariant-audit checkpoints (DESIGN.md "Static analysis & invariant
  // audit"). A failed audit is an engine defect, reported like a failed
  // final verification: a failed result with an "internal error" message
  // plus the machine-readable report, so the QA harness can catch and
  // shrink it. Paranoid runs additionally arm the process-global solver
  // hook (audits after every clause-arena GC and preprocessing run).
  const check::Level check_level = options.check_level;
  if (check_level >= check::Level::kParanoid &&
      check::globalLevel() < check::Level::kParanoid) {
    check::setGlobalLevel(check::Level::kParanoid);
  }
  const auto auditFailed = [&](const check::AuditReport& rep) -> bool {
    if (rep.ok()) return false;
    result.success = false;
    result.message = "internal error: invariant audit failed: " + rep.summary();
    result.audit_json = rep.toJson();
    return true;
  };

  const std::uint32_t alpha = instance.numTargets();
  ECO_OBS_GAUGE_SET("eco.targets", alpha);
  if (alpha == 0) {
    result.success = false;
    result.message = "instance has no targets";
    return;
  }

  // Worker pool for the per-cluster and per-patch stages. num_threads == 1
  // keeps pool null, which routes every stage through the exact legacy
  // sequential code path.
  const std::uint32_t num_threads = options.num_threads == 0
                                        ? ThreadPool::defaultThreads()
                                        : options.num_threads;
  ThreadPool* pool = nullptr;
  Workspace ws;
  std::vector<TargetCluster> clusters;
  {
    Stage stage("eco.setup", result);
    if (num_threads > 1) pool = &pool_storage.emplace(num_threads);
    ws = buildWorkspace(instance);
    clusters = clusterTargets(instance);
  }
  // Report the pool's actual worker count: ThreadPool clamps outlandish
  // requests, and the legacy path is exactly one thread.
  result.num_threads_used = pool != nullptr ? pool->numWorkers() : 1;
  result.num_clusters = static_cast<std::uint32_t>(clusters.size());
  ECO_OBS_GAUGE_SET("eco.clusters", result.num_clusters);

  if (check_level >= check::Level::kStage) {
    Stage stage("eco.audit_setup", result);
    if (auditFailed(check::auditAig(instance.faulty, "setup.faulty")) ||
        auditFailed(check::auditAig(instance.golden, "setup.golden")) ||
        auditFailed(check::auditAig(ws.w, "setup.workspace"))) {
      return;
    }
  }
  if (budgetExhausted("setup")) return;

  // FRAIG stage (only needed when localization wants shared signals).
  std::optional<fraig::EquivClasses> classes;
  if (options.use_localization) {
    Stage stage("eco.fraig", result);
    std::vector<Lit> roots = ws.f_roots;
    roots.insert(roots.end(), ws.g_roots.begin(), ws.g_roots.end());
    fraig::Options fo;
    fo.seed = options.seed;
    fraig::Stats fstats;
    classes = fraig::computeEquivClasses(ws.w, roots, fo, &fstats);
    stage.arg("sat_queries", fstats.sat_queries);
    result.fraig_sat_queries = fstats.sat_queries;
    result.fraig_rounds = fstats.rounds;
  }
  if (options.use_localization && check_level >= check::Level::kStage) {
    Stage stage("eco.audit_fraig", result);
    if (auditFailed(check::auditAig(ws.w, "fraig.workspace"))) return;
  }

  // Outputs no target can influence must already match the golden circuit.
  // The FRAIG classes prove the ones whose two roots share a class; the
  // rest go to one miter. The touched outputs, those of some cluster, are
  // then the only ones a patch can change (verify.h).
  std::vector<std::uint32_t> touched_pos;
  {
    std::vector<bool> touched(instance.faulty.numPos(), false);
    for (const TargetCluster& c : clusters) {
      for (const std::uint32_t j : c.outputs) touched[j] = true;
    }
    std::vector<std::uint32_t> untouched;
    for (std::uint32_t j = 0; j < touched.size(); ++j) {
      if (touched[j]) {
        touched_pos.push_back(j);
      } else if (!classes || classes->normalize(ws.f_roots[j]) !=
                                 classes->normalize(ws.g_roots[j])) {
        untouched.push_back(j);
      }
    }
    if (!untouched.empty()) {
      Stage stage("eco.verify_untouched", result);
      VerifyOutcome v = verifyPatches(ws, {}, untouched);
      if (!v.equivalent) {
        result.success = false;
        result.message =
            "unrectifiable: output " + std::to_string(v.failing_output) +
            " differs from golden but no target reaches it";
        result.counterexample = std::move(v.cex_inputs);
        return;
      }
    }
  }
  if (budgetExhausted("fraig")) return;

  // Localization + initial multi-fix patch generation, per cluster.
  // Clusters are independent (each task reads the shared workspace and
  // candidate list, all const, and builds its own local network), so they
  // are dispatched to the pool; results are merged in cluster-index order
  // below so the output is identical regardless of the worker count.
  std::vector<Candidate> candidates;
  std::vector<TargetPatch> patches(alpha);
  {
    Stage stage("eco.patchgen", result);
    candidates = collectCandidates(instance, ws);
    if (options.pi_candidates_only) {
      candidates.resize(std::min<std::size_t>(candidates.size(), instance.num_x));
    }
    std::vector<ClusterPatchResult> cluster_results(clusters.size());
    std::vector<std::uint32_t> cluster_cut(clusters.size(), 0);
    const auto runCluster = [&](std::size_t ci) {
      // Per-cluster span: on a multi-worker run these land in the pool
      // workers' trace rows, the per-thread view of the parallel pipeline.
      obs::Span s("eco.cluster");
      s.arg("cluster", ci);
      const TargetCluster& cluster = clusters[ci];
      LocalNetwork net =
          buildLocalNetwork(instance, ws, cluster, candidates,
                            options.use_localization ? &*classes : nullptr);
      cluster_cut[ci] = static_cast<std::uint32_t>(net.bases.size());
      cluster_results[ci] = dependentPatchGen(cluster, net, options);
    };
    if (pool != nullptr) {
      // Work estimate from the instance alone: target count, then the
      // AND count of the cluster's faulty and golden output cones.
      std::vector<std::pair<std::size_t, std::uint32_t>> work;
      for (const TargetCluster& c : clusters) {
        std::vector<Lit> roots;
        for (const std::uint32_t j : c.outputs) {
          roots.push_back(ws.f_roots[j]);
          roots.push_back(ws.g_roots[j]);
        }
        work.emplace_back(c.targets.size(), coneAndCount(ws.w, roots));
      }
      const std::vector<std::size_t> order =
          largestFirst(clusters.size(), [&](std::size_t ci) { return work[ci]; });
      pool->parallelFor(order.size(),
                        [&](std::size_t i) { runCluster(order[i]); });
    } else {
      for (std::size_t ci = 0; ci < clusters.size(); ++ci) runCluster(ci);
    }
    for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
      result.cut_size += cluster_cut[ci];
      result.itp_failures += cluster_results[ci].itp_failures;
      for (std::size_t i = 0; i < clusters[ci].targets.size(); ++i) {
        patches[clusters[ci].targets[i]] =
            std::move(cluster_results[ci].patches[i]);
      }
    }
    if (options.minimize_patches) {
      // Per-patch minimization is deterministic in isolation (own seed), so
      // patch order carries no state and the loop parallelizes directly.
      const auto minimizeOne = [&](std::size_t i) {
        obs::Span s("eco.minimize_patch");
        s.arg("target", i);
        MinimizeOptions mo;
        mo.seed = options.seed;
        patches[i].fn = minimizeAig(patches[i].fn, mo);
        pruneUnusedInputs(patches[i]);
      };
      if (pool != nullptr) {
        const std::vector<std::size_t> order = largestFirst(
            patches.size(), [&](std::size_t i) { return patches[i].fn.numAnds(); });
        pool->parallelFor(order.size(),
                          [&](std::size_t i) { minimizeOne(order[i]); });
      } else {
        for (std::size_t i = 0; i < patches.size(); ++i) minimizeOne(i);
      }
    }
  }
  if (budgetExhausted("patchgen")) return;

  if (check_level >= check::Level::kParanoid) {
    Stage stage("eco.audit_patchgen", result);
    for (std::uint32_t k = 0; k < alpha; ++k) {
      if (auditFailed(check::auditAig(patches[k].fn,
                                      "patchgen.target" + std::to_string(k)))) {
        return;
      }
    }
  }

  // Soundness gate: the initial patch must verify. The generation procedure
  // is complete for this formulation, so failure here means the instance is
  // not rectifiable through the given targets.
  {
    Stage stage("eco.verify_initial", result);
    stage.arg("outputs", touched_pos.size());
    VerifyOutcome v = verifyPatches(ws, patches, touched_pos);
    if (!v.equivalent) {
      result.success = false;
      result.message = "unrectifiable: initial patch fails verification at output " +
                       std::to_string(v.failing_output);
      result.counterexample = std::move(v.cex_inputs);
      return;
    }
  }
  assembleResult(instance, candidates, patches, result);
  result.initial_cost = result.cost;
  result.initial_size = result.size;
  if (budgetExhausted("verify_initial")) {
    // The initial patch verified, so the budgeted result is still a
    // correct (just unoptimized) patch; report it as such.
    result.success = true;
    result.message += " (returning unoptimized patch)";
    return;
  }

  // Cost optimization (Sec. 6): per-target rebasing with Watch/Hold/CPB
  // base selection, holding the other targets' patches fixed. A cluster
  // whose patch it replaces is dirty.
  std::vector<bool> dirty(clusters.size(), false);
  if (options.use_cost_opt) {
    Stage stage("eco.opt", result);
    // Cheapest-first candidate cap; per-target bases are appended below.
    std::vector<std::uint32_t> cheap_order(candidates.size());
    for (std::uint32_t i = 0; i < candidates.size(); ++i) cheap_order[i] = i;
    std::sort(cheap_order.begin(), cheap_order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return candidates[a].weight != candidates[b].weight
                           ? candidates[a].weight < candidates[b].weight
                           : a < b;
              });
    cheap_order.resize(
        std::min<std::size_t>(cheap_order.size(), options.max_candidates));

    std::unordered_map<std::string, std::uint32_t> candidate_by_name;
    for (std::uint32_t i = 0; i < candidates.size(); ++i) {
      candidate_by_name.emplace(candidates[i].name, i);
    }

    // Cluster lookup per target.
    std::vector<std::size_t> cluster_of(alpha);
    for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
      for (const std::uint32_t t : clusters[ci].targets) cluster_of[t] = ci;
    }

    for (std::uint32_t round = 0; round < options.opt_rounds; ++round) {
      ECO_OBS_GAUGE_SET("eco.opt_round", round + 1);
      bool improved = false;
      for (std::uint32_t k = 0; k < alpha; ++k) {
        const TargetCluster& cluster = clusters[cluster_of[k]];
        if (cluster.outputs.empty()) continue;  // patch is trivially const
        obs::Span target_span("eco.opt_target");
        target_span.arg("target", k);

        // Candidate universe for this target: cheap prefix + current base.
        std::vector<std::uint32_t> universe = cheap_order;
        std::unordered_set<std::uint32_t> in_universe(universe.begin(),
                                                      universe.end());
        std::vector<std::uint32_t> initial;
        bool base_ok = true;
        for (const Candidate& in : patches[k].inputs) {
          const auto it = candidate_by_name.find(in.name);
          if (it == candidate_by_name.end()) {
            base_ok = false;
            break;
          }
          if (in_universe.insert(it->second).second) {
            universe.push_back(it->second);
          }
        }
        if (!base_ok) continue;
        std::vector<Candidate> cand_k;
        std::unordered_map<std::uint32_t, std::uint32_t> local_of_global;
        for (const std::uint32_t g : universe) {
          local_of_global[g] = static_cast<std::uint32_t>(cand_k.size());
          cand_k.push_back(candidates[g]);
        }
        for (const Candidate& in : patches[k].inputs) {
          initial.push_back(local_of_global.at(candidate_by_name.at(in.name)));
        }

        // Signals other targets already pay for are free here.
        std::unordered_set<std::string> shared_names;
        if (options.account_shared_bases) {
          for (std::uint32_t j = 0; j < alpha; ++j) {
            if (j == k) continue;
            for (const Candidate& in : patches[j].inputs) {
              shared_names.insert(in.name);
            }
          }
        }
        std::vector<double> eff_weight(cand_k.size());
        for (std::size_t i = 0; i < cand_k.size(); ++i) {
          eff_weight[i] =
              shared_names.count(cand_k[i].name) != 0 ? 0.0 : cand_k[i].weight;
        }

        // On/off-sets of t_k with every other target's patch substituted.
        VarMap repl;
        for (std::uint32_t j = 0; j < alpha; ++j) {
          if (j == k) continue;
          repl[ws.t_pis[j].var()] = composePatchInWorkspace(ws, patches[j]);
        }
        std::vector<Lit> f_fixed, g_fixed;
        for (const std::uint32_t j : cluster.outputs) {
          f_fixed.push_back(ws.f_roots[j]);
          g_fixed.push_back(ws.g_roots[j]);
        }
        f_fixed = substitute(ws.w, f_fixed, repl);
        const OnOffSets oo = buildOnOff(ws.w, f_fixed, g_fixed, ws.t_pis[k]);

        RebaseOracle oracle(ws, oo.on, oo.off, cand_k);
        if (!oracle.feasible(initial)) continue;  // defensive

        const BaseSelection sel =
            selectBase(oracle, eff_weight, initial, options);

        double old_cost = 0;
        for (const std::uint32_t i : initial) old_cost += eff_weight[i];
        const std::uint32_t old_size = patches[k].fn.numAnds();
        if (sel.cost > old_cost) continue;

        auto synth = synthesizeOverBase(ws, oo.on, oo.off, cand_k, sel.base,
                                        kItpConflictBudget);
        if (!synth) continue;
        const std::uint32_t new_size = synth->numAnds();
        if (sel.cost == old_cost && new_size >= old_size) continue;

        TargetPatch np;
        np.target = k;
        np.fn = std::move(*synth);
        for (const std::uint32_t i : sel.base) np.inputs.push_back(cand_k[i]);
        if (options.minimize_patches) {
          MinimizeOptions mo;
          mo.seed = options.seed;
          np.fn = minimizeAig(np.fn, mo);
        }
        pruneUnusedInputs(np);
        patches[k] = std::move(np);
        dirty[cluster_of[k]] = true;
        improved = true;
      }
      if (!improved) break;
    }
  }
  if (options.use_cost_opt && check_level >= check::Level::kStage) {
    Stage stage("eco.audit_opt", result);
    if (auditFailed(check::auditAig(ws.w, "opt.workspace"))) return;
    if (check_level >= check::Level::kParanoid) {
      for (std::uint32_t k = 0; k < alpha; ++k) {
        if (auditFailed(check::auditAig(patches[k].fn,
                                        "opt.target" + std::to_string(k)))) {
          return;
        }
      }
    }
  }

  // Final verification (defense in depth for the optimization stage). A
  // failure here is an engine defect, not an instance property — the
  // initial patch verified, so optimization broke it. Reported as a failed
  // result (message prefixed "internal error") rather than aborting, so the
  // QA harness can catch, log, and shrink it. Only the dirty clusters'
  // outputs can have changed since verify_initial.
  {
    Stage stage("eco.verify_final", result);
    std::vector<std::uint32_t> changed_pos;
    for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
      if (!dirty[ci]) continue;
      changed_pos.insert(changed_pos.end(), clusters[ci].outputs.begin(),
                         clusters[ci].outputs.end());
    }
    std::sort(changed_pos.begin(), changed_pos.end());
    stage.arg("outputs", changed_pos.size());
    VerifyOutcome v = verifyPatches(ws, patches, changed_pos);
    if (!v.equivalent) {
      result.success = false;
      result.message =
          "internal error: optimized patch failed verification at output " +
          std::to_string(v.failing_output);
      result.counterexample = std::move(v.cex_inputs);
      return;
    }
  }
  assembleResult(instance, candidates, patches, result);
  result.success = true;
  result.message = "ok";

  // Final contract gate: the assembled result must satisfy the patch/engine
  // contract before it is handed out as a success.
  if (check_level >= check::Level::kStage) {
    Stage stage("eco.audit_final", result);
    check::PatchAuditOptions pao;
    pao.require_pruned_inputs = options.minimize_patches;
    auditFailed(check::auditPatchContract(instance, result, pao, "final.patch"));
  }
}

}  // namespace

PatchResult EcoEngine::run(const EcoInstance& instance) const {
  // Every stage is a Stage: its timed span feeds the Chrome trace (when a
  // session is recording) and its row in `stage_resources`, from which the
  // PatchResult stage times are filled below.
  obs::Span run_span("eco.run", obs::Span::Mode::kTimed);
  // Live status: "engine.stage" tracks the in-flight stage; nested
  // ProgressScopes restore the enclosing value, so a postmortem dumped
  // mid-stage (CheckError, fatal signal, budget) names where the run was.
  obs::ProgressScope run_scope("engine.stage", "run");
  const std::uint64_t sat_conflicts0 = obs::counterValue("sat.conflicts");
  const obs::ResourceUsage run_usage0 = obs::currentUsage();
  PatchResult result;
  std::optional<ThreadPool> pool;  // alive for the per-thread rows below
  runStages(instance, options_, run_span, pool, result);

  // Process-wide SAT effort attributed to this run; exact for a single
  // engine, an upper bound when several engines run concurrently.
  result.sat_conflicts = obs::counterValue("sat.conflicts") - sat_conflicts0;
  result.seconds = run_span.stop();
  const obs::ResourceUsage used = obs::usageSince(run_usage0);
  result.cpu_seconds = used.cpu_seconds;
  result.peak_rss_bytes = used.peak_rss_bytes;
  result.alloc_count = used.alloc_count;
  result.alloc_bytes = used.alloc_bytes;
  for (const auto& row : obs::snapshotResources().threads) {
    result.thread_cpu_seconds.emplace_back(row.name, row.cpu_seconds);
  }
  for (const StageResource& row : result.stage_resources) {
    if (row.stage == "fraig") result.fraig_seconds = row.seconds;
    if (row.stage == "patchgen") result.patchgen_seconds = row.seconds;
    if (row.stage == "opt") result.opt_seconds = row.seconds;
    if (row.stage.starts_with("verify_")) result.verify_seconds += row.seconds;
  }
  ECO_OBS_COUNT("eco.runs", 1);
  // Interned directly (not via ECO_OBS_COUNT): the macro's static
  // reference would bind to whichever outcome happened first.
  const char* outcome = result.success ? "eco.runs_ok" : "eco.runs_failed";
  obs::counter(outcome).add(1);
  obs::flightRecordCount(outcome, 1);
  return result;
}

}  // namespace eco

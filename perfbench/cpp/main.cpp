// eco_perfbench, the ECO benchmark program: times the engine's public entry points
// (io::loadInstance, then EcoEngine::run) over one workload's instances,
// checks every result with the independent qa oracle outside the timed
// region, and prints the metrics as one JSON line, the last on stdout.
//
// Usage:
//   eco_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Every run first loads the instances several times (setup_s), then makes
// one untimed pass over them, then repeats timed passes until S seconds have
// gone (at least one). Every result must match the first pass's exactly in
// cost, size and SAT conflicts. One-pass workloads (a single pass outlasts
// S) skip the untimed pass and time exactly one pass.
//
// --trace 0 reports the end-to-end metrics. --trace 1 makes untraced timed
// passes for half of S, then as many passes inside an obs trace session, and
// reports the per-layer metrics; it writes DIR/<workload>-seed<N>.trace.json
// (Chrome trace) and DIR/<workload>-seed<N>.layers.txt (self-time table).
//
// Exit codes: 0 ok; 1 a wrong or nondeterministic result (the result line
// says "correct": false) or an input that does not load; 2 a usage error or
// a build without NDEBUG.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "eco/engine.h"
#include "eco/relations.h"
#include "fraig/fraig.h"
#include "io/instance_io.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "qa/oracle.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// io::loadInstance rounds per run: at least this many and this long, so
/// the median (setup_s) rests on many samples even when a load takes 3 ms.
constexpr std::uint32_t kSetupReps = 7;
constexpr double kSetupSeconds = 0.5;
/// ThreadPool spawn+join repetitions; pool.spawn_s is their median.
constexpr std::uint32_t kSpawnReps = 21;

// ---------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// Whole-string unsigned decimal; nullopt on empty, sign, junk or overflow.
std::optional<std::uint64_t> parseUnsigned(std::string_view text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

int usage(const std::string& problem) {
  std::fprintf(stderr, "eco_perfbench: %s\n", problem.c_str());
  std::fprintf(stderr,
               "usage: eco_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n  workloads:");
  for (const std::string_view n : workloadNames()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(n.size()), n.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Parses argv into `a`; returns the problem, or "" when well formed.
std::string parseArgs(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return flag + " needs a value";
    const std::string value = argv[i + 1];
    const auto number = [&](std::uint64_t lo, std::uint64_t hi,
                            std::uint64_t& out) -> std::string {
      const std::optional<std::uint64_t> v = parseUnsigned(value);
      if (!v || *v < lo || *v > hi) {
        return "bad " + flag + " '" + value + "' (want an integer in " +
               std::to_string(lo) + ".." + std::to_string(hi) + ")";
      }
      out = *v;
      return "";
    };
    std::uint64_t n = 0;
    std::string problem;
    if (flag == "--workload") {
      const auto& names = workloadNames();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        return "unknown workload '" + value + "'";
      }
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      problem = number(0, ~std::uint64_t{0}, n);
      a.seed = n;
    } else if (flag == "--seconds") {
      problem = number(1, 3600, n);
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      problem = number(0, 1, n);
      a.trace = n == 1;
    } else if (flag == "--out") {
      if (value.empty()) return "empty --out";
      a.out_dir = value;
    } else {
      return "unknown flag '" + flag + "'";
    }
    if (!problem.empty()) return problem;
  }
  return have_workload ? "" : "--workload is required";
}

// ------------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ running

/// Counters taken as deltas around every traced engine run.
constexpr const char* kCounters[] = {
    "sat.solve_calls",    "sat.conflicts",         "sat.decisions",
    "sat.propagations",   "sat.pre_runs",          "sat.pre_eliminated_vars",
    "sat.arena_gcs",      "sat.result_undef",      "itp.solve_calls",
    "itp.interpolants",   "itp.not_applicable",    "eco.itp_fallbacks",
    "fraig.sat_queries",  "fraig.rounds",          "fraig.counterexamples",
    "fraig.compress_calls",
};

using CounterMap = std::map<std::string, double>;

CounterMap readCounters() {
  CounterMap m;
  for (const char* name : kCounters) {
    m[name] = static_cast<double>(eco::obs::counterValue(name));
  }
  return m;
}

/// What must repeat exactly between the untimed, timed and traced runs.
struct Signature {
  bool success = false;
  double cost = 0;
  std::uint32_t size = 0;
  std::uint64_t conflicts = 0;
  bool operator==(const Signature&) const = default;
};

struct RunRecord {
  double wall_s = 0;
  double cpu_s = 0;
  eco::PatchResult result;
  std::string error;     ///< what the engine threw, if it threw
  CounterMap counters;   ///< deltas; filled on traced runs only

  Signature sig() const {
    return {result.success, result.cost, result.size, result.sat_conflicts};
  }
};

/// Times one EcoEngine::run: wall on the steady clock, CPU of the process.
RunRecord timedRun(const eco::EcoEngine& engine, const eco::EcoInstance& inst) {
  RunRecord rec;
  const double cpu0 = eco::obs::processCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  try {
    rec.result = engine.run(inst);
  } catch (const std::exception& e) {
    rec.error = e.what();
    if (rec.error.empty()) rec.error = "exception";
  }
  rec.wall_s = since(t0);
  rec.cpu_s = eco::obs::processCpuSeconds() - cpu0;
  return rec;
}

/// The independent verdict on one run; empty when the result is right.
std::string oracleVerdict(const BenchInstance& bi, const eco::EcoInstance& inst,
                          const RunRecord& rec) {
  if (!rec.error.empty()) return "engine threw: " + rec.error;
  const eco::PatchResult& r = rec.result;
  if (r.success) {
    const eco::qa::OracleReport rep = eco::qa::checkPatch(inst, r);
    return rep.ok ? "" : "oracle rejected the patch: " + rep.violations.front();
  }
  if (r.message.rfind("internal error", 0) == 0) return "engine defect: " + r.message;
  if (bi.known_rectifiable) return "rectifiable instance not patched: " + r.message;
  if (r.counterexample.empty() && inst.num_x != 0) {
    return "unrectifiable verdict without a counterexample: " + r.message;
  }
  const eco::qa::OracleReport rep = eco::qa::checkCounterexample(inst, r.counterexample);
  return rep.ok ? "" : "oracle rejected the counterexample: " + rep.violations.front();
}

using Pass = std::vector<RunRecord>;  ///< one record per instance

double passWall(const Pass& pass) {
  double s = 0;
  for (const RunRecord& r : pass) s += r.wall_s;
  return s;
}

class Bench {
 public:
  Bench(const Args& args, Workload workload)
      : args_(args), wl_(std::move(workload)), engine_(wl_.options()) {}

  /// Runs the whole protocol and prints the result line; returns the exit code.
  int run() { return args_.trace ? runTraced() : runEndToEnd(); }

 private:
  double timeLoads(std::uint32_t min_reps, double min_seconds);
  Pass timedPass(bool traced);
  /// Repeats untraced timed passes for `seconds` (at least one).
  std::vector<Pass> timedPasses(double seconds);
  /// The untimed pass that warms up and sets the reference signatures;
  /// skipped on one-pass workloads, whose first timed pass sets them.
  void untimedPass() {
    if (!wl_.one_pass) timedPass(false);
  }
  void fail(std::size_t i, const std::string& why);
  int finish(const std::vector<Metric>& metrics);
  int runEndToEnd();
  int runTraced();

  const Args& args_;
  Workload wl_;
  eco::EcoEngine engine_;
  std::vector<eco::EcoInstance> loaded_;
  std::vector<Signature> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void Bench::fail(std::size_t i, const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "FAIL %s: %s\n", wl_.instances[i].name.c_str(), why.c_str());
}

/// Loads every instance in rounds, at least `min_reps` of them and for at
/// least `min_seconds`; returns the median over rounds of the summed
/// io::loadInstance time. Leaves the last load in loaded_.
double Bench::timeLoads(std::uint32_t min_reps, double min_seconds) {
  loaded_.resize(wl_.instances.size());
  std::vector<double> sums;
  const Clock::time_point start = Clock::now();
  while (sums.size() < min_reps || (since(start) < min_seconds && sums.size() < 1000)) {
    double sum = 0;
    for (std::size_t i = 0; i < wl_.instances.size(); ++i) {
      const BenchInstance& bi = wl_.instances[i];
      const Clock::time_point t0 = Clock::now();
      eco::EcoInstance inst = eco::io::loadInstance(
          bi.files.faulty_v, bi.files.golden_v, bi.files.weights, bi.name);
      sum += since(t0);
      loaded_[i] = std::move(inst);
    }
    sums.push_back(sum);
  }
  return median(sums);
}

/// One timed pass. Each result is oracle-checked after its run, outside the
/// timed region, and compared with the reference signature (the first
/// pass sets it). A traced pass also re-enters through the loader and
/// records spans and counter deltas.
Pass Bench::timedPass(bool traced) {
  Pass pass;
  for (std::size_t i = 0; i < loaded_.size(); ++i) {
    const BenchInstance& bi = wl_.instances[i];
    CounterMap c0;
    if (traced) {
      eco::obs::Span s("bench.load");
      loaded_[i] = eco::io::loadInstance(bi.files.faulty_v, bi.files.golden_v,
                                         bi.files.weights, bi.name);
      c0 = readCounters();
    }
    RunRecord rec;
    {
      eco::obs::Span s("bench.run");
      rec = timedRun(engine_, loaded_[i]);
    }
    if (traced) {
      rec.counters = readCounters();
      for (auto& [name, v] : rec.counters) v -= c0[name];
    }
    ++attempted_;
    {
      eco::obs::Span s("bench.oracle");
      const std::string why = oracleVerdict(bi, loaded_[i], rec);
      if (i >= reference_.size()) reference_.push_back(rec.sig());
      if (!why.empty()) {
        fail(i, why);
      } else if (rec.sig() != reference_[i]) {
        fail(i, "cost, size or SAT conflicts differ from the untimed run");
      }
    }
    pass.push_back(std::move(rec));
  }
  return pass;
}

std::vector<Pass> Bench::timedPasses(double seconds) {
  std::vector<Pass> passes;
  const Clock::time_point t0 = Clock::now();
  do {
    passes.push_back(timedPass(false));
  } while (since(t0) < seconds);
  return passes;
}

int Bench::finish(const std::vector<Metric>& metrics) {
  const bool correct = failed_ == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: %llu of %llu runs wrong\n",
                 static_cast<unsigned long long>(failed_),
                 static_cast<unsigned long long>(attempted_));
  }
  printResult(correct, attempted_, failed_, metrics);
  return correct ? 0 : 1;
}

int Bench::runEndToEnd() {
  const double setup_s = timeLoads(kSetupReps, kSetupSeconds);
  untimedPass();
  const std::vector<Pass> passes = timedPasses(wl_.one_pass ? 0 : args_.seconds);

  const std::size_t n = wl_.instances.size();
  double wall = 0, cpu = 0, cost = 0, size = 0;
  std::vector<double> instance_walls;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> w, c;
    for (const Pass& p : passes) {
      w.push_back(p[i].wall_s);
      c.push_back(p[i].cpu_s);
    }
    instance_walls.push_back(median(w));
    wall += instance_walls.back();
    cpu += median(c);
    const eco::PatchResult& r = passes.front()[i].result;
    if (r.success) {
      cost += r.cost;
      size += r.size;
    }
    if (n <= 20 || instance_walls.back() > 0.5) {
      std::fprintf(stderr,
                   "  %-14s wall %9.4fs cpu %9.4fs cost %6g size %5u conflicts %9llu  "
                   "fraig %.3f patchgen %.3f opt %.3f verify %.3f\n",
                   wl_.instances[i].name.c_str(), instance_walls.back(), median(c),
                   r.cost, r.size, static_cast<unsigned long long>(r.sat_conflicts),
                   r.fraig_seconds, r.patchgen_seconds, r.opt_seconds, r.verify_seconds);
    }
  }
  std::fprintf(stderr, "passes %zu, instance_p50_s over %zu instances x %zu passes\n",
               passes.size(), n, passes.size());
  return finish({
      {"eco_wall_s", wall, "s"},
      {"eco_cpu_s", cpu, "s"},
      {"setup_s", setup_s, "s"},
      {"instance_p50_s", median(instance_walls), "s"},
      {"patch_cost", cost, "cost"},
      {"patch_size", size, "gates"},
      {"peak_rss_mb", static_cast<double>(eco::obs::peakRssBytes()) / 1e6, "MB"},
  });
}

int Bench::runTraced() {
  double input_bytes = 0;
  for (const BenchInstance& bi : wl_.instances) {
    input_bytes += static_cast<double>(bi.files.faulty_v.size() + bi.files.golden_v.size() +
                                       bi.files.weights.size());
  }
  timeLoads(1, 0);
  untimedPass();
  std::vector<double> untraced;
  for (const Pass& p : timedPasses(wl_.one_pass ? 0 : args_.seconds / 2)) {
    untraced.push_back(passWall(p));
  }

  eco::obs::setThreadName("main");
  eco::obs::startTrace();
  std::vector<Pass> traced;
  std::vector<double> traced_walls;
  for (std::size_t k = 0; k < untraced.size(); ++k) {
    traced.push_back(timedPass(true));
    traced_walls.push_back(passWall(traced.back()));
  }
  // The FRAIG sweep alone, on a workspace the benchmark builds itself, with
  // the workload's pool (built outside the timed span).
  double fraig_standalone = 0;
  {
    std::optional<eco::ThreadPool> pool;
    if (wl_.threads > 1) pool.emplace(wl_.threads);
    for (const eco::EcoInstance& inst : loaded_) {
      const eco::Workspace ws = eco::buildWorkspace(inst);
      std::vector<eco::Lit> roots = ws.f_roots;
      roots.insert(roots.end(), ws.g_roots.begin(), ws.g_roots.end());
      eco::fraig::Options fo;
      fo.seed = wl_.options().seed;
      fo.pool = pool ? &*pool : nullptr;
      eco::obs::Span s("bench.fraig_standalone", eco::obs::Span::Mode::kTimed);
      eco::fraig::computeEquivClasses(ws.w, roots, fo);
      fraig_standalone += s.stop();
    }
  }
  std::vector<double> spawns;
  for (std::uint32_t r = 0; r < kSpawnReps; ++r) {
    eco::obs::Span s("bench.pool_spawn", eco::obs::Span::Mode::kTimed);
    { eco::ThreadPool pool(3); }
    spawns.push_back(s.stop());
  }
  const eco::obs::TraceDump dump = eco::obs::stopTrace();

  // Per-pass sums over the traced runs.
  const double passes = static_cast<double>(traced.size());
  CounterMap c;
  double load = 0, run = 0, fraig = 0, patchgen = 0, opt = 0, verify = 0, setup_cpu = 0;
  double cost_saved = 0, size_saved = 0, cut = 0, alloc_b = 0, alloc_n = 0;
  double pool_cpu = 0, pool_capacity = 0;
  for (const Pass& p : traced) {
    for (const RunRecord& rec : p) {
      const eco::PatchResult& r = rec.result;
      for (const auto& [name, v] : rec.counters) c[name] += v / passes;
      run += r.seconds / passes;
      fraig += r.fraig_seconds / passes;
      patchgen += r.patchgen_seconds / passes;
      opt += r.opt_seconds / passes;
      verify += r.verify_seconds / passes;
      for (const eco::StageResource& sr : r.stage_resources) {
        if (sr.stage == "setup") setup_cpu += sr.cpu_seconds / passes;
      }
      if (r.success) {
        cost_saved += (r.initial_cost - r.cost) / passes;
        size_saved += (static_cast<double>(r.initial_size) - r.size) / passes;
      }
      cut += r.cut_size / passes;
      alloc_b += static_cast<double>(r.alloc_bytes) / passes;
      alloc_n += static_cast<double>(r.alloc_count) / passes;
      if (r.num_threads_used > 1) {
        for (const auto& [thread, cpu_s] : r.thread_cpu_seconds) {
          if (thread.rfind("pool-", 0) == 0) pool_cpu += cpu_s;
        }
        pool_capacity += r.num_threads_used * r.seconds;
      }
    }
  }
  const std::vector<LayerRow> rows = layerTable(dump);
  for (const LayerRow& r : rows) {
    if (r.name == "bench.load") load = r.total_s / passes;
  }

  // Where the time went, against the stage the workload is chosen for.
  const std::pair<const char*, double> stages[] = {
      {"fraig", fraig}, {"patchgen", patchgen}, {"opt", opt}, {"verify", verify}};
  const auto top = std::max_element(std::begin(stages), std::end(stages),
                                    [](const auto& a, const auto& b) { return a.second < b.second; });
  std::string dominant = top->first;
  if (wl_.expected_dominant == "fraig+verify" && fraig + verify > std::max(patchgen, opt)) {
    dominant = "fraig+verify";
  }
  const bool as_expected =
      wl_.expected_dominant.empty() || dominant == wl_.expected_dominant;

  const double untraced_wall = median(untraced);
  const double traced_wall = median(traced_walls);
  char summary[512];
  std::snprintf(summary, sizeof summary,
                "workload %s seed %llu: %zu traced pass(es); stage s/pass fraig %.4f "
                "patchgen %.4f opt %.4f verify %.4f; dominant stage %s (expected %s)%s; "
                "trace overhead %+.2f%% (untraced %.4fs, traced %.4fs per pass)\n",
                wl_.name.c_str(), static_cast<unsigned long long>(args_.seed), traced.size(),
                fraig, patchgen, opt, verify, dominant.c_str(),
                wl_.expected_dominant.empty() ? "any" : wl_.expected_dominant.c_str(),
                as_expected ? "" : " MISMATCH",
                untraced_wall > 0 ? 100 * (traced_wall / untraced_wall - 1) : 0.0,
                untraced_wall, traced_wall);
  const std::string table = formatLayerTable(rows, static_cast<std::uint32_t>(traced.size()));
  const std::string stem =
      args_.out_dir + "/" + wl_.name + "-seed" + std::to_string(args_.seed);
  std::string error;
  if (!eco::obs::writeChromeTrace(stem + ".trace.json", dump, &error)) {
    std::fprintf(stderr, "perfbench: cannot write the trace: %s\n", error.c_str());
    return 1;
  }
  std::ofstream(stem + ".layers.txt") << summary << table;
  std::fprintf(stderr, "%s%s(wrote %s.trace.json, %zu events, %llu dropped)\n", summary,
               table.c_str(), stem.c_str(), dump.events.size(),
               static_cast<unsigned long long>(dump.dropped_events));

  const double solves = c["sat.solve_calls"];
  return finish({
      {"io.load_s", load, "s"},
      {"io.input_bytes", input_bytes, "B"},
      {"eco.setup_cpu_s", setup_cpu, "s"},
      {"eco.fraig_s", fraig, "s"},
      {"eco.patchgen_s", patchgen, "s"},
      {"eco.opt_s", opt, "s"},
      {"eco.verify_s", verify, "s"},
      {"eco.unattributed_s", run - fraig - patchgen - opt - verify, "s"},
      {"opt.cost_saved", cost_saved, "cost"},
      {"opt.size_saved", size_saved, "gates"},
      {"opt.s_per_cost_saved", cost_saved > 0 ? opt / cost_saved : 0, "s/cost"},
      {"patchgen.cut_size", cut, "count"},
      {"itp.solve_calls", c["itp.solve_calls"], "count"},
      {"itp.interpolants", c["itp.interpolants"], "count"},
      {"itp.not_applicable", c["itp.not_applicable"], "count"},
      {"eco.itp_fallbacks", c["eco.itp_fallbacks"], "count"},
      {"eco.alloc_bytes", alloc_b, "B"},
      {"eco.alloc_count", alloc_n, "count"},
      {"fraig.sat_queries", c["fraig.sat_queries"], "count"},
      {"fraig.rounds", c["fraig.rounds"], "count"},
      {"fraig.counterexamples", c["fraig.counterexamples"], "count"},
      {"fraig.compress_calls", c["fraig.compress_calls"], "count"},
      {"fraig.standalone_s", fraig_standalone, "s"},
      {"sat.solve_calls", solves, "count"},
      {"sat.conflicts", c["sat.conflicts"], "count"},
      {"sat.decisions", c["sat.decisions"], "count"},
      {"sat.propagations", c["sat.propagations"], "count"},
      {"sat.pre_runs", c["sat.pre_runs"], "count"},
      {"sat.pre_eliminated_vars", c["sat.pre_eliminated_vars"], "count"},
      {"sat.arena_gcs", c["sat.arena_gcs"], "count"},
      {"sat.props_per_conflict",
       c["sat.conflicts"] > 0 ? c["sat.propagations"] / c["sat.conflicts"] : 0, "ratio"},
      {"sat.undef_frac", solves > 0 ? c["sat.result_undef"] / solves : 0, "ratio"},
      {"pool.busy_frac", pool_capacity > 0 ? pool_cpu / pool_capacity : 0, "ratio"},
      {"pool.spawn_s", median(spawns), "s"},
      {"obs.trace_overhead_frac",
       untraced_wall > 0 ? traced_wall / untraced_wall - 1 : 0, "ratio"},
      {"trace.self_s.eco", moduleSelfSeconds(rows, "eco") / passes, "s"},
      {"trace.self_s.fraig", moduleSelfSeconds(rows, "fraig") / passes, "s"},
      {"trace.self_s.sat", moduleSelfSeconds(rows, "sat") / passes, "s"},
      {"trace.self_s.itp", moduleSelfSeconds(rows, "itp") / passes, "s"},
  });
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (const std::string problem = parseArgs(argc, argv, args); !problem.empty()) {
    return usage(problem);
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "eco_perfbench: built without NDEBUG (build type '%s'); debug builds "
               "check every interpolant proof and measure a different program\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  std::fprintf(stderr, "perfbench: workload %s seed %llu seconds %g trace %d build %s "
               "nproc %u\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
               PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  std::optional<Workload> wl = makeWorkload(args.workload, args.seed);
  std::fprintf(stderr, "perfbench: %zu instance(s), %u thread(s), cost opt %s\n",
               wl->instances.size(), wl->threads, wl->cost_opt ? "on" : "off");
  Bench bench(args, std::move(*wl));
  try {
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s; no result reported\n", e.what());
    return 1;
  }
}

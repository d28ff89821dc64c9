// Parallel scaling of the ECO engine (thread pool, DESIGN.md "Parallel
// architecture"): sweeps worker counts {1, 2, 4, 8} over a tiled
// multi-cluster instance and emits one JSON document with per-stage
// wall-clock, solver-call counters, and speedup relative to the
// single-thread run.
//
// The workload tiles K independent benchgen units into one EcoInstance
// (benchgen::tileInstances), so the engine sees K-plus clusters — the unit
// of per-cluster parallelism.
// Cost optimization is disabled by default: it is intentionally sequential
// (globally stateful base selection), so including it would only dilute
// the stages this bench measures. The patch must be bit-identical across
// all worker counts; any divergence is reported and fails the bench.
//
// Usage: bench_parallel_scaling [tiles] [size_param] [num_targets] [out.json]
// The three counts must be positive decimal integers; a malformed or zero
// value exits 2 with a usage line (exit 1 means a run failed or diverged).
// Defaults (6, 16, 5) finish in under a minute on one core; the JSON
// document also lands in BENCH_parallel.json ("-" disables the file).
// Speedup > 1 requires actual hardware parallelism; on a single-CPU machine
// the interesting output is the overhead column staying near 1.0.

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "benchgen/benchgen.h"
#include "benchgen/faults.h"
#include "eco/engine.h"
#include "obs/json.h"

namespace eco {
namespace {

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "bench_parallel_scaling: %s\n"
               "usage: bench_parallel_scaling [tiles] [size_param] "
               "[num_targets] [out.json|-]\n",
               problem);
  std::exit(2);
}

/// Parses a whole decimal argument in [1, 2^32); anything else (atoi's
/// silent 0, trailing garbage, zero, overflow) is a usage error.
unsigned parsePositive(const char* s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || *s == '-' || errno == ERANGE || v == 0 ||
      v > 0xffffffffULL) {
    const std::string msg = std::string("expected a positive integer for ") +
                            what + ", got '" + s + "'";
    usage(msg.c_str());
  }
  return static_cast<unsigned>(v);
}

struct RunSample {
  std::uint32_t threads = 0;
  PatchResult result;
  double seconds = 0;
};

}  // namespace
}  // namespace eco

int main(int argc, char** argv) {
  using namespace eco;

  if (argc > 5) usage("too many arguments");
  const unsigned tiles = argc > 1 ? parsePositive(argv[1], "tiles") : 6;
  const unsigned size_param = argc > 2 ? parsePositive(argv[2], "size_param") : 16;
  const unsigned num_targets = argc > 3 ? parsePositive(argv[3], "num_targets") : 5;
  const std::string json_path = argc > 4 ? argv[4] : "BENCH_parallel.json";

  std::vector<EcoInstance> parts;
  for (unsigned i = 0; i < tiles; ++i) {
    parts.push_back(benchgen::generateUnit({.name = "p" + std::to_string(i),
                                            .family = benchgen::Family::Parity,
                                            .size_param = size_param,
                                            .num_targets = num_targets,
                                            .seed = 900 + i}));
  }
  const EcoInstance inst = benchgen::tileInstances(parts, "tiled_parity");

  std::vector<RunSample> samples;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    EcoOptions opt;
    opt.num_threads = threads;
    opt.use_cost_opt = false;
    const auto t0 = std::chrono::steady_clock::now();
    RunSample s;
    s.threads = threads;
    s.result = EcoEngine(opt).run(inst);
    s.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    samples.push_back(std::move(s));
    std::fprintf(stderr, "threads=%u done in %.2fs\n", threads,
                 samples.back().seconds);
  }

  const RunSample& ref = samples.front();
  bool deterministic = true;
  bool all_ok = true;
  for (const RunSample& s : samples) {
    all_ok = all_ok && s.result.success;
    deterministic = deterministic && s.result.cost == ref.result.cost &&
                    s.result.size == ref.result.size &&
                    s.result.num_clusters == ref.result.num_clusters;
  }

  obs::JsonWriter w;
  w.beginObject();
  w.key("schema"); w.value("ecopatch-bench-parallel");
  w.key("schema_version"); w.value(std::int64_t{1});
  w.key("bench"); w.value("parallel_scaling");
  w.key("workload");
  w.beginObject();
  w.key("instance"); w.value(inst.name);
  w.key("tiles"); w.value(std::uint64_t{tiles});
  w.key("size_param"); w.value(std::uint64_t{size_param});
  w.key("num_targets"); w.value(std::uint64_t{num_targets});
  w.key("clusters"); w.value(static_cast<std::uint64_t>(ref.result.num_clusters));
  w.key("cost_opt"); w.value(false);
  w.endObject();
  w.key("hardware_threads");
  w.value(static_cast<std::uint64_t>(ThreadPool::defaultThreads()));
  w.key("runs");
  w.beginArray();
  for (const RunSample& s : samples) {
    w.beginObject();
    w.key("threads"); w.value(static_cast<std::uint64_t>(s.threads));
    w.key("ok"); w.value(s.result.success);
    w.key("total_seconds"); w.valueFixed(s.seconds, 3);
    w.key("fraig_seconds"); w.valueFixed(s.result.fraig_seconds, 3);
    w.key("patchgen_seconds"); w.valueFixed(s.result.patchgen_seconds, 3);
    w.key("verify_seconds"); w.valueFixed(s.result.verify_seconds, 3);
    w.key("fraig_sat_queries"); w.value(s.result.fraig_sat_queries);
    w.key("fraig_rounds");
    w.value(static_cast<std::uint64_t>(s.result.fraig_rounds));
    w.key("sat_conflicts"); w.value(s.result.sat_conflicts);
    w.key("cost"); w.valueFixed(s.result.cost, 1);
    w.key("size"); w.value(static_cast<std::uint64_t>(s.result.size));
    w.key("speedup_vs_1");
    w.valueFixed(s.seconds > 0 ? ref.seconds / s.seconds : 0.0, 3);
    w.endObject();
  }
  w.endArray();
  w.key("deterministic"); w.value(deterministic);
  w.key("all_ok"); w.value(all_ok);
  w.endObject();

  const std::string doc = w.take();
  std::printf("%s\n", doc.c_str());
  if (json_path != "-") {
    std::ofstream out(json_path);
    if (out) {
      out << doc;
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "bench_parallel_scaling: cannot write '%s'\n",
                   json_path.c_str());
    }
  }

  return all_ok && deterministic ? 0 : 1;
}

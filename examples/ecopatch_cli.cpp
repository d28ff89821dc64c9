// ecopatch_cli — command-line driver for the full ECO flow.
//
//   ecopatch_cli -f F.v -g G.v -w weights.txt [-o patch.v] [options]
//
// Options:
//   --no-localization      disable the Sec. 5 cut re-expression
//   --no-cost-opt          disable the Sec. 6 base selection
//   --no-minimize          keep raw patch structure
//   --itp-first            try interpolation before the on-set fallback
//   --pi-only              restrict bases to primary inputs (baseline mode)
//   --watch N              |Watch| group size (default 5)
//   --rounds N             optimization rounds (default 2)
//   --seed N               RNG seed
//   --threads N            worker threads (0 = hardware concurrency,
//                          1 = sequential; default 0)
//   --check[=LEVEL]        run the invariant-audit layer: bare --check
//                          audits at stage boundaries; LEVEL is
//                          off|stage|paranoid (paranoid adds per-GC solver
//                          audits). Default: the ECO_CHECK environment
//                          variable. An audit failure prints the
//                          machine-readable report on stderr
//   --json FILE            write a machine-readable run report (see
//                          eco/report_json.h for the schema)
//   --trace FILE           record a Chrome trace_event JSON of the run,
//                          viewable in chrome://tracing or Perfetto
//   --status-fd N          write "ecopatch-status" JSON lines to file
//                          descriptor N every 2 seconds and on SIGUSR1
//                          (SIGUSR1 works even without --status-fd=stderr:
//                          the emitter thread owns the write)
//   --postmortem FILE      dump a flight-recorder postmortem JSON to FILE
//                          on a crash signal, invariant-audit failure, or
//                          engine budget exhaustion
//   --time-budget S        fail the run once it exceeds S wall-clock
//                          seconds (checked at stage boundaries; 0 =
//                          unlimited)
//   --quiet                suppress the stage report
//
// Exit codes: 0 patched+verified; 1 usage/parse error, or a patch, --json
// or --trace file that cannot be written (a lost report wins over 2, so
// exit 2 always means the report asked for was written); 2 no verified
// patch (unrectifiable, time budget exhausted, or an internal error such
// as a failed invariant audit).

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "eco/engine.h"
#include "eco/report.h"
#include "eco/report_json.h"
#include "io/instance_io.h"
#include "io/verilog.h"
#include "obs/flight_recorder.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "ecopatch: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: ecopatch_cli -f faulty.v -g golden.v -w weights.txt "
               "[-o patch.v] [--no-localization] [--no-cost-opt] "
               "[--no-minimize] [--itp-first] [--pi-only] [--watch N] "
               "[--rounds N] [--seed N] [--threads N] [--check[=LEVEL]] "
               "[--json FILE] [--trace FILE] [--status-fd N] "
               "[--postmortem FILE] [--time-budget S] [--quiet]\n");
  std::exit(1);
}

bool writeTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

// atoi/atoll silently return 0 on garbage, and strtoull turns "-1" into
// ULLONG_MAX; accept only a whole decimal number that fits T, so no value
// is truncated on its way into an option field.
template <typename T>
T parseNumber(const char* s) {
  const unsigned long long max = std::numeric_limits<T>::max();
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0' ||
      errno == ERANGE || v > max) {
    std::fprintf(stderr, "ecopatch: expected a number in [0, %llu], got '%s'\n", max, s);
    usage();
  }
  return static_cast<T>(v);
}

double parseSeconds(const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v >= 0)) {
    std::fprintf(stderr,
                 "ecopatch: expected a non-negative number of seconds, "
                 "got '%s'\n",
                 s);
    usage();
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eco;

  std::string f_path, g_path, w_path, out_path, json_path, trace_path;
  std::string postmortem_path;
  EcoOptions opt;
  bool quiet = false;
  int status_fd = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "-f") {
      f_path = next();
    } else if (a == "-g") {
      g_path = next();
    } else if (a == "-w") {
      w_path = next();
    } else if (a == "-o") {
      out_path = next();
    } else if (a == "--no-localization") {
      opt.use_localization = false;
    } else if (a == "--no-cost-opt") {
      opt.use_cost_opt = false;
    } else if (a == "--no-minimize") {
      opt.minimize_patches = false;
    } else if (a == "--itp-first") {
      opt.try_interpolation_first = true;
    } else if (a == "--pi-only") {
      opt.pi_candidates_only = true;
    } else if (a == "--watch") {
      opt.watch_size = parseNumber<std::uint32_t>(next());
    } else if (a == "--rounds") {
      opt.opt_rounds = parseNumber<std::uint32_t>(next());
    } else if (a == "--seed") {
      opt.seed = parseNumber<std::uint64_t>(next());
    } else if (a == "--threads") {
      opt.num_threads = parseNumber<std::uint32_t>(next());
    } else if (a == "--check") {
      opt.check_level = check::Level::kStage;
    } else if (a.rfind("--check=", 0) == 0) {
      const auto level = check::parseLevel(a.substr(8));
      if (!level) {
        std::fprintf(stderr, "ecopatch: bad --check level '%s'\n",
                     a.substr(8).c_str());
        usage();
      }
      opt.check_level = *level;
    } else if (a == "--json") {
      json_path = next();
    } else if (a == "--trace") {
      trace_path = next();
    } else if (a == "--status-fd") {
      status_fd = parseNumber<int>(next());
    } else if (a == "--postmortem") {
      postmortem_path = next();
    } else if (a == "--time-budget") {
      opt.time_budget_seconds = parseSeconds(next());
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "ecopatch: unknown option '%s'\n", a.c_str());
      usage();
    }
  }
  if (f_path.empty() || g_path.empty() || w_path.empty()) usage();

  EcoInstance inst;
  try {
    inst = io::loadInstance(readFile(f_path), readFile(g_path),
                            readFile(w_path), f_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecopatch: %s\n", e.what());
    return 1;
  }

  if (!postmortem_path.empty()) {
    obs::setPostmortemPath(postmortem_path.c_str());
    obs::installCrashHandlers();
  }
  // SIGUSR1 always asks for a status line; without --status-fd the emitter
  // defaults to stderr so a plain `kill -USR1` is never a silent no-op.
  obs::installStatusSignalHandler();
  obs::startStatusEmitter(status_fd >= 0 ? status_fd : 2,
                          status_fd >= 0 ? 2.0 : 0.0);

  if (!trace_path.empty()) obs::startTrace();
  const PatchResult r = EcoEngine(opt).run(inst);
  obs::stopStatusEmitter();
  bool report_lost = false;  // a requested --trace or --json file not written
  if (!trace_path.empty()) {
    const obs::TraceDump dump = obs::stopTrace();
    std::string trace_error;
    if (!obs::writeChromeTrace(trace_path, dump, &trace_error)) {
      std::fprintf(stderr, "ecopatch: %s\n", trace_error.c_str());
      report_lost = true;
    } else if (!quiet) {
      std::printf("trace written to %s (%zu events)\n", trace_path.c_str(),
                  dump.events.size());
    }
  }
  if (!json_path.empty() &&
      !writeTextFile(json_path, writeJsonReport(inst, r))) {
    std::fprintf(stderr, "ecopatch: cannot write '%s'\n", json_path.c_str());
    report_lost = true;
  }
  if (!r.success) {
    std::fprintf(stderr, "ecopatch: %s\n", r.message.c_str());
    if (!r.audit_json.empty()) {
      std::fprintf(stderr, "%s\n", r.audit_json.c_str());
    }
    return report_lost ? 1 : 2;
  }
  if (!quiet) std::printf("%s", formatRunReport(inst, r).c_str());
  const std::string patch_text = io::writeVerilog(r.patch, "patch");
  if (out_path.empty()) {
    std::printf("%s", patch_text.c_str());
  } else {
    if (!writeTextFile(out_path, patch_text)) {
      std::fprintf(stderr, "ecopatch: cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    if (!quiet) std::printf("patch written to %s\n", out_path.c_str());
  }
  return report_lost ? 1 : 0;
}

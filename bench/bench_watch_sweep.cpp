// E4 — |Watch| (beta) sweep (Sec. 6.2): the paper reports |Watch| = 5 as a
// good quality/performance trade-off; counterexample enumeration is bounded
// by 2^|Watch| x |B'| SAT calls, so runtime rises with beta; the paper
// expects cost to fall.

#include <cstdio>

#include "benchgen/benchgen.h"
#include "eco/engine.h"

int main() {
  using namespace eco;

  std::printf("E4: |Watch| = beta sweep (Sec. 6.2, paper default beta = 5)\n");
  const std::uint32_t betas[] = {1, 2, 3, 5, 8};

  const auto suite = benchgen::contestSuite();
  const char* selected[] = {"unit05", "unit06", "unit09", "unit16", "unit20"};

  std::printf("%-8s", "ckt");
  for (const std::uint32_t b : betas) std::printf(" | b=%-2u cost     time", b);
  std::printf("\n");

  int rc = 0;
  for (const char* name : selected) {
    const benchgen::UnitSpec* spec = nullptr;
    for (const auto& s : suite) {
      if (s.name == name) spec = &s;
    }
    if (!spec) continue;
    const EcoInstance inst = benchgen::generateUnit(*spec);
    std::printf("%-8s", name);
    for (const std::uint32_t beta : betas) {
      EcoOptions opt;
      opt.watch_size = beta;
      const PatchResult r = EcoEngine(opt).run(inst);
      if (!r.success) {
        std::printf(" |   FAILED        ");
        rc = 1;
        continue;
      }
      std::printf(" | %9.1f %7.2fs", r.cost, r.seconds);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\npaper's shape: cost non-increasing in beta, runtime increasing.\n"
              "On this suite cost is not monotone (unit20: 6 at beta = 1, 20 above;\n"
              "unit09: 31 at beta = 2, 32 above); see EXPERIMENTS.md E4.\n");
  return rc;
}

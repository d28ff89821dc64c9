// Tests for whole-instance save/load in the contest file layout, including
// the end-to-end property: save -> load -> rectify -> verified patch.

#include <gtest/gtest.h>

#include <stdexcept>

#include "benchgen/benchgen.h"
#include "eco/engine.h"
#include "io/instance_io.h"

namespace eco::io {
namespace {

TEST(InstanceIo, SaveLoadRoundTrip) {
  benchgen::UnitSpec spec{.name = "rt",
                          .family = benchgen::Family::Comparator,
                          .size_param = 4,
                          .num_targets = 2,
                          .seed = 99};
  const EcoInstance orig = benchgen::generateUnit(spec);
  const InstanceFiles files = saveInstance(orig);
  const EcoInstance back =
      loadInstance(files.faulty_v, files.golden_v, files.weights, "rt");

  EXPECT_EQ(back.num_x, orig.num_x);
  EXPECT_EQ(back.numTargets(), orig.numTargets());
  EXPECT_EQ(back.faulty.numPos(), orig.faulty.numPos());
  // Functions agree (targets tied identically on both sides).
  for (std::uint32_t m = 0; m < (1u << std::min(orig.faulty.numPis(), 12u));
       ++m) {
    std::vector<bool> in(orig.faulty.numPis());
    for (std::uint32_t i = 0; i < in.size(); ++i) in[i] = (m >> i) & 1;
    ASSERT_EQ(orig.faulty.evaluate(in), back.faulty.evaluate(in)) << m;
  }
  // Weights survive for every carried name.
  for (const auto& [name, w] : back.weights) {
    const auto it = orig.weights.find(name);
    if (it != orig.weights.end()) {
      EXPECT_DOUBLE_EQ(w, it->second) << name;
    }
  }
}

TEST(InstanceIo, LoadedInstanceRectifies) {
  benchgen::UnitSpec spec{.name = "solve",
                          .family = benchgen::Family::Alu,
                          .size_param = 3,
                          .num_targets = 2,
                          .seed = 4242,
                          .pi_weight = 12};
  const EcoInstance orig = benchgen::generateUnit(spec);
  const InstanceFiles files = saveInstance(orig);
  const EcoInstance inst =
      loadInstance(files.faulty_v, files.golden_v, files.weights, "solve");
  const PatchResult r = EcoEngine().run(inst);
  ASSERT_TRUE(r.success) << r.message;
  // Weight continuity: the optimizer can see the same cheap internal
  // signals by name, so the final cost must be well below all-PI cost.
  double pi_cost = 0;
  for (std::uint32_t i = 0; i < inst.num_x; ++i) {
    pi_cost += inst.weightOf(inst.faulty.piName(i));
  }
  EXPECT_LT(r.cost, pi_cost);
}

TEST(InstanceIo, RejectsMismatchedInputs) {
  const std::string f = R"(
module top ( a, o );
input a;
output o;
wire t0;
buf g1 ( o, t0 );
endmodule
)";
  const std::string g = R"(
module top ( b, o );
input b;
output o;
buf g1 ( o, b );
endmodule
)";
  EXPECT_THROW(loadInstance(f, g, ""), std::runtime_error);
}

TEST(InstanceIo, RejectsReorderedOutputs) {
  // Outputs pair by position: a golden that only reorders its outputs
  // would otherwise be compared against the wrong faulty outputs.
  const std::string f = R"(
module top ( a, b, o0, o1 );
input a, b;
output o0, o1;
wire t0;
buf g1 ( o0, t0 );
buf g2 ( o1, b );
endmodule
)";
  const std::string g = R"(
module top ( a, b, o1, o0 );
input a, b;
output o1, o0;
buf g1 ( o0, a );
buf g2 ( o1, b );
endmodule
)";
  try {
    loadInstance(f, g, "");
    FAIL() << "reordered outputs were accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "output name mismatch at position 0: 'o0' vs 'o1'");
  }
}

TEST(InstanceIo, RejectsGoldenWithFloatingWires) {
  const std::string f = R"(
module top ( a, o );
input a;
output o;
wire t0;
buf g1 ( o, t0 );
endmodule
)";
  const std::string g = R"(
module top ( a, o );
input a;
output o;
wire ghost;
buf g1 ( o, a );
endmodule
)";
  EXPECT_THROW(loadInstance(f, g, ""), std::runtime_error);
}

TEST(InstanceIo, RejectsTargetlessFaulty) {
  const std::string f = R"(
module top ( a, o );
input a;
output o;
buf g1 ( o, a );
endmodule
)";
  EXPECT_THROW(loadInstance(f, f, ""), std::runtime_error);
}

}  // namespace
}  // namespace eco::io

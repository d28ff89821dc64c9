#include "io/instance_io.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "io/verilog.h"

namespace eco::io {
namespace {

void checkPortsMatch(const std::string& kind, const std::vector<std::string>& faulty,
                     const std::vector<std::string>& golden) {
  if (faulty.size() != golden.size()) {
    throw std::runtime_error("faulty and golden " + kind + " lists differ");
  }
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    if (faulty[i] != golden[i]) {
      throw std::runtime_error(kind + " name mismatch at position " + std::to_string(i) +
                               ": '" + faulty[i] + "' vs '" + golden[i] + "'");
    }
  }
}

}  // namespace

EcoInstance loadInstance(const std::string& faulty_v, const std::string& golden_v,
                         const std::string& weights, const std::string& name) {
  Netlist faulty = parseVerilog(faulty_v);
  Netlist golden = parseVerilog(golden_v);
  if (!golden.targets.empty()) {
    throw std::runtime_error("golden netlist has undriven wires");
  }
  // The engine pairs ports by position, so both lists must match name by name.
  checkPortsMatch("input", faulty.inputs, golden.inputs);
  checkPortsMatch("output", faulty.outputs, golden.outputs);
  if (faulty.targets.empty()) {
    throw std::runtime_error("faulty netlist has no floating targets");
  }

  EcoInstance inst;
  inst.name = name;
  inst.num_x = static_cast<std::uint32_t>(faulty.inputs.size());
  inst.faulty = std::move(faulty.aig);
  inst.golden = std::move(golden.aig);
  inst.weights = parseWeights(weights);
  return inst;
}

InstanceFiles saveInstance(const EcoInstance& instance) {
  InstanceFiles files;
  std::vector<std::uint32_t> floating;
  for (std::uint32_t k = 0; k < instance.numTargets(); ++k) {
    floating.push_back(instance.targetPi(k));
  }
  files.faulty_v =
      writeVerilogWithFloating(instance.faulty, "top", floating);
  files.golden_v = writeVerilog(instance.golden, "top");
  files.weights = writeWeights(instance.weights);
  return files;
}

}  // namespace eco::io

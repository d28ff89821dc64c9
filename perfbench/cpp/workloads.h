#pragma once
// The benchmark's workloads. Each one is a fixed recipe of benchgen
// instances whose generation seeds are drawn from the run's --seed, plus the
// engine options every run of that workload uses. Instances are handed to
// the timed code only as contest-format text (io::saveInstance), so each run
// starts from the same files a user would pass to the CLI.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "eco/instance.h"
#include "io/instance_io.h"

namespace perfbench {

/// The seed at which every workload reproduces its documented instances.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct BenchInstance {
  std::string name;
  eco::io::InstanceFiles files;
  /// False for fuzz instances whose rectifiability is unknown: the oracle
  /// then accepts an unrectifiable verdict if its counterexample holds.
  bool known_rectifiable = true;
};

struct Workload {
  std::string name;
  std::uint32_t threads = 1;
  bool cost_opt = true;
  /// Engine stage the workload was chosen to stress ("opt", "patchgen",
  /// "fraig+verify"); empty when no single stage is meant to lead.
  std::string expected_dominant;
  /// One engine pass per run, with no untimed pass before it: for suites
  /// whose single pass outlasts the run time.
  bool one_pass = false;
  std::vector<BenchInstance> instances;

  /// Engine options of every run: the workload's thread count and opt
  /// switch, invariant audits pinned off regardless of ECO_CHECK.
  eco::EcoOptions options() const;
};

/// Names accepted by makeWorkload, in documentation order.
const std::vector<std::string_view>& workloadNames();

/// Generates and serializes the instances of workload `name` for `seed`;
/// nullopt for an unknown name. Deterministic in (name, seed).
std::optional<Workload> makeWorkload(std::string_view name, std::uint64_t seed);

}  // namespace perfbench

// The benchmark's workloads: which nets are checked under which
// configuration, generated from the workload seed.
//
// The program under test only ever sees .g text: family instances and the
// seeded random nets are rendered with stg::write_astg_string, the example
// nets are read from examples/nets, and every check parses its text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace perfbench {

/// One check: a net (as .g text) under one configuration.
struct Check {
  std::string net;     ///< instance name: "mread8", "vme_read", "random2"
  std::string family;  ///< "muller", "mread", "mutex", "select", "file", "random"
  std::size_t n = 0;   ///< family size argument (0 for file/random nets)
  std::string text;    ///< .g source handed to the program
  std::string config_name;  ///< "default", "saturation", "saturation_t4"
  stgcheck::core::CheckConfig config;

  std::string label() const { return net + "/" + config_name; }
};

struct Workload {
  bool daemon = false;
  /// One-shot: the corpus in pass order. Daemon: the distinct checks the
  /// request stream draws from.
  std::vector<Check> checks;
  /// One-shot: passes over the corpus. A second pass times every check
  /// again some seconds later, when the host's speed has drifted.
  std::size_t passes = 1;
  /// Traced runs only: checks under saturation at 4 kernel threads, the
  /// one configuration that runs the pool layer. They feed pool.* and no
  /// end-to-end metric.
  std::vector<Check> pool_checks;
  /// Daemon only: the seeded request stream (indices into checks).
  std::vector<std::size_t> stream;
};

/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds the named workload. `seconds` sizes the daemon request stream;
/// `nets_dir` holds the example .g files. Throws std::runtime_error for an
/// unknown name or an unreadable example net.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, const std::string& nets_dir);

}  // namespace perfbench

#include "corpus.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "stg/astg_io.hpp"
#include "stg/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using stgcheck::Rng;
using stgcheck::core::CheckConfig;
using stgcheck::core::EngineKind;
namespace stg = stgcheck::stg;

/// Random nets appended to every one-shot corpus.
constexpr std::size_t kRandomNets = 3;

/// Daemon request cycles: one long check, then kShortRepeats blocks that each
/// hold every short check once, so about a quarter of the latencies wait
/// behind the long one (see README).
constexpr std::size_t kShortRepeats = 3;
/// Closed-loop seconds one cycle takes, about, on a 4-vCPU host: the stream
/// has round(seconds / kCycleSeconds) cycles, six at 30 s.
constexpr double kCycleSeconds = 5;

CheckConfig make_config(const std::string& config_name) {
  CheckConfig config;  // "default": what stg_check runs without flags
  if (config_name == "saturation" || config_name == "saturation_t4") {
    config.check.engine = EngineKind::kSaturation;
    config.check.engine_options.threads = config_name == "saturation" ? 1 : 4;
  } else if (config_name != "default") {
    throw std::runtime_error("unknown config " + config_name);
  }
  return config;
}

Check family_check(const std::string& name, const std::string& config_name) {
  Check c;
  c.net = name;
  const auto digits = std::find_if(name.begin(), name.end(),
                                   [](char ch) { return std::isdigit(ch) != 0; });
  c.family = std::string(name.begin(), digits);
  c.n = std::stoul(std::string(digits, name.end()));
  c.text = stg::write_astg_string(stg::make_family_instance(name));
  c.config_name = config_name;
  c.config = make_config(config_name);
  return c;
}

Check file_check(const std::string& nets_dir, const std::string& name,
                 const std::string& config_name) {
  const std::string path = nets_dir + "/" + name + ".g";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  Check c;
  c.net = name;
  c.family = "file";
  c.text = text.str();
  c.config_name = config_name;
  c.config = make_config(config_name);
  return c;
}

/// A random safe STG of the shape the property tests draw: a few
/// one-token rings whose transitions share a small signal pool, each
/// signal alternating direction. Rings that share a signal can make the
/// net inconsistent, which is a legitimate "not implementable" verdict.
stg::Stg random_net(Rng& rng, std::size_t index) {
  stg::Stg s;
  s.set_name("random" + std::to_string(index));
  const std::size_t n_signals = 2 + rng.below(4);
  std::vector<stg::SignalId> sigs;
  for (std::size_t i = 0; i < n_signals; ++i) {
    sigs.push_back(s.add_signal("s" + std::to_string(i),
                                rng.flip() ? stg::SignalKind::kInput
                                           : stg::SignalKind::kOutput));
  }
  std::vector<stg::Dir> next_dir(n_signals, stg::Dir::kPlus);
  std::size_t round_robin = 0;
  const std::size_t n_rings = 1 + rng.below(3);
  for (std::size_t ring = 0; ring < n_rings; ++ring) {
    const std::size_t len = 2 + rng.below(5);
    std::vector<stgcheck::pn::TransitionId> ts;
    for (std::size_t j = 0; j < len; ++j) {
      const stg::SignalId sid = round_robin < n_signals
                                    ? sigs[round_robin++]
                                    : sigs[rng.below(n_signals)];
      const stg::Dir dir = next_dir[sid];
      next_dir[sid] = dir == stg::Dir::kPlus ? stg::Dir::kMinus : stg::Dir::kPlus;
      ts.push_back(s.add_transition(sid, dir));
    }
    for (std::size_t j = 0; j < len; ++j) {
      s.connect(ts[j], ts[(j + 1) % len], j == 0 ? 1 : 0);
    }
  }
  for (stg::SignalId sid : sigs) s.set_initial_value(sid, false);
  return s;
}

void append_random(std::vector<Check>& checks, std::uint64_t seed,
                   const std::string& config_name) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);
  for (std::size_t i = 0; i < kRandomNets; ++i) {
    Check c;
    c.net = "random" + std::to_string(i);
    c.family = "random";
    c.text = stg::write_astg_string(random_net(rng, i));
    c.config_name = config_name;
    c.config = make_config(config_name);
    checks.push_back(std::move(c));
  }
}

std::vector<Check> oneshot_corpus(const std::vector<std::string>& families,
                                  const std::string& config_name,
                                  bool with_examples, std::uint64_t seed,
                                  const std::string& nets_dir) {
  std::vector<Check> checks;
  if (with_examples) {
    for (const char* name : {"muller4", "mutex2", "vme_read"}) {
      checks.push_back(file_check(nets_dir, name, config_name));
    }
  }
  for (const std::string& name : families) {
    checks.push_back(family_check(name, config_name));
  }
  append_random(checks, seed, config_name);
  return checks;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "oneshot_default", "oneshot_saturation", "daemon_mixed"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, const std::string& nets_dir) {
  const std::vector<std::string> base = {
      "muller16", "muller32", "mread8",   "mutex12", "mutex24",
      "mutex48",  "select24", "select48", "select96"};
  Workload w;
  if (name == "oneshot_default") {
    // muller32 and select96 take 5 and 3.5 s more per pass under the
    // default config; without them two passes fit the run.
    w.checks = oneshot_corpus({"muller16", "mread8", "mutex12", "mutex24", "mutex48",
                               "select24", "select48"},
                              "default", true, seed, nets_dir);
    w.passes = 2;
  } else if (name == "oneshot_saturation") {
    std::vector<std::string> families = base;
    families.push_back("muller64");
    w.checks = oneshot_corpus(families, "saturation", true, seed, nets_dir);
    w.passes = 2;
    for (const char* net : {"mread8", "mutex48", "select96", "muller64"}) {
      w.pool_checks.push_back(family_check(net, "saturation_t4"));
    }
  } else if (name == "daemon_mixed") {
    w.daemon = true;
    w.checks.push_back(family_check("mutex48", "default"));  // the long one
    for (const char* net : {"muller16", "select24", "mutex12"}) {
      w.checks.push_back(family_check(net, "default"));
    }
    for (const char* net : {"select48", "muller32"}) {
      w.checks.push_back(family_check(net, "saturation"));
    }
    const auto cycles = static_cast<std::size_t>(
        std::max(1.0, std::round(seconds / kCycleSeconds)));
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
    std::vector<std::size_t> order;
    for (std::size_t i = 1; i < w.checks.size(); ++i) order.push_back(i);
    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
      // The long check opens every cycle. Each block of short checks holds
      // every short check once, in a seeded order: the seed varies the
      // order without deciding how many heavy waves a run has.
      w.stream.push_back(0);
      for (std::size_t r = 0; r < kShortRepeats; ++r) {
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.below(i)]);
        }
        w.stream.insert(w.stream.end(), order.begin(), order.end());
      }
    }
  } else {
    std::string valid;
    for (const std::string& n : workload_names()) valid += " " + n;
    throw std::runtime_error("unknown workload '" + name + "' (valid:" + valid + ")");
  }
  return w;
}

}  // namespace perfbench

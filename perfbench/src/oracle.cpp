#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/implementability.hpp"
#include "sg/explicit_checks.hpp"
#include "sg/state_graph.hpp"
#include "stg/astg_io.hpp"
#include "stg/generators.hpp"

namespace perfbench {
namespace {

namespace core = stgcheck::core;
namespace sg = stgcheck::sg;
namespace stg = stgcheck::stg;
using stgcheck::json::Value;

/// Largest member of each family whose state graph is built explicitly;
/// larger members take its verdicts and their family's closed-form count.
std::size_t largest_explicit(const std::string& family) {
  if (family == "muller") return 16;
  if (family == "mutex") return 12;
  return 0;  // every member is explicit
}

/// Exact full-state (= marking) count of a family member, or -1.
double closed_form(const std::string& family, std::size_t n) {
  if (family == "muller") return std::ldexp(1.0, static_cast<int>(n) + 1);
  if (family == "mutex") {
    return std::ldexp(static_cast<double>(n + 1), static_cast<int>(n));
  }
  if (family == "select") return 7.0 * static_cast<double>(n);
  return -1;
}

Reference explicit_verdicts(const stg::Stg& net) {
  const sg::StateGraph graph = sg::build_state_graph(net);
  if (!graph.complete) {
    throw std::runtime_error("oracle: explicit state graph of " + net.name() +
                             " incomplete: " + graph.incomplete_reason);
  }
  Reference ref;
  ref.source = "explicit";
  ref.states = static_cast<double>(graph.size());
  ref.markings = static_cast<double>(graph.distinct_markings());
  const bool safe = std::all_of(graph.markings.begin(), graph.markings.end(),
                                [](const auto& m) { return m.max_tokens() <= 1; });
  const bool consistent = sg::check_consistency(graph).consistent;
  ref.verdicts["safe"] = safe;
  ref.verdicts["consistent"] = consistent;
  if (!safe || !consistent) {
    // The symbolic traversal stops at the first violation; only these
    // verdicts and the level are defined.
    ref.traversal_ok = false;
    ref.level = core::to_string(core::ImplementabilityLevel::kNotImplementable);
    return ref;
  }
  const bool persistent = sg::check_signal_persistency(graph).persistent;
  const bool deterministic = sg::check_determinism(graph).empty();
  const bool fake_free = sg::check_fake_freedom(graph).fake_free;
  const sg::CodingResult coding = sg::check_coding(graph);
  const bool csc_reducible =
      coding.complete_state_coding || sg::check_csc_reducibility(graph).reducible;
  ref.verdicts["deadlock_free"] = sg::find_deadlocks(graph).empty();
  ref.verdicts["persistent"] = persistent;
  ref.verdicts["deterministic"] = deterministic;
  ref.verdicts["fake_free"] = fake_free;
  ref.verdicts["usc"] = coding.unique_state_coding;
  ref.verdicts["csc"] = coding.complete_state_coding;
  ref.verdicts["csc_reducible"] = csc_reducible;

  // Def. 2.6 hierarchy, as the checker states it.
  const bool core_ok = persistent && deterministic && fake_free;
  core::ImplementabilityLevel level = core::ImplementabilityLevel::kSiImplementable;
  if (core_ok && coding.complete_state_coding) {
    level = core::ImplementabilityLevel::kGateImplementable;
  } else if (core_ok && csc_reducible) {
    level = core::ImplementabilityLevel::kIoImplementable;
  } else if (!persistent) {
    level = core::ImplementabilityLevel::kNotImplementable;
  }
  ref.level = core::to_string(level);
  return ref;
}

/// Known defects: mismatches the benchmark reports (they count toward
/// fail_rate and lower pass_rate) without treating the run as incorrect.
/// Each entry names the only fields it may explain.
struct KnownDefect {
  const char* net;
  core::EngineKind engine;
  std::vector<std::string> fields;
  const char* why;
};

const std::vector<KnownDefect>& known_defects() {
  static const std::vector<KnownDefect> defects = {
      {"select96", core::EngineKind::kSaturation,
       {"states", "markings", "deadlock_free"},
       "primed encoding has over 1023 BDD variables: Manager::sat_count "
       "overflows to inf, and deadlock_free is decided as count == 0"},
  };
  return defects;
}

Value to_json(const Reference& ref) {
  Value verdicts = Value::object();
  for (const auto& [name, value] : ref.verdicts) verdicts.set(name, Value(value));
  Value o = Value::object();
  o.set("level", Value(ref.level));
  o.set("verdicts", std::move(verdicts));
  o.set("states", Value(ref.states));
  o.set("markings", Value(ref.markings));
  o.set("traversal_ok", Value(ref.traversal_ok));
  o.set("source", Value(ref.source));
  return o;
}

Reference from_json(const Value& o) {
  Reference ref;
  ref.level = o.at("level").as_string();
  for (const auto& [name, value] : o.at("verdicts").as_object()) {
    ref.verdicts[name] = value.as_bool();
  }
  ref.states = o.at("states").as_number();
  ref.markings = o.at("markings").as_number();
  ref.traversal_ok = o.at("traversal_ok").as_bool();
  ref.source = o.at("source").as_string();
  return ref;
}

/// FNV-1a: a stable file name for a net's text.
std::string text_key(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) h = (h ^ c) * 1099511628211ULL;
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

Reference Oracle::explicit_reference(const Check& check) {
  // Family members are built from their generator, the other nets from
  // the text the program parses. The sources are fixed per cache
  // directory, so a family member's name determines its net.
  const bool family = check.family != "file" && check.family != "random";
  const std::string path = cache_dir_ + "/" + check.net +
                           (family ? std::string() : "-" + text_key(check.text)) +
                           ".json";
  {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    if (in) return from_json(Value::parse(text.str()));
  }
  Reference ref = explicit_verdicts(family ? stg::make_family_instance(check.net)
                                           : stg::parse_astg_string(check.text));
  std::filesystem::create_directories(cache_dir_);
  const std::string tmp = path + ".tmp";
  std::ofstream(tmp) << to_json(ref).dump();
  std::filesystem::rename(tmp, path);
  return ref;
}

const Reference& Oracle::reference(const Check& check) {
  if (auto it = cache_.find(check.net); it != cache_.end()) return it->second;
  const std::size_t member = largest_explicit(check.family);
  const double count = closed_form(check.family, check.n);
  if (member == 0 || check.n <= member) {
    Reference ref = explicit_reference(check);
    if (count >= 0 && (ref.states != count || ref.markings != count)) {
      throw std::runtime_error("oracle: closed form of " + check.net +
                               " disagrees with its explicit state graph");
    }
    return cache_.emplace(check.net, std::move(ref)).first->second;
  }
  const std::string base = check.family + std::to_string(member);
  Check base_check = check;
  base_check.net = base;
  base_check.n = member;
  Reference ref = reference(base_check);
  ref.states = count;
  ref.markings = count;
  ref.source = "closed form + " + base + " verdicts";
  return cache_.emplace(check.net, std::move(ref)).first->second;
}

std::vector<std::string> compare(const Value& report, const Reference& ref) {
  std::vector<std::string> bad;
  const Value* level = report.find("level");
  if (level == nullptr || !level->is_string() || level->as_string() != ref.level) {
    bad.push_back("level");
  }
  const Value* verdicts = report.find("verdicts");
  for (const auto& [name, expected] : ref.verdicts) {
    const Value* got = verdicts != nullptr ? verdicts->find(name) : nullptr;
    if (got == nullptr || !got->is_bool() || got->as_bool() != expected) {
      bad.push_back(name);
    }
  }
  if (ref.traversal_ok) {
    const Value* traversal = report.find("traversal");
    for (const auto& [name, expected] :
         {std::pair{"states", ref.states}, std::pair{"markings", ref.markings}}) {
      const Value* got = traversal != nullptr ? traversal->find(name) : nullptr;
      // Non-finite counts render as null: a mismatch, never a pass.
      if (got == nullptr || !got->is_number() || got->as_number() != expected) {
        bad.push_back(name);
      }
    }
  }
  return bad;
}

const char* known_defect(const Check& check,
                         const std::vector<std::string>& mismatches) {
  if (mismatches.empty()) return nullptr;
  for (const KnownDefect& d : known_defects()) {
    if (check.net != d.net || check.config.check.engine != d.engine) continue;
    const bool covered = std::all_of(
        mismatches.begin(), mismatches.end(), [&](const std::string& f) {
          return std::find(d.fields.begin(), d.fields.end(), f) != d.fields.end();
        });
    if (covered) return d.why;
  }
  return nullptr;
}

}  // namespace perfbench

// Property test for the unified CheckConfig (core/config.hpp): for
// randomly generated configurations, both wire forms are lossless --
// from_json(to_json(c)) == c and from_args(to_args(c)) == c -- defaults
// render as the empty object / empty flag list, and unknown keys, flags
// and malformed values are rejected with ModelError rather than silently
// ignored. Deterministic seed: a failure reproduces byte-for-byte.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace stgcheck::core {
namespace {

using json::Value;

CheckConfig random_config(std::mt19937& rng) {
  const auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  CheckConfig config;
  config.check.ordering = static_cast<Ordering>(pick(5));
  config.check.strategy = static_cast<TraversalStrategy>(pick(3));
  config.check.engine = static_cast<EngineKind>(pick(3));
  config.check.engine_options.threads = 1 + static_cast<std::size_t>(pick(8));
  const int pairs = pick(3);
  for (int p = 0; p < pairs; ++p) {
    config.check.arbitration_pairs.emplace_back(
        "g" + std::to_string(pick(9)), "h" + std::to_string(pick(9)));
  }
  config.initial_nodes = std::size_t{1} << (4 + pick(16));
  config.limits.max_live_nodes = static_cast<std::size_t>(rng() % 1000000);
  config.limits.max_steps = static_cast<std::size_t>(rng() % 100000);
  // Arbitrary non-negative finite doubles: both wire forms promise exact
  // round-trip (%.17g / precision-escalating formatter), so no "nice"
  // values needed.
  std::uniform_real_distribution<double> seconds(0.0, 1e6);
  config.limits.max_seconds = seconds(rng);
  return config;
}

TEST(CheckConfigProperty, JsonAndArgsRoundTripsAreLossless) {
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 500; ++trial) {
    const CheckConfig config = random_config(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 config.to_json().dump());

    const CheckConfig via_json = CheckConfig::from_json(config.to_json());
    EXPECT_EQ(via_json, config);

    const CheckConfig via_args = CheckConfig::from_args(config.to_args());
    EXPECT_EQ(via_args, config);
  }
}

TEST(CheckConfigProperty, DefaultsRenderEmpty) {
  const CheckConfig defaults;
  EXPECT_TRUE(defaults.to_json().as_object().empty());
  EXPECT_TRUE(defaults.to_args().empty());
  EXPECT_EQ(CheckConfig::from_json(Value::object()), defaults);
  EXPECT_EQ(CheckConfig::from_args({}), defaults);
}

TEST(CheckConfigProperty, RoundTripPreservesEquality) {
  // Two distinct configs stay distinct through the wire: the round-trip
  // is injective over what it serializes.
  std::mt19937 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const CheckConfig a = random_config(rng);
    const CheckConfig b = random_config(rng);
    EXPECT_EQ(a == b, a.to_json().dump() == b.to_json().dump());
  }
}

TEST(CheckConfigProperty, TokenNeverSerializes) {
  CheckConfig config;
  config.limits.token = std::make_shared<CancelToken>();
  EXPECT_TRUE(config.to_json().as_object().empty());
  EXPECT_TRUE(config.to_args().empty());
  // ...and does not participate in equality.
  EXPECT_EQ(config, CheckConfig{});
}

/// Runs `parse`, which must throw ModelError whose message contains every
/// one of `needles` -- a rejection has to name the valid choices.
template <typename Parse>
void expect_rejected_naming(Parse parse,
                            const std::vector<std::string>& needles) {
  try {
    parse();
    ADD_FAILURE() << "accepted; expected a ModelError";
  } catch (const ModelError& e) {
    for (const std::string& needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "'" << e.what() << "' does not name " << needle;
    }
  }
}

TEST(CheckConfigProperty, UnknownKeysAndFlagsAreRejected) {
  // A typo'd key, the retired conjunct-schedule option and the retired
  // relation-template option.
  const struct {
    const char* key;
    const char* value;
  } keys[] = {{"orderng", "support_overlap"},
              {"schedule", "support_overlap"},
              {"relation_templates", "auto"}};
  for (const auto& [key, value] : keys) {
    Value obj = Value::object();
    obj.set(key, Value(std::string(value)));
    expect_rejected_naming([&] { CheckConfig::from_json(obj); },
                           {key, "engine", "max_live_nodes"});
  }
  const struct {
    const char* flag;
    const char* value;
  } flags[] = {{"--orderng", "support-overlap"},
               {"--schedule", "support-overlap"},
               {"--relation-templates", "on"}};
  for (const auto& [flag, value] : flags) {
    expect_rejected_naming([&] { CheckConfig::from_args({flag, value}); },
                           {flag, "--engine", "--max-live-nodes"});
  }
  EXPECT_THROW(CheckConfig::from_args({"not-a-flag"}), ModelError);
}

TEST(CheckConfigProperty, BadValuesAreRejected) {
  const auto bad_json = [](const std::string& key, Value value) {
    Value obj = Value::object();
    obj.set(key, std::move(value));
    EXPECT_THROW(CheckConfig::from_json(obj), ModelError) << key;
  };
  bad_json("ordering", Value(std::string("sideways")));
  bad_json("strategy", Value(std::string("guess")));
  bad_json("engine", Value(std::string("steam")));
  bad_json("threads", Value(0.0));
  bad_json("threads", Value(1.5));
  bad_json("initial_nodes", Value(0.0));
  bad_json("max_seconds", Value(-1.0));
  bad_json("max_live_nodes", Value(-3.0));
  {
    Value pair = Value::array();
    pair.push_back(Value(std::string("only-one-side")));
    Value arbitrate = Value::array();
    arbitrate.push_back(std::move(pair));
    Value obj = Value::object();
    obj.set("arbitrate", std::move(arbitrate));
    EXPECT_THROW(CheckConfig::from_json(obj), ModelError);
  }

  // The retired relational engine names fail on both paths and list the
  // engines that exist.
  for (const char* engine : {"monolithic", "partitioned"}) {
    const std::vector<std::string> valid = {
        engine, "cofactor, relational, saturation"};
    expect_rejected_naming(
        [&] { CheckConfig::from_args({"--engine", engine}); }, valid);
    Value obj = Value::object();
    obj.set("engine", Value(std::string(engine)));
    expect_rejected_naming([&] { CheckConfig::from_json(obj); }, valid);
  }
  EXPECT_THROW(CheckConfig::from_args({"--threads", "zero"}), ModelError);
  EXPECT_THROW(CheckConfig::from_args({"--threads"}), ModelError);  // no value
  EXPECT_THROW(CheckConfig::from_args({"--max-seconds", "-2"}), ModelError);
  EXPECT_THROW(CheckConfig::from_args({"--arbitrate", "lonely"}), ModelError);
  EXPECT_THROW(CheckConfig::from_args({"--arbitrate", ",b"}), ModelError);
}

TEST(CheckConfigProperty, FlagSpellingMatchesWireSpelling) {
  // The same names work dashed on the CLI and underscored on the wire.
  const CheckConfig from_flags = CheckConfig::from_args(
      {"--ordering", "signals-first", "--engine", "relational",
       "--max-live-nodes", "4096"});
  Value obj = Value::object();
  obj.set("ordering", Value(std::string("signals_first")));
  obj.set("engine", Value(std::string("relational")));
  obj.set("max_live_nodes", Value(4096.0));
  EXPECT_EQ(from_flags, CheckConfig::from_json(obj));
}

}  // namespace
}  // namespace stgcheck::core

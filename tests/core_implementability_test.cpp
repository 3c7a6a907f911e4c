// The top-level implementability verdicts (Def. 2.6 hierarchy).
#include <gtest/gtest.h>

#include <vector>

#include "core/implementability.hpp"
#include "stg/generators.hpp"

namespace stgcheck::core {
namespace {

TEST(Implementability, MullerPipelineIsGateImplementable) {
  ImplementabilityReport r = check_implementability(stg::muller_pipeline(4));
  EXPECT_EQ(r.level, ImplementabilityLevel::kGateImplementable);
  EXPECT_TRUE(r.safe);
  EXPECT_TRUE(r.consistent);
  EXPECT_TRUE(r.signal_persistent);
  EXPECT_TRUE(r.deterministic);
  EXPECT_TRUE(r.fake_free);
  EXPECT_TRUE(r.usc);
  EXPECT_TRUE(r.csc);
  EXPECT_TRUE(r.deadlock_free);
}

TEST(Implementability, MasterReadIsGateImplementable) {
  ImplementabilityReport r = check_implementability(stg::master_read(3));
  EXPECT_EQ(r.level, ImplementabilityLevel::kGateImplementable);
}

/// Every verdict of a report, in a fixed order, for whole-report equality.
std::vector<bool> verdicts(const ImplementabilityReport& r) {
  return {r.safe, r.consistent, r.signal_persistent, r.deterministic,
          r.fake_free, r.usc, r.csc, r.csc_reducible, r.deadlock_free};
}

TEST(Implementability, SelectChainGateImplementableWithoutUsc) {
  // The select tiers share one verdict set at every size. select96 under
  // saturation has over 1023 BDD variables, where a state count overflows
  // to inf: verdicts must come from BDD emptiness, and an empty set must
  // count 0, not 0 x inf = NaN.
  const ImplementabilityReport small =
      check_implementability(stg::select_chain(3));
  CheckOptions saturation;
  saturation.engine = EngineKind::kSaturation;
  const struct {
    const char* name;
    CheckOptions options;
  } rows[] = {
      {"select24", {}},
      {"select24", saturation},
      {"select96", saturation},
  };
  for (const auto& row : rows) {
    const ImplementabilityReport r = check_implementability(
        stg::make_family_instance(row.name), row.options);
    EXPECT_EQ(r.level, ImplementabilityLevel::kGateImplementable) << row.name;
    EXPECT_EQ(verdicts(r), verdicts(small)) << row.name;
    EXPECT_EQ(r.deadlock_states_count, 0.0) << row.name;
  }
  EXPECT_FALSE(small.usc);
  EXPECT_TRUE(small.csc);
  EXPECT_TRUE(small.deadlock_free);
}

TEST(Implementability, MutexNeedsArbitrationDeclared) {
  ImplementabilityReport strict = check_implementability(stg::examples::mutex2());
  EXPECT_EQ(strict.level, ImplementabilityLevel::kNotImplementable);
  EXPECT_FALSE(strict.signal_persistent);

  CheckOptions options;
  options.arbitration_pairs.push_back({"g1", "g2"});
  ImplementabilityReport relaxed =
      check_implementability(stg::examples::mutex2(), options);
  EXPECT_EQ(relaxed.level, ImplementabilityLevel::kGateImplementable);
}

TEST(Implementability, OutputCycleIsIoImplementable) {
  // CSC fails but is reducible: an I/O-equivalent circuit exists after
  // inserting an internal signal (output_cycle_resolved proves it).
  ImplementabilityReport r = check_implementability(stg::examples::output_cycle());
  EXPECT_EQ(r.level, ImplementabilityLevel::kIoImplementable);
  EXPECT_FALSE(r.csc);
  EXPECT_TRUE(r.csc_reducible);

  ImplementabilityReport resolved =
      check_implementability(stg::examples::output_cycle_resolved());
  EXPECT_EQ(resolved.level, ImplementabilityLevel::kGateImplementable);
}

TEST(Implementability, PulseCycleOnlySiImplementable) {
  // Irreducible CSC: no fixed-interface circuit exists, but the necessary
  // conditions for trace-equivalent (interface-changing) implementation
  // hold.
  ImplementabilityReport r = check_implementability(stg::examples::pulse_cycle());
  EXPECT_EQ(r.level, ImplementabilityLevel::kSiImplementable);
  EXPECT_FALSE(r.csc_reducible);
}

TEST(Implementability, InconsistentIsNotImplementable) {
  ImplementabilityReport r =
      check_implementability(stg::examples::inconsistent_rise_rise());
  EXPECT_EQ(r.level, ImplementabilityLevel::kNotImplementable);
  EXPECT_FALSE(r.consistent);
}

TEST(Implementability, UnsafeIsNotImplementable) {
  ImplementabilityReport r =
      check_implementability(stg::examples::unsafe_two_token_ring());
  EXPECT_EQ(r.level, ImplementabilityLevel::kNotImplementable);
  EXPECT_FALSE(r.safe);
}

TEST(Implementability, SymmetricFakeRejected) {
  // fig3_d1 has a symmetric fake conflict: rejected from I/O and gate
  // classes by the Sec. 3.5 rule even though its signals are persistent.
  ImplementabilityReport r = check_implementability(stg::examples::fig3_d1());
  EXPECT_FALSE(r.fake_free);
  EXPECT_EQ(r.level, ImplementabilityLevel::kSiImplementable);
  // The equivalent fake-free D2 is gate-implementable... except that its
  // signals a, b are inputs firing spontaneously; it still satisfies all
  // conditions.
  ImplementabilityReport r2 = check_implementability(stg::examples::fig3_d2());
  EXPECT_TRUE(r2.fake_free);
  EXPECT_EQ(r2.level, ImplementabilityLevel::kGateImplementable);
}

TEST(Implementability, TimesAndSummaryPopulated) {
  stg::Stg s = stg::mutex_arbiter(3);
  CheckOptions options;
  options.arbitration_pairs.push_back({"g1", "g2"});
  options.arbitration_pairs.push_back({"g1", "g3"});
  options.arbitration_pairs.push_back({"g2", "g3"});
  ImplementabilityReport r = check_implementability(s, options);
  EXPECT_EQ(r.level, ImplementabilityLevel::kGateImplementable);
  EXPECT_GE(r.times.total, 0.0);
  const std::string text = r.summary(s);
  EXPECT_NE(text.find("gate-implementable"), std::string::npos);
  EXPECT_NE(text.find("states"), std::string::npos);
  EXPECT_NE(text.find("T+C"), std::string::npos);
}

TEST(Implementability, MarkedGraphShortcutSkipsPersistency) {
  CheckOptions with;
  with.exploit_marked_graphs = true;
  CheckOptions without;
  without.exploit_marked_graphs = false;
  ImplementabilityReport r1 = check_implementability(stg::muller_pipeline(3), with);
  ImplementabilityReport r2 =
      check_implementability(stg::muller_pipeline(3), without);
  EXPECT_EQ(r1.level, r2.level);
  EXPECT_TRUE(r1.signal_persistent);
  EXPECT_TRUE(r2.signal_persistent);
}

TEST(Implementability, StrategiesGiveSameVerdict) {
  for (auto strategy : {TraversalStrategy::kChaining,
                        TraversalStrategy::kFrontierBfs,
                        TraversalStrategy::kFullFixpoint}) {
    CheckOptions options;
    options.strategy = strategy;
    ImplementabilityReport r =
        check_implementability(stg::examples::vme_read(), options);
    EXPECT_EQ(r.level, ImplementabilityLevel::kIoImplementable)
        << static_cast<int>(strategy);
    EXPECT_FALSE(r.csc);
    EXPECT_TRUE(r.csc_reducible);
  }
}

TEST(Implementability, LevelToString) {
  EXPECT_EQ(to_string(ImplementabilityLevel::kGateImplementable),
            "gate-implementable");
  EXPECT_EQ(to_string(ImplementabilityLevel::kNotImplementable),
            "not implementable");
}

}  // namespace
}  // namespace stgcheck::core

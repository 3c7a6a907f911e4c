// Cross-validation: every symbolic check must agree with its explicit twin
// on every net, across sizes, orderings and image backends. This is the
// strongest correctness argument the repo offers for the paper's
// algorithms.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/checks.hpp"
#include "core/image_engine.hpp"
#include "core/saturation.hpp"
#include "core/traversal.hpp"
#include "example_nets.hpp"
#include "sg/explicit_checks.hpp"
#include "sg/state_graph.hpp"
#include "stg/generators.hpp"

namespace stgcheck::core {
namespace {

stg::Stg net_by_index(int index) { return testutil::example_net(index); }

constexpr int kNetCount = testutil::kExampleNetCount;

class CrossValidation : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    net = std::make_unique<stg::Stg>(net_by_index(GetParam()));
    sym = std::make_unique<SymbolicStg>(*net);
    TraversalOptions options;
    options.abort_on_violation = false;  // keep exploring for comparisons
    traversal = traverse(*sym, options);
    graph = sg::build_state_graph(*net);
    ASSERT_TRUE(graph.complete);
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
  TraversalResult traversal;
  sg::StateGraph graph;
};

TEST_P(CrossValidation, StateAndMarkingCounts) {
  EXPECT_DOUBLE_EQ(traversal.stats.states, static_cast<double>(graph.size()));
  EXPECT_DOUBLE_EQ(traversal.stats.markings,
                   static_cast<double>(graph.distinct_markings()));
}

TEST_P(CrossValidation, Consistency) {
  const bool explicit_ok = sg::check_consistency(graph).consistent;
  EXPECT_EQ(traversal.consistent, explicit_ok);
}

TEST_P(CrossValidation, SignalPersistency) {
  if (!traversal.consistent) GTEST_SKIP() << "inconsistent: semantics differ";
  const bool explicit_ok = sg::check_signal_persistency(graph).persistent;
  const bool symbolic_ok =
      signal_persistency(*sym, traversal.reached).empty();
  EXPECT_EQ(symbolic_ok, explicit_ok);
}

TEST_P(CrossValidation, TransitionPersistency) {
  if (!traversal.consistent) GTEST_SKIP();
  const bool explicit_ok = sg::check_transition_persistency(graph).empty();
  const bool symbolic_ok = transition_persistency(*sym, traversal.reached).empty();
  EXPECT_EQ(symbolic_ok, explicit_ok);
}

TEST_P(CrossValidation, Determinism) {
  if (!traversal.consistent) GTEST_SKIP();
  const bool explicit_ok = sg::check_determinism(graph).empty();
  const bool symbolic_ok = determinism_violations(*sym, traversal.reached).is_false();
  EXPECT_EQ(symbolic_ok, explicit_ok);
}

TEST_P(CrossValidation, Coding) {
  if (!traversal.consistent) GTEST_SKIP();
  sg::CodingResult explicit_r = sg::check_coding(graph);
  SymCscResult symbolic_r = check_csc(*sym, traversal.reached);
  EXPECT_EQ(symbolic_r.unique_state_coding, explicit_r.unique_state_coding);
  EXPECT_EQ(symbolic_r.complete_state_coding, explicit_r.complete_state_coding);
  // The set of conflicting signals matches.
  std::set<stg::SignalId> explicit_signals;
  for (const auto& v : explicit_r.violations) explicit_signals.insert(v.signal);
  std::set<stg::SignalId> symbolic_signals;
  for (const auto& c : symbolic_r.conflicts) symbolic_signals.insert(c.signal);
  EXPECT_EQ(symbolic_signals, explicit_signals);
}

TEST_P(CrossValidation, CscReducibility) {
  if (!traversal.consistent) GTEST_SKIP();
  sg::ReducibilityResult explicit_r = sg::check_csc_reducibility(graph);
  SymReducibilityResult symbolic_r =
      check_csc_reducibility(*sym, traversal.reached);
  EXPECT_EQ(symbolic_r.csc_satisfied, explicit_r.csc_satisfied);
  EXPECT_EQ(symbolic_r.reducible, explicit_r.reducible);
  std::set<stg::SignalId> e(explicit_r.irreducible_signals.begin(),
                            explicit_r.irreducible_signals.end());
  std::set<stg::SignalId> s(symbolic_r.irreducible_signals.begin(),
                            symbolic_r.irreducible_signals.end());
  EXPECT_EQ(s, e);
}

TEST_P(CrossValidation, FakeConflicts) {
  if (!traversal.consistent) GTEST_SKIP();
  auto explicit_r = sg::analyze_fake_conflicts(graph);
  auto symbolic_r = analyze_fake_conflicts(*sym, traversal.reached);
  ASSERT_EQ(symbolic_r.size(), explicit_r.size());
  // Both are generated from the same ordered structural-conflict pairs.
  for (std::size_t i = 0; i < symbolic_r.size(); ++i) {
    EXPECT_EQ(symbolic_r[i].t1, explicit_r[i].t1) << i;
    EXPECT_EQ(symbolic_r[i].t2, explicit_r[i].t2) << i;
    EXPECT_EQ(symbolic_r[i].fake_against_t1, explicit_r[i].fake_against_t1) << i;
    EXPECT_EQ(symbolic_r[i].fake_against_t2, explicit_r[i].fake_against_t2) << i;
    EXPECT_EQ(symbolic_r[i].disables_t1, explicit_r[i].disables_t1) << i;
    EXPECT_EQ(symbolic_r[i].disables_t2, explicit_r[i].disables_t2) << i;
  }
  EXPECT_EQ(check_fake_freedom(*sym, traversal.reached).fake_free,
            sg::check_fake_freedom(graph).fake_free);
}

TEST_P(CrossValidation, Deadlocks) {
  if (!traversal.consistent) GTEST_SKIP();
  const bool explicit_live = sg::find_deadlocks(graph).empty();
  const bool symbolic_live = deadlock_states(*sym, traversal.reached).is_false();
  EXPECT_EQ(symbolic_live, explicit_live);
}

INSTANTIATE_TEST_SUITE_P(Nets, CrossValidation, ::testing::Range(0, kNetCount));

// Orderings must not change any verdict, only BDD sizes.
class OrderingInvariance : public ::testing::TestWithParam<Ordering> {};

TEST_P(OrderingInvariance, VerdictsAreOrderIndependent) {
  stg::Stg s = stg::mutex_arbiter(3);
  SymbolicStg sym(s, GetParam());
  TraversalResult r = traverse(sym);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.stats.states, 32.0);
  EXPECT_FALSE(signal_persistency(sym, r.reached).empty());
  EXPECT_TRUE(check_csc(sym, r.reached).complete_state_coding);
}

INSTANTIATE_TEST_SUITE_P(Orders, OrderingInvariance,
                         ::testing::Values(Ordering::kInterleaved,
                                           Ordering::kDeclaration,
                                           Ordering::kSignalsFirst,
                                           Ordering::kRandom));

// ---------------------------------------------------------------------------
// Engine cross-validation: every ImageEngine backend -- including the
// saturation backend, whose whole fixpoint runs inside one kernel REACH
// operation -- must reach the same fixed point (pass counts aside) and
// produce the same check verdicts on every net family. All engines share
// one primed encoding, so the reached sets are compared as BDDs, not just
// counted: bit-identical against the cofactor reference means
// bit-identical against every other backend.
// ---------------------------------------------------------------------------

class EngineCrossValidation
    : public ::testing::TestWithParam<std::tuple<int, EngineKind>> {
 protected:
  void SetUp() override {
    net = std::make_unique<stg::Stg>(net_by_index(std::get<0>(GetParam())));
    sym = std::make_unique<SymbolicStg>(*net, Ordering::kInterleaved, 1 << 14,
                                        /*with_primed_vars=*/true);
    engine = make_engine(std::get<1>(GetParam()), *sym);
    reference = std::make_unique<CofactorEngine>(*sym);

    options.abort_on_violation = false;  // keep exploring for comparisons
    traversal = traverse(*engine, options);
    ref_traversal = traverse(*reference, options);
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
  std::unique_ptr<ImageEngine> engine;
  std::unique_ptr<CofactorEngine> reference;
  TraversalOptions options;
  TraversalResult traversal;
  TraversalResult ref_traversal;
};

TEST_P(EngineCrossValidation, ReachedSetsAreIdentical) {
  EXPECT_EQ(traversal.reached, ref_traversal.reached);
  EXPECT_DOUBLE_EQ(traversal.stats.states, ref_traversal.stats.states);
  EXPECT_DOUBLE_EQ(traversal.stats.markings, ref_traversal.stats.markings);
}

TEST_P(EngineCrossValidation, TraversalVerdictsAgree) {
  EXPECT_EQ(traversal.consistent, ref_traversal.consistent);
  EXPECT_EQ(traversal.safe, ref_traversal.safe);
  EXPECT_EQ(traversal.complete, ref_traversal.complete);
}

TEST_P(EngineCrossValidation, FiringChecksAgree) {
  if (!ref_traversal.consistent) GTEST_SKIP() << "inconsistent: semantics differ";
  const bdd::Bdd& reached = ref_traversal.reached;
  EXPECT_EQ(signal_persistency(*engine, reached).empty(),
            signal_persistency(*reference, reached).empty());
  EXPECT_EQ(transition_persistency(*engine, reached).empty(),
            transition_persistency(*reference, reached).empty());
  EXPECT_EQ(check_fake_freedom(*engine, reached).fake_free,
            check_fake_freedom(*reference, reached).fake_free);
  const SymReducibilityResult a = check_csc_reducibility(*engine, reached);
  const SymReducibilityResult b = check_csc_reducibility(*reference, reached);
  EXPECT_EQ(a.csc_satisfied, b.csc_satisfied);
  EXPECT_EQ(a.reducible, b.reducible);
}

INSTANTIATE_TEST_SUITE_P(
    NetsTimesEngines, EngineCrossValidation,
    ::testing::Combine(::testing::Range(0, kNetCount),
                       ::testing::Values(EngineKind::kCofactor,
                                         EngineKind::kRelational,
                                         EngineKind::kSaturation)));

}  // namespace
}  // namespace stgcheck::core

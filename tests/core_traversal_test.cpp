// Symbolic traversal: fixed points, strategies, consistency and safeness
// on the fly, lazy initial-value binding.
#include <gtest/gtest.h>

#include "core/traversal.hpp"
#include "sg/state_graph.hpp"
#include "stg/generators.hpp"

namespace stgcheck::core {
namespace {

TEST(Traversal, PulseCycleReachesFourStates) {
  stg::Stg s = stg::examples::pulse_cycle();
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.stats.states, 4.0);
  EXPECT_DOUBLE_EQ(r.stats.markings, 4.0);
  EXPECT_TRUE(r.unbound_signals.empty());
}

TEST(Traversal, AllStrategiesAgree) {
  for (auto strategy : {TraversalStrategy::kChaining, TraversalStrategy::kFrontierBfs,
                        TraversalStrategy::kFullFixpoint}) {
    stg::Stg s = stg::mutex_arbiter(3);
    SymbolicStg sym(s);
    TraversalOptions options;
    options.strategy = strategy;
    TraversalResult r = traverse(sym, options);
    EXPECT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.stats.states, 32.0) << static_cast<int>(strategy);
  }
}

TEST(Traversal, ChainingNeedsNoMorePassesThanBfs) {
  stg::Stg s = stg::muller_pipeline(6);
  SymbolicStg sym_chain(s);
  SymbolicStg sym_bfs(s);
  TraversalOptions chain;
  chain.strategy = TraversalStrategy::kChaining;
  TraversalOptions bfs;
  bfs.strategy = TraversalStrategy::kFrontierBfs;
  TraversalResult rc = traverse(sym_chain, chain);
  TraversalResult rb = traverse(sym_bfs, bfs);
  EXPECT_DOUBLE_EQ(rc.stats.states, rb.stats.states);
  EXPECT_LE(rc.stats.passes, rb.stats.passes);
}

TEST(Traversal, MatchesExplicitStateCounts) {
  for (const stg::Stg& s :
       {stg::muller_pipeline(4), stg::master_read(3), stg::mutex_arbiter(4),
        stg::select_chain(3), stg::examples::vme_read(),
        stg::examples::input_pulse_counter(), stg::examples::fig3_d1(),
        stg::examples::fig3_d2(), stg::examples::output_cycle()}) {
    SymbolicStg sym(s);
    TraversalResult r = traverse(sym);
    ASSERT_TRUE(r.ok()) << s.name();
    sg::StateGraph g = sg::build_state_graph(s);
    ASSERT_TRUE(g.complete) << s.name();
    EXPECT_DOUBLE_EQ(r.stats.states, static_cast<double>(g.size())) << s.name();
    EXPECT_DOUBLE_EQ(r.stats.markings,
                     static_cast<double>(g.distinct_markings()))
        << s.name();
  }
}

TEST(Traversal, DetectsInconsistency) {
  stg::Stg s = stg::examples::inconsistent_rise_rise();
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_FALSE(r.consistent);
  ASSERT_FALSE(r.consistency_violations.empty());
  EXPECT_NE(r.consistency_violations[0].find("b+"), std::string::npos);
}

TEST(Traversal, InconsistencyCanBeToleratedForDiagnostics) {
  stg::Stg s = stg::examples::inconsistent_rise_rise();
  SymbolicStg sym(s);
  TraversalOptions options;
  options.abort_on_violation = false;
  TraversalResult r = traverse(sym, options);
  EXPECT_FALSE(r.consistent);
  EXPECT_TRUE(r.complete);  // explored everything anyway
}

TEST(Traversal, DetectsUnsafeness) {
  stg::Stg s = stg::examples::unsafe_two_token_ring();
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_FALSE(r.safe);
  EXPECT_NE(r.safeness_detail.find("second token"), std::string::npos);
}

TEST(Traversal, LazyBindingInfersInitialValues) {
  // pulse_cycle without explicit initial values: the traversal must bind
  // a=0 (a+ first) and b=0 (b+ first) and reach exactly 4 states.
  stg::Stg s;
  const stg::SignalId a = s.add_signal("a", stg::SignalKind::kInput);
  const stg::SignalId b = s.add_signal("b", stg::SignalKind::kOutput);
  auto ap = s.add_transition(a, stg::Dir::kPlus);
  auto bp = s.add_transition(b, stg::Dir::kPlus);
  auto bm = s.add_transition(b, stg::Dir::kMinus);
  auto am = s.add_transition(a, stg::Dir::kMinus);
  s.connect(ap, bp);
  s.connect(bp, bm);
  s.connect(bm, am);
  s.connect(am, ap, 1);
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.unbound_signals.empty());
  EXPECT_DOUBLE_EQ(r.stats.states, 4.0);
  // Initial state has a=0: the initial cube with a=0 must be in Reached,
  // with a=1 out.
  EXPECT_TRUE((sym.initial_state() & !sym.signal(a) & !sym.signal(b))
                  .implies(r.reached));
  EXPECT_TRUE((sym.initial_state() & sym.signal(a)).disjoint_with(r.reached));
}

TEST(Traversal, LazyBindingFallingFirst) {
  // First transition of b is b-: its initial value must bind to 1.
  stg::Stg s;
  const stg::SignalId a = s.add_signal("a", stg::SignalKind::kInput);
  const stg::SignalId b = s.add_signal("b", stg::SignalKind::kOutput);
  auto ap = s.add_transition(a, stg::Dir::kPlus);
  auto bm = s.add_transition(b, stg::Dir::kMinus);
  auto bp = s.add_transition(b, stg::Dir::kPlus);
  auto am = s.add_transition(a, stg::Dir::kMinus);
  s.connect(ap, bm);
  s.connect(bm, bp);
  s.connect(bp, am);
  s.connect(am, ap, 1);
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.stats.states, 4.0);
  EXPECT_TRUE((sym.initial_state() & !sym.signal(a) & sym.signal(b))
                  .implies(r.reached));
}

TEST(Traversal, StatsArePopulated) {
  stg::Stg s = stg::muller_pipeline(4);
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_GT(r.stats.passes, 0u);
  EXPECT_GT(r.stats.image_computations, 0u);
  EXPECT_GT(r.stats.peak_reached_nodes, 0u);
  EXPECT_GE(r.stats.peak_reached_nodes, r.stats.final_reached_nodes);
  EXPECT_GT(r.stats.states, 0.0);
}

TEST(AutoSiftPolicy, TriggersOnDoublingOnly) {
  // The documented policy: reorder when the live count has more than
  // doubled since the last reorder (not quadrupled -- the doc and the code
  // disagreed once; this pins the doubling rule).
  AutoSiftPolicy policy(100);
  EXPECT_EQ(policy.watermark, 100u);
  EXPECT_FALSE(policy.should_sift(0));
  EXPECT_FALSE(policy.should_sift(200));  // exactly 2x: not yet
  EXPECT_TRUE(policy.should_sift(201));
}

TEST(AutoSiftPolicy, WatermarkFollowsTheLiveCountButNeverTheFloor) {
  AutoSiftPolicy policy(100);
  policy.reset_watermark(500);  // table grew: next trigger at > 1000
  EXPECT_EQ(policy.watermark, 500u);
  EXPECT_FALSE(policy.should_sift(1000));
  EXPECT_TRUE(policy.should_sift(1001));
  policy.reset_watermark(30);  // sift shrank below the floor: clamp up
  EXPECT_EQ(policy.watermark, 100u);
  EXPECT_FALSE(policy.should_sift(150));
}

TEST(AutoSiftPolicy, ZeroFloorSiftsAtTheFirstOpportunity) {
  AutoSiftPolicy policy(0);
  EXPECT_TRUE(policy.should_sift(1));
  policy.reset_watermark(40);
  EXPECT_FALSE(policy.should_sift(80));
  EXPECT_TRUE(policy.should_sift(81));
}

TEST(Traversal, ForcedAutoSiftMatchesBaselineAndActuallyReorders) {
  stg::Stg s = stg::master_read(3);
  SymbolicStg baseline_sym(s);
  TraversalOptions off;
  off.auto_sift = false;
  const TraversalResult baseline = traverse(baseline_sym, off);

  SymbolicStg sym(s);
  TraversalOptions on;
  on.auto_sift = true;
  on.auto_sift_threshold = 0;
  const TraversalResult sifted = traverse(sym, on);
  EXPECT_TRUE(sifted.ok());
  EXPECT_DOUBLE_EQ(sifted.stats.states, baseline.stats.states);
  EXPECT_DOUBLE_EQ(sifted.stats.markings, baseline.stats.markings);
  EXPECT_GT(sym.manager().reorder_epoch(), 0u);
}

TEST(Traversal, DeadlockDetection) {
  stg::Stg live = stg::muller_pipeline(3);
  SymbolicStg sym_live(live);
  TraversalResult r_live = traverse(sym_live);
  EXPECT_TRUE(deadlock_states(sym_live, r_live.reached).is_false());

  stg::Stg dead = stg::examples::fig3_d1();
  SymbolicStg sym_dead(dead);
  TraversalResult r_dead = traverse(sym_dead);
  EXPECT_FALSE(deadlock_states(sym_dead, r_dead.reached).is_false());
}

}  // namespace
}  // namespace stgcheck::core

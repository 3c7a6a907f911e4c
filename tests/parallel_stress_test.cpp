// Parallel-traversal stress: every example net is traversed at 1, 2, 4
// and 8 threads through the same encoding, and every run must reproduce
// the one-thread reached set bit for bit (same manager, so canonicity
// turns Bdd handle equality into function equality) with the same exact
// state count. core_cross_validation_test pins the one-thread results to
// the explicit state graph, so agreement here transitively pins the
// parallel kernel to the paper's numbers. Random STGs then churn the
// concurrent table/cache under check_invariants().
#include <gtest/gtest.h>

#include <cstddef>

#include "core/image_engine.hpp"
#include "core/traversal.hpp"
#include "example_nets.hpp"
#include "random_stg.hpp"
#include "util/rng.hpp"

namespace stgcheck::core {
namespace {

constexpr std::size_t kThreadArms[] = {2, 4, 8};

/// Traverses `sym` once per thread count and compares against the
/// one-thread reference through the shared manager.
void expect_thread_invariant_traversal(SymbolicStg& sym,
                                       TraversalOptions options) {
  options.abort_on_violation = false;
  options.engine_options.threads = 1;
  const TraversalResult ref = traverse(sym, options);
  for (const std::size_t threads : kThreadArms) {
    // Flush the computed caches so the parallel run recomputes every
    // image instead of replaying the reference run's cache lines.
    sym.manager().collect_garbage();
    options.engine_options.threads = threads;
    const TraversalResult run = traverse(sym, options);
    EXPECT_EQ(run.reached, ref.reached) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(run.stats.states, ref.stats.states)
        << "threads=" << threads;
    EXPECT_DOUBLE_EQ(run.stats.markings, ref.stats.markings)
        << "threads=" << threads;
    EXPECT_EQ(run.consistent, ref.consistent) << "threads=" << threads;
    EXPECT_EQ(run.safe, ref.safe) << "threads=" << threads;
    sym.manager().check_invariants();
  }
  sym.manager().set_thread_count(1);
}

class ParallelStress : public ::testing::TestWithParam<int> {};

TEST_P(ParallelStress, CofactorEngineIsThreadCountInvariant) {
  stg::Stg net = testutil::example_net(GetParam());
  SymbolicStg sym(net);
  TraversalOptions options;
  options.engine = EngineKind::kCofactor;
  expect_thread_invariant_traversal(sym, options);
}

TEST_P(ParallelStress, SaturationEngineIsThreadCountInvariant) {
  stg::Stg net = testutil::example_net(GetParam());
  SymbolicStg sym(net, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  TraversalOptions options;
  options.engine = EngineKind::kSaturation;
  expect_thread_invariant_traversal(sym, options);
}

TEST_P(ParallelStress, RelationalEngineIsThreadCountInvariant) {
  stg::Stg net = testutil::example_net(GetParam());
  SymbolicStg sym(net, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  TraversalOptions options;
  options.engine = EngineKind::kRelational;
  expect_thread_invariant_traversal(sym, options);
}

INSTANTIATE_TEST_SUITE_P(AllNets, ParallelStress,
                         ::testing::Range(0, testutil::kExampleNetCount));

TEST(ParallelStressRandom, RandomStgsStayCanonicalUnderConcurrency) {
  Rng rng(0x5EED);
  for (int round = 0; round < 12; ++round) {
    stg::Stg net = testutil::random_stg(rng);
    const bool saturation = round % 2 != 0;
    SymbolicStg sym(net, Ordering::kInterleaved, 1 << 14,
                    /*with_primed_vars=*/saturation);
    TraversalOptions options;
    options.engine =
        saturation ? EngineKind::kSaturation : EngineKind::kCofactor;
    expect_thread_invariant_traversal(sym, options);
  }
}

}  // namespace
}  // namespace stgcheck::core

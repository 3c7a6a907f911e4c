// Relational scheduling: the support-overlap firing order is a greedy
// permutation of the cluster list, every cluster's rel_next image and
// primed-frame preimage equal the binary relational product on real STG
// relations (merged, padded-disjunction clusters included), and the
// acceptance sweep: the relational engine reaches the exact same BDD and
// state count as the cofactor pipeline on every example net, with
// identical images and preimages.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/image_engine.hpp"
#include "core/relation.hpp"
#include "core/saturation.hpp"
#include "core/traversal.hpp"
#include "example_nets.hpp"
#include "random_stg.hpp"
#include "stg/generators.hpp"
#include "util/rng.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;
using bdd::Var;

// ---------------------------------------------------------------------------
// The support-overlap order
// ---------------------------------------------------------------------------

TEST(SupportOverlapOrder, IsAPermutationOfTheClusters) {
  Rng rng(0x5EED);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = rng.below(9);
    std::vector<std::vector<Var>> supports(n);
    for (std::vector<Var>& s : supports) {
      const std::size_t width = 1 + rng.below(5);
      for (std::size_t i = 0; i < width; ++i) {
        s.push_back(static_cast<Var>(rng.below(12)));
      }
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
    }
    std::vector<std::size_t> order = support_overlap_order(supports);
    ASSERT_EQ(order.size(), n) << "trial " << trial;
    std::sort(order.begin(), order.end());
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_EQ(order[c], c) << "trial " << trial;
    }
  }
}

TEST(SupportOverlapOrder, GreedyMaxOverlapThenFewestNewThenLowestIndex) {
  // Nothing is placed yet, so the smallest support opens ({5}, index 0
  // beats {0}, index 2). Neither {1,2} nor {2,3} overlaps {5, 0}; both add
  // two variables, so the lower index goes first, and {2,3} then shares 2.
  const std::vector<std::vector<Var>> supports = {{5}, {1, 2}, {0}, {2, 3}};
  EXPECT_EQ(support_overlap_order(supports),
            (std::vector<std::size_t>{0, 2, 1, 3}));
  // A chain is followed link by link from its smallest end.
  const std::vector<std::vector<Var>> chain = {{3, 4, 5}, {0, 1}, {1, 2, 3}};
  EXPECT_EQ(support_overlap_order(chain), (std::vector<std::size_t>{1, 2, 0}));
}

TEST(SupportOverlapOrder, SaturationKeepsConstructionOrder) {
  // Only the relational engine reorders its clusters; the saturation
  // engine's unit u stays transition u.
  const stg::Stg s = stg::master_read(3);
  SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  SaturationEngine engine(sym);
  ASSERT_EQ(engine.unit_count(), s.net().transition_count());
  for (pn::TransitionId t = 0; t < engine.unit_count(); ++t) {
    EXPECT_EQ(engine.unit_transitions(t), std::vector<pn::TransitionId>{t});
  }
}

// ---------------------------------------------------------------------------
// The cluster products == the binary relational product, on real STG
// relations
// ---------------------------------------------------------------------------

/// Checks every cluster of a relational engine over `sym` against the
/// binary and_exists over c.rel, with the cubes and the rename map derived
/// here from c.support: image_unit(states, u) is the product renamed back
/// from the primed frame, and preimage(states) is the union of the
/// products taken in the primed frame. Returns the number of merged
/// (multi-transition, padded-disjunction) clusters checked.
std::size_t expect_clusters_match_binary_product(SymbolicStg& sym,
                                                 const Bdd& states,
                                                 const std::string& what) {
  bdd::Manager& m = sym.manager();
  const std::vector<Var>& to_primed = sym.to_primed();
  RelationalEngine engine(sym);
  std::size_t merged = 0;
  Bdd preimage = m.bdd_false();
  for (std::size_t u = 0; u < engine.unit_count(); ++u) {
    const RelationCluster& c = engine.clusters()[u];
    if (c.transitions.size() > 1) ++merged;
    std::vector<Var> rename(m.var_count());
    for (Var v = 0; v < rename.size(); ++v) rename[v] = v;
    std::vector<Var> primed;
    for (const Var v : c.support) {
      rename[v] = to_primed[v];
      primed.push_back(to_primed[v]);
    }
    const Bdd image =
        m.permute(m.and_exists(states, c.rel, m.positive_cube(c.support)),
                  sym.from_primed());
    EXPECT_EQ(engine.image_unit(states, u), image) << what << " unit " << u;
    preimage |= m.and_exists(m.permute(states, rename), c.rel,
                             m.positive_cube(primed));
  }
  EXPECT_EQ(engine.preimage(states), preimage) << what;
  m.check_invariants();
  return merged;
}

TEST(ClusterProducts, MatchBinaryProductOnRandomStgs) {
  Rng rng(0xF01D);
  std::size_t merged = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const stg::Stg s = testutil::random_stg(rng);
    SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                    /*with_primed_vars=*/true);
    CofactorEngine cofactor(sym);
    TraversalOptions topts;
    topts.abort_on_violation = false;
    const Bdd reached = traverse(cofactor, topts).reached;
    const std::string what = "trial " + std::to_string(trial);
    merged += expect_clusters_match_binary_product(sym, reached, what);
    merged += expect_clusters_match_binary_product(sym, sym.initial_state(),
                                                   what + " initial state");
  }
  EXPECT_GT(merged, 0u);
}

TEST(ClusterProducts, MatchBinaryProductOnExampleNets) {
  std::size_t merged = 0;
  for (int i = 0; i < testutil::kExampleNetCount; ++i) {
    const stg::Stg net = testutil::example_net(i);
    SymbolicStg sym(net, Ordering::kInterleaved, 1 << 14,
                    /*with_primed_vars=*/true);
    CofactorEngine cofactor(sym);
    TraversalOptions topts;
    topts.abort_on_violation = false;
    const Bdd reached = traverse(cofactor, topts).reached;
    merged += expect_clusters_match_binary_product(sym, reached, net.name());
  }
  EXPECT_GT(merged, 0u);
}

// ---------------------------------------------------------------------------
// The relational engine reaches bit-identical fixed points on all example
// nets
// ---------------------------------------------------------------------------

class ScheduledEngines : public ::testing::TestWithParam<int> {};

TEST_P(ScheduledEngines, RelationalMatchesCofactorEverywhere) {
  const stg::Stg net = testutil::example_net(GetParam());
  SymbolicStg sym(net, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  TraversalOptions topts;
  topts.abort_on_violation = false;

  CofactorEngine reference(sym);
  const TraversalResult ref = traverse(reference, topts);

  RelationalEngine engine(sym);
  const TraversalResult r = traverse(engine, topts);
  EXPECT_EQ(r.reached, ref.reached);
  EXPECT_DOUBLE_EQ(r.stats.states, ref.stats.states);

  // Images and preimages of the fixed point agree pointwise too,
  // including the per-transition entry points the firing checks use.
  EXPECT_EQ(engine.image(ref.reached), reference.image(ref.reached));
  EXPECT_EQ(engine.preimage(ref.reached), reference.preimage(ref.reached));
  for (pn::TransitionId t = 0; t < net.net().transition_count(); ++t) {
    EXPECT_EQ(engine.image_via(ref.reached, t),
              reference.image_via(ref.reached, t))
        << "t=" << t;
    EXPECT_EQ(engine.preimage_via(ref.reached, t),
              reference.preimage_via(ref.reached, t))
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllNets, ScheduledEngines,
                         ::testing::Range(0, testutil::kExampleNetCount));

}  // namespace
}  // namespace stgcheck::core

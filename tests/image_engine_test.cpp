// The relational backend: clustering respects the node cap, each cluster
// quantifies exactly the variables its transitions touch (and nowhere
// else), and the relational image agrees with the cofactor pipeline --
// including on random STGs far from the hand-built generator families.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/image_engine.hpp"
#include "core/relation.hpp"
#include "core/traversal.hpp"
#include "random_stg.hpp"
#include "stg/generators.hpp"
#include "util/rng.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;
using bdd::Var;

std::unique_ptr<SymbolicStg> primed_encoding(const stg::Stg& s) {
  return std::make_unique<SymbolicStg>(s, Ordering::kInterleaved, 1 << 14,
                                       /*with_primed_vars=*/true);
}

/// The unprimed state variables transition `t` touches: preset/postset
/// places plus the fired signal -- recomputed from the net, independently
/// of the relation builder.
std::vector<Var> touched_vars(const SymbolicStg& sym, pn::TransitionId t) {
  std::set<Var> vars;
  const pn::PetriNet& net = sym.stg().net();
  for (pn::PlaceId p : net.preset(t)) vars.insert(sym.place_var(p));
  for (pn::PlaceId p : net.postset(t)) vars.insert(sym.place_var(p));
  const stg::TransitionLabel& label = sym.stg().label(t);
  if (!label.is_dummy()) vars.insert(sym.signal_var(label.signal));
  return {vars.begin(), vars.end()};
}

// ---------------------------------------------------------------------------
// Clustering
// ---------------------------------------------------------------------------

TEST(Clustering, NodeCapRespected) {
  const stg::Stg s = stg::master_read(5);
  auto sym = primed_encoding(s);
  const std::vector<RelationCluster> sparse = sparse_relations(*sym);
  for (const std::size_t cap : {std::size_t{1}, std::size_t{8},
                                std::size_t{64}, std::size_t{100000}}) {
    for (const RelationCluster& c : cluster_relations(*sym, sparse, cap)) {
      // A cap cannot split a single transition; only multi-transition
      // clusters must obey it.
      if (c.transitions.size() > 1) {
        EXPECT_LE(sym->manager().count_nodes(c.rel), cap) << "cap " << cap;
      }
    }
  }
}

TEST(Clustering, TinyCapYieldsSingletons) {
  const stg::Stg s = stg::muller_pipeline(4);
  auto sym = primed_encoding(s);
  // Nothing can merge under a one-node cap.
  EXPECT_EQ(cluster_relations(*sym, sparse_relations(*sym), 1).size(),
            s.net().transition_count());
}

TEST(Clustering, HugeCapMergesOverlappingSupports) {
  // On a pipeline every adjacent transition pair shares a place, so a
  // boundless cap must produce fewer clusters than transitions.
  const stg::Stg s = stg::muller_pipeline(6);
  auto sym = primed_encoding(s);
  EXPECT_LT(cluster_relations(*sym, sparse_relations(*sym), 1u << 20).size(),
            s.net().transition_count());
}

TEST(Clustering, EveryTransitionInExactlyOneCluster) {
  const stg::Stg s = stg::mutex_arbiter(4);
  auto sym = primed_encoding(s);
  RelationalEngine engine(*sym);
  std::vector<int> seen(s.net().transition_count(), 0);
  for (const RelationCluster& c : engine.clusters()) {
    for (pn::TransitionId t : c.transitions) ++seen[t];
  }
  for (pn::TransitionId t = 0; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t], 1) << s.format_label(t);
  }
}

// ---------------------------------------------------------------------------
// Quantification
// ---------------------------------------------------------------------------

TEST(QuantificationSchedule, EachVariableAtTheEarliestLegalCluster) {
  for (const stg::Stg& s : {stg::muller_pipeline(5), stg::master_read(3),
                            stg::mutex_arbiter(3), stg::select_chain(3)}) {
    auto sym = primed_encoding(s);
    RelationalEngine engine(*sym);
    bdd::Manager& m = sym->manager();
    for (const RelationCluster& c : engine.clusters()) {
      // The legal quantification set of a cluster is the union of its
      // members' touched variables: quantifying any of them in an earlier
      // cluster would lose that cluster's frame; quantifying any other
      // variable here would lose the state set's own constraint.
      std::set<Var> legal;
      for (pn::TransitionId t : c.transitions) {
        for (Var v : touched_vars(*sym, t)) legal.insert(v);
      }
      EXPECT_EQ(std::set<Var>(c.support.begin(), c.support.end()), legal)
          << s.name();
      EXPECT_EQ(c.quant_cube, m.positive_cube(c.support)) << s.name();
    }
  }
}

TEST(QuantificationSchedule, MonolithicQuantifiesEverythingAtOnce) {
  // The contrast clustering exists for: a monolithic step quantifies every
  // state variable; a capped cluster quantifies only its own support.
  const stg::Stg s = stg::select_chain(4);
  auto sym = primed_encoding(s);
  const std::vector<RelationCluster> clusters =
      cluster_relations(*sym, sparse_relations(*sym), 32);  // keep them local
  const std::size_t state_vars =
      sym->place_var_list().size() + sym->signal_var_list().size();
  ASSERT_GT(clusters.size(), 1u);
  for (const RelationCluster& c : clusters) {
    EXPECT_LT(c.support.size(), state_vars);
  }
}

// ---------------------------------------------------------------------------
// Random STGs: relational == cofactor
// ---------------------------------------------------------------------------

TEST(RandomStgs, RelationalMatchesCofactor) {
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 12; ++trial) {
    const stg::Stg s = testutil::random_stg(rng);
    const std::size_t cap = 1 + rng.below(500);
    auto sym = primed_encoding(s);
    CofactorEngine cofactor(*sym);
    RelationalEngine relational(*sym);

    // Random rings may be inconsistent STGs; images must agree regardless.
    TraversalOptions topts;
    topts.abort_on_violation = false;
    const TraversalResult ref = traverse(cofactor, topts);

    EXPECT_EQ(relational.image(ref.reached), cofactor.image(ref.reached))
        << "trial " << trial;
    EXPECT_EQ(relational.preimage(ref.reached), cofactor.preimage(ref.reached))
        << "trial " << trial;
    for (pn::TransitionId t = 0; t < s.net().transition_count(); ++t) {
      EXPECT_EQ(relational.image_via(ref.reached, t),
                cofactor.image_via(ref.reached, t))
          << "trial " << trial << " " << s.format_label(t);
      EXPECT_EQ(relational.preimage_via(ref.reached, t),
                cofactor.preimage_via(ref.reached, t))
          << "trial " << trial << " " << s.format_label(t);
    }
    EXPECT_EQ(traverse(relational, topts).reached, ref.reached)
        << "trial " << trial;

    // Clustering is sound at any cap: the padded cluster relations' images
    // still union to the full image.
    bdd::Manager& m = sym->manager();
    Bdd by_clusters = m.bdd_false();
    for (const RelationCluster& c :
         cluster_relations(*sym, sparse_relations(*sym), cap)) {
      by_clusters |= m.permute(m.and_exists(ref.reached, c.rel, c.quant_cube),
                               sym->from_primed());
    }
    EXPECT_EQ(by_clusters, cofactor.image(ref.reached))
        << "trial " << trial << " cap " << cap;
  }
}

TEST(EngineFactory, BuildsEveryKind) {
  const stg::Stg s = stg::examples::vme_read();
  auto sym = primed_encoding(s);
  for (EngineKind kind : {EngineKind::kCofactor, EngineKind::kRelational,
                          EngineKind::kSaturation}) {
    const std::unique_ptr<ImageEngine> engine = make_engine(kind, *sym);
    EXPECT_EQ(engine->kind(), kind);
    EXPECT_STREQ(engine->name(), to_string(kind));
    EXPECT_GT(engine->unit_count(), 0u);
  }
}

}  // namespace
}  // namespace stgcheck::core

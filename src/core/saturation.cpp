#include "core/saturation.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace stgcheck::core {

using bdd::Bdd;
using bdd::Var;

std::vector<LevelClusterInfo> level_partition(
    const bdd::Manager& manager, const std::vector<RelationCluster>& clusters) {
  std::vector<LevelClusterInfo> partition;
  partition.reserve(clusters.size());
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    // The cluster support is sorted by variable id; the *top* variable is
    // the one at the smallest current level.
    LevelClusterInfo info;
    info.cluster = c;
    for (const Var v : clusters[c].support) {
      const std::size_t l = manager.level_of_var(v);
      if (info.top_var == bdd::kInvalidVar || l < info.top_level) {
        info.top_var = v;
        info.top_level = l;
      }
    }
    partition.push_back(info);
  }
  std::stable_sort(partition.begin(), partition.end(),
                   [](const LevelClusterInfo& a, const LevelClusterInfo& b) {
                     return a.top_level < b.top_level;
                   });
  return partition;
}

SaturationEngine::SaturationEngine(SymbolicStg& sym) : ImageEngine(sym) {
  const pn::PetriNet& net = sym.stg().net();
  sparse_.reserve(net.transition_count());
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    sparse_.push_back(build_sparse_relation(sym, t));
  }
  sparse_apply_.resize(net.transition_count());
  // Singleton clusters: the kernel REACH saturates per relation, so
  // merging buys no locality and the padded-disjunction construction cost
  // of merged clusters (select24: ~350k transient live nodes) would
  // dominate the whole fixpoint's footprint.
  clusters_ = singleton_clusters(sym, sparse_);
  stats_.units = clusters_.size();

  refresh_node_stats();
  rebuild_partition();
}

void SaturationEngine::refresh_node_stats() {
  std::vector<Bdd> rels;
  rels.reserve(clusters_.size());
  for (const RelationCluster& c : clusters_) rels.push_back(c.rel);
  stats_.relation_nodes = sym_.manager().count_nodes(rels);
}

void SaturationEngine::rebuild_partition() {
  partition_ = level_partition(sym_.manager(), clusters_);
  reach_relations_.clear();
  reach_relations_.reserve(partition_.size());
  for (const LevelClusterInfo& info : partition_) {
    const RelationCluster& cl = clusters_[info.cluster];
    reach_relations_.push_back(bdd::ReachRelation{cl.rel, cl.quant_cube});
  }
}

void SaturationEngine::on_reorder() {
  // Both the node-count statistics and the level partition are shaped by
  // the order; the relation handles themselves survive the reorder.
  refresh_node_stats();
  rebuild_partition();
}

Bdd SaturationEngine::reach_fixpoint(const Bdd& from) {
  sync_with_order();
  ++stats_.image_calls;
  ++reach_calls_;
  StepGauge gauge(*this);
  return sym_.manager().reach(from, reach_relations_);
}

Bdd SaturationEngine::image_unit(const Bdd& states, std::size_t u) {
  sync_with_order();
  ++stats_.image_calls;
  StepGauge gauge(*this);
  return sym_.manager().rel_next(states, clusters_[u].rel,
                                 clusters_[u].quant_cube);
}

const SparseApplyData& SaturationEngine::sparse_apply(pn::TransitionId t) {
  SparseApplyData& a = sparse_apply_[t];
  if (!a.built) a = build_sparse_apply(sym_, sparse_[t].support);
  return a;
}

Bdd SaturationEngine::image_via(const Bdd& states, pn::TransitionId t) {
  sync_with_order();
  ++stats_.image_calls;
  StepGauge gauge(*this);
  // Singleton clusters index like transitions, so cluster t holds t's
  // relation.
  return sym_.manager().rel_next(states, clusters_[t].rel,
                                 sparse_apply(t).quant_cube);
}

Bdd SaturationEngine::preimage_via(const Bdd& states, pn::TransitionId t) {
  sync_with_order();
  ++stats_.preimage_calls;
  StepGauge gauge(*this);
  bdd::Manager& m = sym_.manager();
  const SparseApplyData& a = sparse_apply(t);
  const Bdd primed_states = m.permute(states, a.rename_to_primed);
  return m.and_exists(primed_states, clusters_[t].rel, a.primed_quant_cube);
}

}  // namespace stgcheck::core

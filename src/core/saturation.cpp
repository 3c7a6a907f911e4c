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

SaturationEngine::SaturationEngine(SymbolicStg& sym)
    : SparseRelationEngine(sym) {
  // One relation per transition, never merged: the kernel REACH saturates
  // per relation, so merging buys no locality and the padded-disjunction
  // construction cost of merged clusters (select24: ~350k transient live
  // nodes) would dominate the whole fixpoint's footprint.
  stats_.units = by_transition_.size();
  count_relation_nodes(by_transition_);
  rebuild_partition();
}

void SaturationEngine::rebuild_partition() {
  partition_ = level_partition(sym_.manager(), by_transition_);
  reach_relations_.clear();
  reach_relations_.reserve(partition_.size());
  for (const LevelClusterInfo& info : partition_) {
    const RelationCluster& cl = by_transition_[info.cluster];
    reach_relations_.push_back(bdd::ReachRelation{cl.rel, cl.quant_cube});
  }
}

void SaturationEngine::on_reorder() {
  // Both the node-count statistics and the level partition are shaped by
  // the order; the relation handles themselves survive the reorder.
  count_relation_nodes(by_transition_);
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
  return cluster_image(states, by_transition_[u]);
}

}  // namespace stgcheck::core

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

SaturationEngine::SaturationEngine(SymbolicStg& sym,
                                   const EngineOptions& options)
    : ImageEngine(sym), template_mode_(options.relation_templates) {
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

  if (template_mode_ != TemplateMode::kOff) {
    templates_ = detect_relation_templates(sym.manager(), sparse_);
    // kAuto only pays the sharing machinery when it buys something; with
    // every group a singleton it stays on the classic path, bit-identical
    // to kOff (the detection above allocates no nodes and touches no
    // caches, so even the manager's counters agree).
    templates_active_ = template_mode_ == TemplateMode::kOn ||
                        templates_.shared_groups > 0;
  }
  if (templates_active_) {
    rep_of_.resize(clusters_.size());
    for (const RelationTemplateGroup& g : templates_.groups) {
      for (const std::size_t m : g.members) rep_of_[m] = g.members[0];
    }
    // Non-representatives drop their bodies -- the whole point: one
    // template body per isomorphism group stays resident, everything else
    // is served by shift firing or on-demand instantiation. Both the
    // sparse list and the cluster must let go (they alias the same
    // graph, and retained-node accounting follows the handles).
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      if (rep_of_[c] == c) continue;
      sparse_[c].rel = Bdd();
      sparse_[c].factors.clear();
      clusters_[c].rel = Bdd();
      clusters_[c].factors.clear();
    }
    stats_.template_groups = templates_.shared_groups;
    stats_.template_instances = templates_.instances;
  }
  refresh_node_stats();
  rebuild_partition();
}

Bdd SaturationEngine::instance_rel(std::size_t c) {
  if (clusters_[c].rel.valid()) return clusters_[c].rel;
  // Template sharing dropped this body: stamp the group template out at
  // c's position. The rename pairs the template's BDD variables with the
  // instance's, elementwise in detection-time level order -- a semantic
  // identity independent of the current order -- and the permute memo
  // makes the second stamping at the same position a cache lookup.
  bdd::Manager& m = sym_.manager();
  const std::size_t rep = rep_of_[c];
  const std::vector<Var>& rv = templates_.bdd_support[rep];
  const std::vector<Var>& mv = templates_.bdd_support[c];
  std::vector<Var> perm(m.var_count());
  for (Var v = 0; v < perm.size(); ++v) perm[v] = v;
  for (std::size_t k = 0; k < rv.size(); ++k) perm[rv[k]] = mv[k];
  return m.permute(clusters_[rep].rel, perm);
}

void SaturationEngine::refresh_node_stats() {
  // Only resident bodies count: with template sharing active the
  // non-representatives hold no handle, which is exactly the reduction
  // the stat is meant to show.
  std::vector<Bdd> rels;
  rels.reserve(clusters_.size());
  for (const RelationCluster& c : clusters_) {
    if (c.rel.valid()) rels.push_back(c.rel);
  }
  stats_.relation_nodes = sym_.manager().count_nodes(rels);
  if (templates_active_) {
    std::size_t saved = 0;
    for (const RelationTemplateGroup& g : templates_.groups) {
      if (g.members.size() < 2) continue;
      saved += sym_.manager().count_nodes(clusters_[g.members[0]].rel) *
               (g.members.size() - 1);
    }
    stats_.template_saved_nodes = saved;
  }
}

void SaturationEngine::rebuild_partition() {
  bdd::Manager& m = sym_.manager();
  partition_ = level_partition(m, clusters_);
  reach_relations_.clear();
  reach_relations_.reserve(partition_.size());
  for (const LevelClusterInfo& info : partition_) {
    const std::size_t c = info.cluster;
    const RelationCluster& cl = clusters_[c];
    if (cl.rel.valid()) {
      reach_relations_.push_back(bdd::ReachRelation{cl.rel, cl.quant_cube});
      continue;
    }
    // A dropped body fires through its group template. When the instance's
    // variables sit at one uniform level displacement from the template's
    // -- pairwise, over the detection pairing -- canonicity makes the
    // instance BDD *be* the template graph read `d` levels lower, so the
    // kernel fires the shared body in place (ReachRelation::shift) and no
    // instance graph ever exists. A reorder can break the uniformity;
    // then the instance is stamped out on demand and fires classically.
    const std::size_t rep = rep_of_[c];
    const std::vector<Var>& rv = templates_.bdd_support[rep];
    const std::vector<Var>& mv = templates_.bdd_support[c];
    bool uniform = !rv.empty() && rv.size() == mv.size();
    std::ptrdiff_t d = 0;
    if (uniform) {
      d = static_cast<std::ptrdiff_t>(m.level_of_var(mv[0])) -
          static_cast<std::ptrdiff_t>(m.level_of_var(rv[0]));
      for (std::size_t k = 1; k < rv.size(); ++k) {
        const std::ptrdiff_t dk =
            static_cast<std::ptrdiff_t>(m.level_of_var(mv[k])) -
            static_cast<std::ptrdiff_t>(m.level_of_var(rv[k]));
        if (dk != d) {
          uniform = false;
          break;
        }
      }
    }
    if (uniform) {
      reach_relations_.push_back(
          bdd::ReachRelation{clusters_[rep].rel, cl.quant_cube, d});
    } else {
      reach_relations_.push_back(
          bdd::ReachRelation{instance_rel(c), cl.quant_cube, 0});
    }
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
  return sym_.manager().rel_next(states, instance_rel(u),
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
  // Singleton clusters index like transitions, so instance_rel(t) is t's
  // relation -- its own body, or the group template stamped out here.
  return sym_.manager().rel_next(states, instance_rel(t),
                                 sparse_apply(t).quant_cube);
}

Bdd SaturationEngine::preimage_via(const Bdd& states, pn::TransitionId t) {
  sync_with_order();
  ++stats_.preimage_calls;
  StepGauge gauge(*this);
  bdd::Manager& m = sym_.manager();
  const Bdd rel = instance_rel(t);
  const SparseApplyData& a = sparse_apply(t);
  const Bdd primed_states = m.permute(states, a.rename_to_primed);
  return m.and_exists(primed_states, rel, a.primed_quant_cube);
}

}  // namespace stgcheck::core

// The saturation subsystem: the core half of the in-kernel REACH fixpoint.
//
// The paper's traversal -- and both step-wise backends -- computes
// the reached set as a global breadth-first/chaining fixpoint: frontier
// BDDs spanning the whole state space are materialized once per pass,
// which is exactly where the peak-live blowups live (mread8 sift-off:
// chaining 1.31M, full fixpoint 1.45M). Saturation pushes the fixpoint *into*
// the BDD recursion (bdd::Manager::reach, after Brand-Baeck-Laarman,
// arXiv:2212.03684): relations are partitioned by the current level of
// their top support variable, and the kernel saturates the substates
// under every relation at or below a level before anything propagates
// upward. Whole-space frontiers never exist; the working set is the
// final reached BDD plus level-local intermediates.
//
// This module owns the core-side half of that split:
//
//   * level_partition() orders the per-transition sparse relations (the
//     same RelationCluster machinery the relational engine uses; per-level
//     clustering in the spirit of Appold's isomorphism-exploiting
//     partitioning, arXiv:1106.1229) by top support level. The partition
//     depends on the *current* variable order, so it is rebuilt on every
//     reorder epoch via ImageEngine::sync_with_order().
//
//   * SaturationEngine plugs the operation in behind the standard
//     ImageEngine interface: traverse() detects computes_global_fixpoint()
//     and calls reach_fixpoint() instead of iterating units, while the
//     implementability checks keep using the ordinary per-transition
//     image_via/preimage_via, which SparseRelationEngine serves from the
//     same sparse relations (the forward image through the kernel's
//     rel_next product, as in the relational engine).
#pragma once

#include "core/image_engine.hpp"

namespace stgcheck::core {

/// One cluster's slot in the level partition.
struct LevelClusterInfo {
  std::size_t cluster = 0;    ///< index into the engine's cluster list
  bdd::Var top_var = bdd::kInvalidVar;  ///< support var highest in the order
  std::size_t top_level = 0;  ///< its current level
};

/// Orders clusters by the current level of their top (highest-in-order)
/// support variable, ascending; ties keep cluster-index order. This is
/// the firing structure the saturation fixpoint works over -- a
/// cluster's image can only change variables at or below its top level.
/// Manager::reach re-derives the same order internally with its own
/// stable sort (the kernel cannot trust callers), so this partition is
/// the engine's introspectable view of it, not a soundness requirement
/// on the operand order.
std::vector<LevelClusterInfo> level_partition(
    const bdd::Manager& manager, const std::vector<RelationCluster>& clusters);

/// The third image backend: whole-space reachability through the
/// kernel's REACH operation. Requires an encoding with primed variables
/// (the twin-pair layout is what the kernel's positional rename relies
/// on). Step-wise images for the checks run on the same relations through
/// SparseRelationEngine's cluster products.
class SaturationEngine final : public SparseRelationEngine {
 public:
  explicit SaturationEngine(SymbolicStg& sym);

  const char* name() const override { return "saturation"; }
  EngineKind kind() const override { return EngineKind::kSaturation; }

  bool computes_global_fixpoint() const override { return true; }
  /// The least fixpoint of `from` under every transition, in one kernel
  /// reach() call.
  bdd::Bdd reach_fixpoint(const bdd::Bdd& from) override;

  // Units exist for the checks and for callers that step manually; the
  // traversal itself never iterates them (computes_global_fixpoint). Unit
  // u is transition u's relation.
  std::size_t unit_count() const override { return by_transition_.size(); }
  const std::vector<pn::TransitionId>& unit_transitions(std::size_t u) const override {
    return by_transition_[u].transitions;
  }
  bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u) override;

  // ---- Introspection (tests, benches, docs) ------------------------------

  /// The current level partition (refreshed on every reorder epoch).
  const std::vector<LevelClusterInfo>& partition() const { return partition_; }
  /// Completed kernel reach() calls.
  std::size_t reach_calls() const { return reach_calls_; }

 protected:
  void on_reorder() override;

 private:
  void rebuild_partition();

  std::vector<LevelClusterInfo> partition_;
  /// The relations as kernel reach operands, in partition order.
  std::vector<bdd::ReachRelation> reach_relations_;
  std::size_t reach_calls_ = 0;
};

}  // namespace stgcheck::core

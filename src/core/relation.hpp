// Transition-relation construction over (V, V') variable pairs: the raw
// material for the relational ImageEngine backends (core/image_engine.hpp).
//
// The paper's image operator never builds a relation -- delta_N is four
// cube operations -- which is one of its contributions. This module lets
// that claim be tested against a *fair* relational baseline rather than a
// strawman, and it is the door to encodings the cofactor trick cannot
// express (k-bounded places, multi-token arcs): those only need a
// different relation builder behind the same ImageEngine interface.
//
// Relations here are *sparse*: a transition's relation carries no frame
// conjuncts and only mentions the variables the transition touches
// (preset/postset places and the fired signal). Its image quantifies and
// renames only that support; untouched variables flow through S
// unchanged, which is the frame condition for free. ORing two sparse
// relations is only sound after padding each with the frame of the
// other's support (cluster_relations), so clustering by shared support
// keeps the padding -- and the cluster BDDs -- small, and gives each
// cluster a minimal early-quantification cube. Padding a relation with
// the frame of *every* untouched variable yields the textbook full-frame
// relation; the relational engine never builds one.
#pragma once

#include <vector>

#include "core/encoding.hpp"

namespace stgcheck::core {

/// One transition's relation plus the support bookkeeping the relational
/// backends need for clustering and early quantification.
struct TransitionRelation {
  pn::TransitionId t = pn::kNoId;
  bdd::Bdd rel;
  /// Unprimed state variables constrained by `rel`, sorted by id.
  std::vector<bdd::Var> support;
  /// Conjunctive factorization of `rel`: one primitive constraint per
  /// touched place (the token move over (p, p')) plus one for the fired
  /// signal's flip. The relational engine hands these to the n-ary kernel
  /// (Manager::and_exists_multi) unconjoined.
  std::vector<bdd::Bdd> factors;
};

/// Frame-free relation of one transition: constraints only over the
/// variables `t` touches. Requires primed variables.
TransitionRelation build_sparse_relation(SymbolicStg& sym, pn::TransitionId t);

/// Conjunction of v <-> v' over `vars` (unprimed ids); the frame padding
/// used when sparse relations are merged into one cluster.
bdd::Bdd frame_constraint(SymbolicStg& sym, const std::vector<bdd::Var>& vars);

/// One support-clustered group of sparse relations plus everything an
/// image/preimage step needs: the cluster relation (disjunction of padded
/// members), its quantification cubes and the support-local rename map.
/// Shared by the relational and saturation engines.
struct RelationCluster {
  std::vector<pn::TransitionId> transitions;
  bdd::Bdd rel;
  /// Unprimed state variables the cluster constrains, sorted by id.
  std::vector<bdd::Var> support;
  bdd::Bdd quant_cube;         ///< positive cube of `support`
  bdd::Bdd primed_quant_cube;  ///< positive cube of the primed twins
  /// support -> primed twin, identity elsewhere (a support-local rename).
  std::vector<bdd::Var> rename_to_primed;
  /// Conjunctive factorization of `rel` for the n-ary kernel: a singleton
  /// cluster keeps its transition's primitive constraints, a merged
  /// cluster collapses to the one factor `rel` (a disjunction of padded
  /// members does not factor).
  std::vector<bdd::Bdd> factors;
};

/// Greedily clusters sparse relations by shared support up to `cap` nodes
/// per cluster relation: each relation joins the candidate cluster with
/// the largest support overlap whose padded disjunction stays under the
/// cap, or starts a new cluster. A single transition larger than the cap
/// stays a singleton (a cap cannot split one transition).
std::vector<RelationCluster> cluster_relations(
    SymbolicStg& sym, const std::vector<TransitionRelation>& sparse,
    std::size_t cap);

/// The firing order of a cluster list, as indices into `supports` (each
/// free of duplicates): greedily append the unplaced cluster sharing the
/// most variables with those already placed; ties prefer the cluster
/// introducing the fewest new variables, then the lowest index, so the
/// first pick is the smallest support. The order changes no image BDD --
/// each cluster quantifies exactly its own support -- but consecutive
/// products stay on warm computed-cache entries and, under chaining,
/// fresh states reach the clusters most likely to fire from them first.
std::vector<std::size_t> support_overlap_order(
    const std::vector<std::vector<bdd::Var>>& supports);

/// One singleton cluster per transition, no merging -- and hence none of
/// the padded-disjunction construction cost merging pays (select24's
/// clustered build transiently peaks at ~350k live nodes; the singleton
/// build allocates nothing beyond the sparse relations themselves). This
/// is the saturation backend's partition: the kernel REACH saturates
/// per-relation anyway, so merged clusters only coarsen its level
/// locality.
std::vector<RelationCluster> singleton_clusters(
    SymbolicStg& sym, const std::vector<TransitionRelation>& sparse);

/// Per-transition (or per-cluster) apply data for sparse relational
/// products over the given support: quantification cubes for both
/// directions and the support-local rename map.
struct SparseApplyData {
  bool built = false;
  bdd::Bdd quant_cube;
  bdd::Bdd primed_quant_cube;
  std::vector<bdd::Var> rename_to_primed;
};

SparseApplyData build_sparse_apply(SymbolicStg& sym,
                                   const std::vector<bdd::Var>& support);

}  // namespace stgcheck::core

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
};

/// The frame-free relation of every transition, as one singleton cluster
/// per transition (indexed by transition): constraints only over the
/// variables the transition touches -- the token moves of its preset and
/// postset places and the fired signal's flip. Requires primed variables.
std::vector<RelationCluster> sparse_relations(SymbolicStg& sym);

/// Greedily clusters the singleton `sparse` relations by shared support up
/// to `cap` nodes per cluster relation: each relation joins the candidate
/// cluster with the largest support overlap whose padded disjunction stays
/// under the cap, or starts a new cluster. A single transition larger than
/// the cap stays a singleton (a cap cannot split one transition).
std::vector<RelationCluster> cluster_relations(
    SymbolicStg& sym, const std::vector<RelationCluster>& sparse,
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

}  // namespace stgcheck::core

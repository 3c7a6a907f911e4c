#include "core/relation.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/flat_map.hpp"

namespace stgcheck::core {

using bdd::Bdd;
using bdd::Var;

namespace {

void require_primed(const SymbolicStg& sym) {
  if (!sym.has_primed_vars()) {
    throw ModelError("transition relations need an encoding with primed "
                     "variables (SymbolicStg(..., with_primed_vars = true))");
  }
}

/// The constraints shared by both relation flavours: token moves for the
/// places around `t` and the fired signal's flip, emitted one primitive
/// constraint per touched variable into `factors`. Appends the touched
/// unprimed variables to `support`; the conjunction of the factors is the
/// sparse relation.
void core_constraints(SymbolicStg& sym, pn::TransitionId t,
                      std::vector<Var>& support, std::vector<Bdd>& factors) {
  bdd::Manager& m = sym.manager();
  const stg::Stg& stg = sym.stg();
  const pn::PetriNet& net = stg.net();

  const std::vector<pn::PlaceId>& pre = net.preset(t);
  const std::vector<pn::PlaceId>& post = net.postset(t);
  // Binary-searchable membership (util/flat_map.hpp) instead of a linear
  // std::find per query: presets of wide joins make this quadratic.
  const FlatSet<pn::PlaceId> pre_set(pre.begin(), pre.end());
  const FlatSet<pn::PlaceId> post_set(post.begin(), post.end());
  const auto in_pre = [&](pn::PlaceId p) { return pre_set.contains(p); };
  const auto in_post = [&](pn::PlaceId p) { return post_set.contains(p); };

  const auto touch_place = [&](pn::PlaceId p) {
    const Bdd cur = m.var(sym.place_var(p));
    const Bdd nxt = m.var(sym.primed_place_var(p));
    support.push_back(sym.place_var(p));
    if (in_pre(p) && in_post(p)) {
      factors.push_back(cur & nxt);  // self-loop place: stays marked
    } else if (in_pre(p)) {
      factors.push_back(cur & !nxt);  // consumed
    } else {
      factors.push_back((!cur) & nxt);  // produced; !cur is the safeness premise
    }
  };
  for (pn::PlaceId p : pre) touch_place(p);
  for (pn::PlaceId p : post) {
    if (!in_pre(p)) touch_place(p);
  }

  const stg::TransitionLabel& label = stg.label(t);
  if (!label.is_dummy()) {
    const Bdd cur = m.var(sym.signal_var(label.signal));
    const Bdd nxt = m.var(sym.primed_signal_var(label.signal));
    support.push_back(sym.signal_var(label.signal));
    factors.push_back(label.dir == stg::Dir::kPlus ? ((!cur) & nxt)
                                                   : (cur & !nxt));
  }
}

}  // namespace

Bdd frame_constraint(SymbolicStg& sym, const std::vector<Var>& vars) {
  require_primed(sym);
  bdd::Manager& m = sym.manager();
  const std::vector<Var>& to_primed = sym.to_primed();
  Bdd frame = m.bdd_true();
  for (Var v : vars) {
    frame &= !(m.var(v) ^ m.var(to_primed[v]));
  }
  return frame;
}

TransitionRelation build_sparse_relation(SymbolicStg& sym, pn::TransitionId t) {
  require_primed(sym);
  TransitionRelation r;
  r.t = t;
  core_constraints(sym, t, r.support, r.factors);
  r.rel = sym.manager().bdd_true();
  for (const Bdd& f : r.factors) r.rel &= f;
  std::sort(r.support.begin(), r.support.end());
  r.support.erase(std::unique(r.support.begin(), r.support.end()),
                  r.support.end());
  return r;
}

SparseApplyData build_sparse_apply(SymbolicStg& sym,
                                   const std::vector<Var>& support) {
  require_primed(sym);
  bdd::Manager& m = sym.manager();
  const std::vector<Var>& to_primed = sym.to_primed();
  SparseApplyData a;
  a.quant_cube = m.positive_cube(support);
  a.rename_to_primed.resize(m.var_count());
  for (Var v = 0; v < a.rename_to_primed.size(); ++v) a.rename_to_primed[v] = v;
  std::vector<Var> primed;
  primed.reserve(support.size());
  for (Var v : support) {
    a.rename_to_primed[v] = to_primed[v];
    primed.push_back(to_primed[v]);
  }
  a.primed_quant_cube = m.positive_cube(primed);
  a.built = true;
  return a;
}

namespace {

void finalize_cluster(SymbolicStg& sym, RelationCluster& c) {
  SparseApplyData a = build_sparse_apply(sym, c.support);
  c.quant_cube = std::move(a.quant_cube);
  c.primed_quant_cube = std::move(a.primed_quant_cube);
  c.rename_to_primed = std::move(a.rename_to_primed);
  // A merged cluster's relation is a disjunction, which does not factor;
  // only singletons keep the primitive constraint list.
  if (c.factors.empty()) c.factors = {c.rel};
}

}  // namespace

std::vector<RelationCluster> cluster_relations(
    SymbolicStg& sym, const std::vector<TransitionRelation>& sparse,
    std::size_t cap) {
  require_primed(sym);
  bdd::Manager& m = sym.manager();
  std::vector<RelationCluster> clusters;
  for (const TransitionRelation& r : sparse) {
    // Candidate clusters ranked by shared support (descending); merging
    // into a disjoint-support cluster would only add frame padding.
    std::vector<std::pair<std::size_t, std::size_t>> candidates;  // (shared, idx)
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      std::vector<Var> shared;
      std::set_intersection(clusters[c].support.begin(),
                            clusters[c].support.end(), r.support.begin(),
                            r.support.end(), std::back_inserter(shared));
      if (!shared.empty()) candidates.push_back({shared.size(), c});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    bool merged = false;
    for (const auto& [shared, idx] : candidates) {
      (void)shared;
      RelationCluster& c = clusters[idx];
      std::vector<Var> new_support;
      std::set_union(c.support.begin(), c.support.end(), r.support.begin(),
                     r.support.end(), std::back_inserter(new_support));
      // Pad each side with the frame of the variables only the other
      // side touches, so the disjunction keeps them unchanged.
      std::vector<Var> pad_cluster;
      std::set_difference(new_support.begin(), new_support.end(),
                          c.support.begin(), c.support.end(),
                          std::back_inserter(pad_cluster));
      std::vector<Var> pad_member;
      std::set_difference(new_support.begin(), new_support.end(),
                          r.support.begin(), r.support.end(),
                          std::back_inserter(pad_member));
      const Bdd candidate_rel = (c.rel & frame_constraint(sym, pad_cluster)) |
                                (r.rel & frame_constraint(sym, pad_member));
      if (m.count_nodes(candidate_rel) > cap) continue;
      c.rel = candidate_rel;
      c.support = std::move(new_support);
      c.transitions.push_back(r.t);
      c.factors.clear();  // merged: the disjunction no longer factors
      merged = true;
      break;
    }
    if (!merged) {
      RelationCluster c;
      c.transitions.push_back(r.t);
      c.rel = r.rel;
      c.support = r.support;
      c.factors = r.factors;
      clusters.push_back(std::move(c));
    }
  }
  for (RelationCluster& c : clusters) finalize_cluster(sym, c);
  return clusters;
}

std::vector<std::size_t> support_overlap_order(
    const std::vector<std::vector<Var>>& supports) {
  const std::size_t n = supports.size();
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  FlatSet<Var> seen;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    std::size_t best_overlap = 0;
    std::size_t best_new = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (placed[c]) continue;
      std::size_t overlap = 0;
      for (Var v : supports[c]) overlap += seen.count(v);
      const std::size_t fresh = supports[c].size() - overlap;
      if (best == n || overlap > best_overlap ||
          (overlap == best_overlap && fresh < best_new)) {
        best = c;
        best_overlap = overlap;
        best_new = fresh;
      }
    }
    placed[best] = true;
    order.push_back(best);
    seen.insert(supports[best].begin(), supports[best].end());
  }
  return order;
}

std::vector<RelationCluster> singleton_clusters(
    SymbolicStg& sym, const std::vector<TransitionRelation>& sparse) {
  require_primed(sym);
  std::vector<RelationCluster> clusters;
  clusters.reserve(sparse.size());
  for (const TransitionRelation& r : sparse) {
    RelationCluster c;
    c.transitions.push_back(r.t);
    c.rel = r.rel;
    c.support = r.support;
    c.factors = r.factors;
    finalize_cluster(sym, c);
    clusters.push_back(std::move(c));
  }
  return clusters;
}

}  // namespace stgcheck::core

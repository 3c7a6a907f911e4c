#include "core/relation.hpp"

#include <algorithm>

#include "util/error.hpp"

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

/// The constraints of a sparse relation: token moves for the places around
/// `t` and the fired signal's flip, one primitive constraint per touched
/// variable, emitted into `constraints`. Appends the touched unprimed
/// variables to `support`; the conjunction of the constraints is the
/// sparse relation.
void core_constraints(SymbolicStg& sym, pn::TransitionId t,
                      std::vector<Var>& support, std::vector<Bdd>& constraints) {
  bdd::Manager& m = sym.manager();
  const stg::Stg& stg = sym.stg();
  const pn::PetriNet& net = stg.net();

  const std::vector<pn::PlaceId>& pre = net.preset(t);
  const std::vector<pn::PlaceId>& post = net.postset(t);
  // Binary-searchable membership instead of a linear std::find per query:
  // presets of wide joins would make this quadratic.
  std::vector<pn::PlaceId> pre_sorted = pre;
  std::vector<pn::PlaceId> post_sorted = post;
  std::sort(pre_sorted.begin(), pre_sorted.end());
  std::sort(post_sorted.begin(), post_sorted.end());
  const auto in_pre = [&](pn::PlaceId p) {
    return std::binary_search(pre_sorted.begin(), pre_sorted.end(), p);
  };
  const auto in_post = [&](pn::PlaceId p) {
    return std::binary_search(post_sorted.begin(), post_sorted.end(), p);
  };

  const auto touch_place = [&](pn::PlaceId p) {
    const Bdd cur = m.var(sym.place_var(p));
    const Bdd nxt = m.var(sym.primed_place_var(p));
    support.push_back(sym.place_var(p));
    if (in_pre(p) && in_post(p)) {
      constraints.push_back(cur & nxt);  // self-loop place: stays marked
    } else if (in_pre(p)) {
      constraints.push_back(cur & !nxt);  // consumed
    } else {
      constraints.push_back((!cur) & nxt);  // produced; !cur is the safeness premise
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
    constraints.push_back(label.dir == stg::Dir::kPlus ? ((!cur) & nxt)
                                                       : (cur & !nxt));
  }
}

/// Derives a cluster's quantification cubes and support-local rename map
/// from its support.
void finalize_cluster(SymbolicStg& sym, RelationCluster& c) {
  bdd::Manager& m = sym.manager();
  const std::vector<Var>& to_primed = sym.to_primed();
  c.quant_cube = m.positive_cube(c.support);
  c.rename_to_primed.resize(m.var_count());
  for (Var v = 0; v < c.rename_to_primed.size(); ++v) c.rename_to_primed[v] = v;
  std::vector<Var> primed;
  primed.reserve(c.support.size());
  for (Var v : c.support) {
    c.rename_to_primed[v] = to_primed[v];
    primed.push_back(to_primed[v]);
  }
  c.primed_quant_cube = m.positive_cube(primed);
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

std::vector<RelationCluster> sparse_relations(SymbolicStg& sym) {
  require_primed(sym);
  const std::size_t n = sym.stg().net().transition_count();
  std::vector<RelationCluster> sparse(n);
  for (pn::TransitionId t = 0; t < n; ++t) {
    RelationCluster& r = sparse[t];
    r.transitions = {t};
    std::vector<Bdd> constraints;
    core_constraints(sym, t, r.support, constraints);
    r.rel = sym.manager().bdd_true();
    for (const Bdd& f : constraints) r.rel &= f;
    std::sort(r.support.begin(), r.support.end());
    r.support.erase(std::unique(r.support.begin(), r.support.end()),
                    r.support.end());
  }
  for (RelationCluster& r : sparse) finalize_cluster(sym, r);
  return sparse;
}

std::vector<RelationCluster> cluster_relations(
    SymbolicStg& sym, const std::vector<RelationCluster>& sparse,
    std::size_t cap) {
  require_primed(sym);
  bdd::Manager& m = sym.manager();
  std::vector<RelationCluster> clusters;
  for (const RelationCluster& r : sparse) {
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
      c.transitions.insert(c.transitions.end(), r.transitions.begin(),
                           r.transitions.end());
      merged = true;
      break;
    }
    if (!merged) clusters.push_back(r);
  }
  // A singleton keeps the cubes it came with; a merged cluster's support
  // grew, so its cubes and rename map are derived afresh.
  for (RelationCluster& c : clusters) {
    if (c.transitions.size() > 1) finalize_cluster(sym, c);
  }
  return clusters;
}

std::vector<std::size_t> support_overlap_order(
    const std::vector<std::vector<Var>>& supports) {
  const std::size_t n = supports.size();
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  std::size_t var_bound = 0;
  for (const std::vector<Var>& s : supports) {
    for (Var v : s) var_bound = std::max<std::size_t>(var_bound, v + 1);
  }
  std::vector<bool> seen(var_bound, false);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    std::size_t best_overlap = 0;
    std::size_t best_new = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (placed[c]) continue;
      std::size_t overlap = 0;
      for (Var v : supports[c]) overlap += seen[v] ? 1 : 0;
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
    for (Var v : supports[best]) seen[v] = true;
  }
  return order;
}

}  // namespace stgcheck::core

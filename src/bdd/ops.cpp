// Recursive cores of the Boolean operations on attributed (complement)
// edges. Garbage collection never runs while a recursion is on the stack:
// handle-level wrappers compute the raw result, protect it with an
// external reference, and only then call maybe_gc().
//
// Complement-edge cache discipline: NOT is free (flip the flag), OR is
// De Morgan over AND, FORALL is De Morgan over EXISTS, XOR strips both
// complement flags into an output flag, and ITE normalizes its standard
// triple (regular predicate, regular then-argument) -- so every variant of
// a call that differs only in argument polarity lands on one cache slot.
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>

#include "util/error.hpp"

namespace stgcheck::bdd {

// ---------------------------------------------------------------------------
// Handle-level wrappers
//
// With threads > 1 each wrapper opens a parallel region (unique table and
// caches switch to their concurrent protocols), wakes the pool and runs
// the *_par recursion -- unless the operands are so shallow that even the
// first fork would fail the cutoff, in which case the region overhead is
// skipped entirely. With threads == 1 (pool_ == nullptr) every line below
// is exactly the pre-parallel sequential kernel.
// ---------------------------------------------------------------------------

Bdd Manager::apply_and(const Bdd& f, const Bdd& g) {
  poll_budget();
  ++hot().calls[op_slot(OpKind::kAnd)];
  ProfileTimer timer(*this, OpKind::kAnd);
  NodeRef raw;
  if (pool_ != nullptr &&
      fork_worthwhile(fork_depth_, std::min(level(f.ref()), level(g.ref())))) {
    ParallelRegion region(*this);
    raw = pool_->run_root(
        [&] { return and_par(f.ref(), g.ref(), fork_depth_); });
  } else {
    raw = and_rec(f.ref(), g.ref());
  }
  Bdd result = make_handle(raw);
  maybe_gc();
  return result;
}

Bdd Manager::apply_or(const Bdd& f, const Bdd& g) {
  poll_budget();
  ++hot().calls[op_slot(OpKind::kAnd)];
  ProfileTimer timer(*this, OpKind::kAnd);
  NodeRef raw;
  if (pool_ != nullptr &&
      fork_worthwhile(fork_depth_, std::min(level(f.ref()), level(g.ref())))) {
    ParallelRegion region(*this);
    raw = pool_->run_root(
        [&] { return or_par(f.ref(), g.ref(), fork_depth_); });
  } else {
    raw = or_rec(f.ref(), g.ref());
  }
  Bdd result = make_handle(raw);
  maybe_gc();
  return result;
}

Bdd Manager::apply_xor(const Bdd& f, const Bdd& g) {
  poll_budget();
  ++hot().calls[op_slot(OpKind::kXor)];
  ProfileTimer timer(*this, OpKind::kXor);
  NodeRef raw;
  if (pool_ != nullptr &&
      fork_worthwhile(fork_depth_, std::min(level(f.ref()), level(g.ref())))) {
    ParallelRegion region(*this);
    raw = pool_->run_root(
        [&] { return xor_par(f.ref(), g.ref(), fork_depth_); });
  } else {
    raw = xor_rec(f.ref(), g.ref());
  }
  Bdd result = make_handle(raw);
  maybe_gc();
  return result;
}

Bdd Manager::apply_not(const Bdd& f) {
  // O(1): negation is the complement flag of the edge.
  return make_handle(bdd_not(f.ref()));
}

Bdd Manager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  poll_budget();
  ++hot().calls[op_slot(OpKind::kIte)];
  ProfileTimer timer(*this, OpKind::kIte);
  NodeRef raw;
  if (pool_ != nullptr &&
      fork_worthwhile(fork_depth_, std::min({level(f.ref()), level(g.ref()),
                                             level(h.ref())}))) {
    ParallelRegion region(*this);
    raw = pool_->run_root(
        [&] { return ite_par(f.ref(), g.ref(), h.ref(), fork_depth_); });
  } else {
    raw = ite_rec(f.ref(), g.ref(), h.ref());
  }
  Bdd result = make_handle(raw);
  maybe_gc();
  return result;
}

Bdd Manager::cofactor(const Bdd& f, const Bdd& cube) {
  poll_budget();
  ++hot().calls[op_slot(OpKind::kCofactor)];
  ProfileTimer timer(*this, OpKind::kCofactor);
  Bdd result = make_handle(cofactor_rec(f.ref(), cube.ref()));
  maybe_gc();
  return result;
}

Bdd Manager::exists(const Bdd& f, const Bdd& cube) {
  poll_budget();
  ++hot().calls[op_slot(OpKind::kExists)];
  ProfileTimer timer(*this, OpKind::kExists);
  NodeRef raw;
  if (pool_ != nullptr && fork_worthwhile(fork_depth_, level(f.ref()))) {
    ParallelRegion region(*this);
    raw = pool_->run_root(
        [&] { return exists_par(f.ref(), cube.ref(), fork_depth_); });
  } else {
    raw = exists_rec(f.ref(), cube.ref());
  }
  Bdd result = make_handle(raw);
  maybe_gc();
  return result;
}

Bdd Manager::forall(const Bdd& f, const Bdd& cube) {
  poll_budget();
  ++hot().calls[op_slot(OpKind::kExists)];
  ProfileTimer timer(*this, OpKind::kExists);
  // De Morgan: forall x. f == not exists x. not f -- shares the EXISTS cache.
  NodeRef raw;
  if (pool_ != nullptr && fork_worthwhile(fork_depth_, level(f.ref()))) {
    ParallelRegion region(*this);
    raw = pool_->run_root([&] {
      return bdd_not(exists_par(bdd_not(f.ref()), cube.ref(), fork_depth_));
    });
  } else {
    raw = bdd_not(exists_rec(bdd_not(f.ref()), cube.ref()));
  }
  Bdd result = make_handle(raw);
  maybe_gc();
  return result;
}

Bdd Manager::and_exists(const Bdd& f, const Bdd& g, const Bdd& cube) {
  poll_budget();
  ++hot().calls[op_slot(OpKind::kAndExists)];
  ProfileTimer timer(*this, OpKind::kAndExists);
  NodeRef raw;
  if (pool_ != nullptr &&
      fork_worthwhile(fork_depth_, std::min(level(f.ref()), level(g.ref())))) {
    ParallelRegion region(*this);
    raw = pool_->run_root([&] {
      return and_exists_par(f.ref(), g.ref(), cube.ref(), fork_depth_);
    });
  } else {
    raw = and_exists_rec(f.ref(), g.ref(), cube.ref());
  }
  Bdd result = make_handle(raw);
  maybe_gc();
  return result;
}

Bdd Manager::restrict(const Bdd& f, const Bdd& care) {
  poll_budget();
  ++hot().calls[op_slot(OpKind::kRestrict)];
  ProfileTimer timer(*this, OpKind::kRestrict);
  Bdd result = make_handle(restrict_rec(f.ref(), care.ref()));
  maybe_gc();
  return result;
}

std::string Manager::var_desc(Var v) const {
  return "v" + std::to_string(v) + " ('" + var_names_[v] + "', level " +
         std::to_string(var2level_[v]) + ")";
}

Bdd Manager::permute(const Bdd& f, const std::vector<Var>& perm) {
  poll_budget();
  ++hot().calls[op_slot(OpKind::kPermute)];
  ProfileTimer timer(*this, OpKind::kPermute);
  // Validate over f's support (sorted by current level): every variable
  // mapped, every target known, no two variables sharing a target. A
  // duplicated target is not a substitution -- it would silently merge two
  // variables -- so it is an error, not a smaller BDD.
  const std::vector<Var> sup = support(f);
  std::unordered_map<Var, Var> target_source;
  target_source.reserve(sup.size());
  bool monotone = true;
  bool identity = true;
  for (std::size_t i = 0; i < sup.size(); ++i) {
    const Var v = sup[i];
    if (v >= perm.size()) {
      throw ModelError("permute: no mapping for support variable " +
                       var_desc(v) + " (permutation covers only " +
                       std::to_string(perm.size()) + " variables)");
    }
    const Var w = perm[v];
    if (w >= var2level_.size()) {
      throw ModelError("permute: support variable " + var_desc(v) +
                       " maps to unknown variable v" + std::to_string(w));
    }
    const auto [it, inserted] = target_source.emplace(w, v);
    if (!inserted) {
      throw ModelError("permute: not injective on the support: " +
                       var_desc(it->second) + " and " + var_desc(v) +
                       " both map to " + var_desc(w));
    }
    identity = identity && w == v;
    monotone =
        monotone && (i == 0 || var2level_[perm[sup[i - 1]]] < var2level_[w]);
  }
  if (identity) return f;
  // Cross-call memo: the same substitution of the same root twice -- the
  // relational engine renaming a repeated image back onto the unprimed
  // variables -- is a lookup, not a second traversal (the
  // non-monotone path redoes a full ITE composition otherwise). The key is
  // support-restricted, because mappings differing only outside the
  // support are the same substitution, and stored in full so a hash
  // collision misses instead of lying. Entries are dropped with the
  // computed caches, so a GC'd or reordered result never resurfaces.
  std::vector<NodeRef> key;
  key.reserve(sup.size() * 2 + 1);
  key.push_back(f.ref());
  for (const Var v : sup) {
    key.push_back(static_cast<NodeRef>(v));
    key.push_back(static_cast<NodeRef>(perm[v]));
  }
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const NodeRef k : key) {
    h ^= (static_cast<std::uint64_t>(k) + 0x517cc1b727220a95ULL) *
         0xff51afd7ed558ccdULL;
    h = (h << 13) | (h >> 51);
  }
  h ^= h >> 33;
  ++hot().cache_lookups[op_slot(OpKind::kPermute)];
  if (!permute_cache_.empty()) {
    const PermuteCacheEntry& e =
        permute_cache_[static_cast<std::size_t>(h) & permute_cache_mask_];
    if (e.result != kInvalidRef && e.key == key) {
      ++hot().cache_hits[op_slot(OpKind::kPermute)];
      return make_handle(e.result);
    }
  }
  std::unordered_map<NodeRef, NodeRef> memo;
  // A rename that preserves relative level order rebuilds the graph in one
  // top-down pass; anything else needs the level-aware composition.
  Bdd result = make_handle(monotone
                               ? permute_rec(f.ref(), perm, memo)
                               : permute_general_rec(f.ref(), perm, memo));
  if (permute_cache_.empty()) {
    permute_cache_.resize(kPermuteCacheSize);
    permute_cache_mask_ = kPermuteCacheSize - 1;
  }
  PermuteCacheEntry& e =
      permute_cache_[static_cast<std::size_t>(h) & permute_cache_mask_];
  e.key = std::move(key);
  e.result = result.ref();
  maybe_gc();
  return result;
}

NodeRef Manager::permute_rec(NodeRef f, const std::vector<Var>& perm,
                             std::unordered_map<NodeRef, NodeRef>& memo) {
  if (is_term(f)) return f;
  // permute(not f) == not permute(f): memoize on the regular edge and
  // re-apply the complement flag on the way out.
  const NodeRef flag = f & 1u;
  const NodeRef fr = edge_regular(f);
  auto it = memo.find(fr);
  if (it != memo.end()) return it->second ^ flag;
  // Copy fields before recursing: mk may reallocate the node vector.
  const Var v = deref(fr).var;
  const NodeRef flow = deref(fr).low;
  const NodeRef fhigh = deref(fr).high;
  const NodeRef low = permute_rec(flow, perm, memo);
  const NodeRef r = mk(perm[v], low, permute_rec(fhigh, perm, memo));
  memo.emplace(fr, r);
  return r ^ flag;
}

NodeRef Manager::permute_general_rec(NodeRef f, const std::vector<Var>& perm,
                                     std::unordered_map<NodeRef, NodeRef>& memo) {
  if (is_term(f)) return f;
  const NodeRef flag = f & 1u;
  const NodeRef fr = edge_regular(f);
  auto it = memo.find(fr);
  if (it != memo.end()) return it->second ^ flag;
  // Shannon expansion composed through ITE: the renamed variable may land
  // at any level, above or below the recursively renamed cofactors, and
  // ite_rec re-normalizes regardless.
  const Var v = deref(fr).var;
  const NodeRef flow = deref(fr).low;
  const NodeRef fhigh = deref(fr).high;
  const NodeRef low = permute_general_rec(flow, perm, memo);
  const NodeRef high = permute_general_rec(fhigh, perm, memo);
  const NodeRef r = ite_rec(mk(perm[v], kFalse, kTrue), high, low);
  memo.emplace(fr, r);
  return r ^ flag;
}

bool Bdd::disjoint_with(const Bdd& other) const {
  std::unordered_map<std::uint64_t, bool> memo;
  return manager_->disjoint_rec(ref_, other.ref_, memo);
}

// ---------------------------------------------------------------------------
// AND / XOR (OR and NOT are De Morgan / flag flips; see the header)
// ---------------------------------------------------------------------------

NodeRef Manager::and_rec(NodeRef f, NodeRef g) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == kTrue) return g;
  if (g == kTrue) return f;
  if (f == g) return f;
  if (f == bdd_not(g)) return kFalse;
  if (f > g) std::swap(f, g);  // commutative: canonicalize for the cache

  NodeRef cached = cache_lookup(Op::kAnd, f, g, kFalse);
  if (cached != kInvalidRef) return cached;

  const std::size_t lf = level(f);
  const std::size_t lg = level(g);
  const std::size_t top = std::min(lf, lg);
  const Var v = level2var_[top];
  const NodeRef f0 = lf == top ? low_of(f) : f;
  const NodeRef f1 = lf == top ? high_of(f) : f;
  const NodeRef g0 = lg == top ? low_of(g) : g;
  const NodeRef g1 = lg == top ? high_of(g) : g;

  const NodeRef r = mk(v, and_rec(f0, g0), and_rec(f1, g1));
  cache_store(Op::kAnd, f, g, kFalse, r);
  return r;
}

NodeRef Manager::xor_rec(NodeRef f, NodeRef g) {
  if (f == kFalse) return g;
  if (g == kFalse) return f;
  if (f == kTrue) return bdd_not(g);
  if (g == kTrue) return bdd_not(f);
  if (f == g) return kFalse;
  if (f == bdd_not(g)) return kTrue;

  // xor(not f, g) == not xor(f, g): strip both flags into an output flag so
  // all four polarity variants share one cache slot.
  const NodeRef flag = (f ^ g) & 1u;
  f = edge_regular(f);
  g = edge_regular(g);
  if (f > g) std::swap(f, g);

  NodeRef cached = cache_lookup(Op::kXor, f, g, kFalse);
  if (cached != kInvalidRef) return cached ^ flag;

  const std::size_t lf = level(f);
  const std::size_t lg = level(g);
  const std::size_t top = std::min(lf, lg);
  const Var v = level2var_[top];
  const NodeRef f0 = lf == top ? low_of(f) : f;
  const NodeRef f1 = lf == top ? high_of(f) : f;
  const NodeRef g0 = lg == top ? low_of(g) : g;
  const NodeRef g1 = lg == top ? high_of(g) : g;

  const NodeRef r = mk(v, xor_rec(f0, g0), xor_rec(f1, g1));
  cache_store(Op::kXor, f, g, kFalse, r);
  return r ^ flag;
}

// ---------------------------------------------------------------------------
// ITE
// ---------------------------------------------------------------------------

NodeRef Manager::ite_rec(NodeRef f, NodeRef g, NodeRef h) {
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (f == g) g = kTrue;                    // f ? f : h  ==  f ? 1 : h
  else if (f == bdd_not(g)) g = kFalse;     // f ? !f : h ==  f ? 0 : h
  if (f == h) h = kFalse;                   // f ? g : f  ==  f ? g : 0
  else if (f == bdd_not(h)) h = kTrue;      // f ? g : !f ==  f ? g : 1
  if (g == kTrue && h == kFalse) return f;
  if (g == kFalse && h == kTrue) return bdd_not(f);
  // Two-operand escapes: route to AND/XOR (and their De Morgan duals) so
  // the general triple cache only ever sees genuine three-operand calls.
  if (h == kFalse) return and_rec(f, g);
  if (g == kFalse) return and_rec(bdd_not(f), h);
  if (g == kTrue) return or_rec(f, h);
  if (h == kTrue) return or_rec(bdd_not(f), g);
  if (g == bdd_not(h)) return bdd_not(xor_rec(f, g));

  // Standard triple normalization (Brace-Rudell-Bryant): make the
  // predicate regular (ite(!f,g,h) == ite(f,h,g)), then make the
  // then-argument regular by pulling the complement out of the result
  // (ite(f,!g,!h) == !ite(f,g,h)). Every (f, g, not-h) polarity variant of
  // a triple now shares a single cache slot.
  if (edge_complemented(f)) {
    f = bdd_not(f);
    std::swap(g, h);
  }
  NodeRef flag = 0;
  if (edge_complemented(g)) {
    flag = 1;
    g = bdd_not(g);
    h = bdd_not(h);
  }

  NodeRef cached = cache_lookup(Op::kIte, f, g, h);
  if (cached != kInvalidRef) return cached ^ flag;

  const std::size_t top =
      std::min({level(f), level(g), level(h)});
  const Var v = level2var_[top];
  const auto cof = [&](NodeRef x, bool hi) {
    if (level(x) != top) return x;
    return hi ? high_of(x) : low_of(x);
  };
  const NodeRef r = mk(v, ite_rec(cof(f, false), cof(g, false), cof(h, false)),
                       ite_rec(cof(f, true), cof(g, true), cof(h, true)));
  cache_store(Op::kIte, f, g, h, r);
  return r ^ flag;
}

// ---------------------------------------------------------------------------
// Cofactor with respect to a cube (positive and negative literals)
// ---------------------------------------------------------------------------

NodeRef Manager::cofactor_rec(NodeRef f, NodeRef cube) {
  if (is_term(f)) return f;
  // Skip cube literals whose level is above f's top (they do not constrain f).
  while (!is_term(cube) && level(cube) < level(f)) {
    const NodeRef clow = low_of(cube);
    cube = clow == kFalse ? high_of(cube) : clow;
  }
  if (is_term(cube)) return f;

  NodeRef cached = cache_lookup(Op::kCofactor, f, cube, kFalse);
  if (cached != kInvalidRef) return cached;

  // Copy fields before recursing: mk may reallocate the node vector.
  const Var v = deref(f).var;
  const NodeRef flow = low_of(f);
  const NodeRef fhigh = high_of(f);
  const NodeRef clow = low_of(cube);
  const NodeRef chigh = high_of(cube);
  NodeRef r;
  if (level(f) == level(cube)) {
    // Follow the polarity dictated by the cube.
    r = clow == kFalse ? cofactor_rec(fhigh, chigh)   // positive literal
                       : cofactor_rec(flow, clow);    // negative literal
  } else {
    const NodeRef low = cofactor_rec(flow, cube);
    r = mk(v, low, cofactor_rec(fhigh, cube));
  }
  cache_store(Op::kCofactor, f, cube, kFalse, r);
  return r;
}

// ---------------------------------------------------------------------------
// Quantification
// ---------------------------------------------------------------------------

NodeRef Manager::exists_rec(NodeRef f, NodeRef cube) {
  if (is_term(f)) return f;
  while (!is_term(cube) && level(cube) < level(f)) cube = high_of(cube);
  if (is_term(cube)) return f;

  NodeRef cached = cache_lookup(Op::kExists, f, cube, kFalse);
  if (cached != kInvalidRef) return cached;

  // Copy fields before recursing: mk may reallocate the node vector.
  const Var v = deref(f).var;
  const NodeRef flow = low_of(f);
  const NodeRef fhigh = high_of(f);
  NodeRef r;
  if (level(f) == level(cube)) {
    const NodeRef rest = high_of(cube);
    const NodeRef low = exists_rec(flow, rest);
    if (low == kTrue) {
      r = kTrue;  // early termination: the disjunction is already everything
    } else {
      r = or_rec(low, exists_rec(fhigh, rest));
    }
  } else {
    const NodeRef low = exists_rec(flow, cube);
    r = mk(v, low, exists_rec(fhigh, cube));
  }
  cache_store(Op::kExists, f, cube, kFalse, r);
  return r;
}

NodeRef Manager::and_exists_rec(NodeRef f, NodeRef g, NodeRef cube) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == bdd_not(g)) return kFalse;
  if (f == kTrue && g == kTrue) return kTrue;
  if (f == kTrue) return exists_rec(g, cube);
  if (g == kTrue) return exists_rec(f, cube);
  if (f == g) return exists_rec(f, cube);
  if (f > g) std::swap(f, g);

  const std::size_t top = std::min(level(f), level(g));
  while (!is_term(cube) && level(cube) < top) cube = high_of(cube);
  if (is_term(cube)) return and_rec(f, g);

  NodeRef cached = cache_lookup(Op::kAndExists, f, g, cube);
  if (cached != kInvalidRef) return cached;

  const std::size_t lf = level(f);
  const std::size_t lg = level(g);
  const Var v = level2var_[top];
  const NodeRef f0 = lf == top ? low_of(f) : f;
  const NodeRef f1 = lf == top ? high_of(f) : f;
  const NodeRef g0 = lg == top ? low_of(g) : g;
  const NodeRef g1 = lg == top ? high_of(g) : g;

  NodeRef r;
  if (level(cube) == top) {
    const NodeRef rest = high_of(cube);
    const NodeRef low = and_exists_rec(f0, g0, rest);
    if (low == kTrue) {
      r = kTrue;
    } else {
      r = or_rec(low, and_exists_rec(f1, g1, rest));
    }
  } else {
    r = mk(v, and_exists_rec(f0, g0, cube), and_exists_rec(f1, g1, cube));
  }
  cache_store(Op::kAndExists, f, g, cube, r);
  return r;
}

// ---------------------------------------------------------------------------
// Coudert-Madre restrict
// ---------------------------------------------------------------------------

NodeRef Manager::restrict_rec(NodeRef f, NodeRef care) {
  if (care == kTrue || is_term(f)) return f;
  if (care == kFalse) return f;  // degenerate care set: leave f unchanged

  NodeRef cached = cache_lookup(Op::kRestrict, f, care, kFalse);
  if (cached != kInvalidRef) return cached;

  const std::size_t lf = level(f);
  const std::size_t lc = level(care);
  NodeRef r;
  if (lc < lf) {
    // The care set constrains a variable f does not test: smooth it out.
    const NodeRef clow = low_of(care);
    const NodeRef chigh = high_of(care);
    if (clow == kFalse) {
      r = restrict_rec(f, chigh);
    } else if (chigh == kFalse) {
      r = restrict_rec(f, clow);
    } else {
      r = restrict_rec(f, or_rec(clow, chigh));
    }
  } else {
    const Var v = deref(f).var;
    const NodeRef flow = low_of(f);
    const NodeRef fhigh = high_of(f);
    const NodeRef c0 = lc == lf ? low_of(care) : care;
    const NodeRef c1 = lc == lf ? high_of(care) : care;
    if (c0 == kFalse) {
      r = restrict_rec(fhigh, c1);
    } else if (c1 == kFalse) {
      r = restrict_rec(flow, c0);
    } else {
      const NodeRef low = restrict_rec(flow, c0);
      r = mk(v, low, restrict_rec(fhigh, c1));
    }
  }
  cache_store(Op::kRestrict, f, care, kFalse, r);
  return r;
}

// ---------------------------------------------------------------------------
// Disjointness (no new nodes are created; memoized locally)
// ---------------------------------------------------------------------------

bool Manager::disjoint_rec(NodeRef f, NodeRef g,
                           std::unordered_map<std::uint64_t, bool>& memo) const {
  if (f == kFalse || g == kFalse) return true;
  if (f == kTrue || g == kTrue) return false;  // both non-false
  if (f == g) return false;
  if (f == bdd_not(g)) return true;  // f & !f == 0
  if (f > g) std::swap(f, g);

  const std::uint64_t key = (static_cast<std::uint64_t>(f) << 32) | g;
  auto it = memo.find(key);
  if (it != memo.end()) return it->second;

  const std::size_t lf = level(f);
  const std::size_t lg = level(g);
  const std::size_t top = std::min(lf, lg);
  const NodeRef f0 = lf == top ? low_of(f) : f;
  const NodeRef f1 = lf == top ? high_of(f) : f;
  const NodeRef g0 = lg == top ? low_of(g) : g;
  const NodeRef g1 = lg == top ? high_of(g) : g;

  const bool result = disjoint_rec(f0, g0, memo) && disjoint_rec(f1, g1, memo);
  memo.emplace(key, result);
  return result;
}

}  // namespace stgcheck::bdd

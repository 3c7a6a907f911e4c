// The parallel recursions of the BDD kernel (threads > 1 only).
//
// Every *_par function mirrors its sequential *_rec twin line for line and
// forks the independent cofactor branches onto the manager's work-stealing
// pool while a per-operation depth budget lasts. Once the budget is spent
// -- or a subproblem sits within kSeqLevelCutoff levels of the bottom of
// the order -- the recursion falls through to the sequential core, which
// is parallel-safe because every shared-state access in it (unique table,
// computed cache, counters) branches on parallel_active_.
//
// Correctness rests on canonicity: within one manager a Boolean function
// has exactly one NodeRef, so whichever thread finishes a subproblem first
// publishes the node every other thread then finds, and a parallel run
// returns the very same edge the sequential run would. The only semantic
// divergence is speculation: where the sequential EXISTS variants skip the
// high branch once the low one reaches true, the parallel versions have
// already forked it -- the result is identical (or with true is true),
// only the work is occasionally wasted.
//
// Memory model in one paragraph: new nodes are bump-allocated from the
// chunked arena and published with a release CAS on their unique-table
// bucket head; readers acquire the head, and since every insertion is an
// RMW the release sequence carries each node's pre-publication writes to
// any thread that can reach it. The computed and REACH caches are lossy
// seqlocks (a torn read is a miss), and statistics live in per-worker
// cache-line-separated blocks merged on read. GC, sifting and
// bucket growth never run inside a region -- end_parallel_op() settles
// deferred work at quiescence.
#include "bdd/bdd.hpp"

#include "util/trace.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/error.hpp"

namespace stgcheck::bdd {

namespace {

/// A forked branch of a recursion: forks on construction, joins on get().
/// The destructor joins too (swallowing errors) so a sibling branch that
/// throws cannot unwind past a task still holding this frame's captures.
template <typename F>
class ForkedCall : public TaskPool::Task {
 public:
  ForkedCall(TaskPool& pool, F f) : pool_(pool), f_(std::move(f)) {
    pool_.fork(this);
  }
  ~ForkedCall() override {
    if (joined_) return;
    try {
      pool_.join(this);
    } catch (...) {
      // The primary error is already unwinding; this one is secondary.
    }
  }
  void run() override { result_ = f_(); }
  NodeRef get() {
    joined_ = true;
    pool_.join(this);
    return result_;
  }

 private:
  TaskPool& pool_;
  F f_;
  NodeRef result_ = kInvalidRef;
  bool joined_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// The thread-count knob and region bookkeeping
// ---------------------------------------------------------------------------

void Manager::set_thread_count(std::size_t n) {
  n = std::min(std::max<std::size_t>(n, 1), kMaxThreads);
  assert(!parallel_active_ && "thread count changes only at quiescence");
  if (n == thread_count_) return;
  thread_count_ = n;
  if (n == 1) {
    pool_.reset();
    fork_depth_ = 0;
    return;
  }
  // Enough forks to hand every thread a subtree, plus slack so the steal
  // queue never runs dry when subtrees are lopsided.
  int log2 = 0;
  while ((std::size_t{1} << log2) < n) ++log2;
  fork_depth_ = log2 + 3;
  pool_ = std::make_unique<TaskPool>(n);
}

void Manager::begin_parallel_op() {
  assert(pool_ != nullptr && !parallel_active_);
  parallel_active_ = true;
}

void Manager::end_parallel_op() {
  parallel_active_ = false;
  // Recycle the slots lost in duplicate-insert races: they were never
  // published or counted, so they go straight back to the free list.
  for (const std::uint32_t idx : abandoned_) {
    Node& n = node_at(idx);
    n.next = free_list_;
    free_list_ = idx;
  }
  abandoned_.clear();
  // Bucket growth was deferred while the table was shared; settle it now.
  while (node_count_.load(std::memory_order_relaxed) > buckets_.size()) {
    grow_buckets();
  }
}

// ---------------------------------------------------------------------------
// AND / XOR / ITE
// ---------------------------------------------------------------------------

NodeRef Manager::and_par(NodeRef f, NodeRef g, int depth) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == kTrue) return g;
  if (g == kTrue) return f;
  if (f == g) return f;
  if (f == bdd_not(g)) return kFalse;
  if (f > g) std::swap(f, g);

  const std::size_t top = std::min(level(f), level(g));
  if (!fork_worthwhile(depth, top)) return and_rec(f, g);

  NodeRef cached = cache_lookup(Op::kAnd, f, g, kFalse);
  if (cached != kInvalidRef) return cached;

  const std::size_t lf = level(f);
  const std::size_t lg = level(g);
  const Var v = level2var_[top];
  const NodeRef f0 = lf == top ? low_of(f) : f;
  const NodeRef f1 = lf == top ? high_of(f) : f;
  const NodeRef g0 = lg == top ? low_of(g) : g;
  const NodeRef g1 = lg == top ? high_of(g) : g;

  ForkedCall hi(*pool_, [=, this] { return and_par(f1, g1, depth - 1); });
  const NodeRef low = and_par(f0, g0, depth - 1);
  const NodeRef r = mk(v, low, hi.get());
  cache_store(Op::kAnd, f, g, kFalse, r);
  return r;
}

NodeRef Manager::xor_par(NodeRef f, NodeRef g, int depth) {
  if (f == kFalse) return g;
  if (g == kFalse) return f;
  if (f == kTrue) return bdd_not(g);
  if (g == kTrue) return bdd_not(f);
  if (f == g) return kFalse;
  if (f == bdd_not(g)) return kTrue;

  const NodeRef flag = (f ^ g) & 1u;
  f = edge_regular(f);
  g = edge_regular(g);
  if (f > g) std::swap(f, g);

  const std::size_t top = std::min(level(f), level(g));
  if (!fork_worthwhile(depth, top)) return xor_rec(f, g) ^ flag;

  NodeRef cached = cache_lookup(Op::kXor, f, g, kFalse);
  if (cached != kInvalidRef) return cached ^ flag;

  const std::size_t lf = level(f);
  const std::size_t lg = level(g);
  const Var v = level2var_[top];
  const NodeRef f0 = lf == top ? low_of(f) : f;
  const NodeRef f1 = lf == top ? high_of(f) : f;
  const NodeRef g0 = lg == top ? low_of(g) : g;
  const NodeRef g1 = lg == top ? high_of(g) : g;

  ForkedCall hi(*pool_, [=, this] { return xor_par(f1, g1, depth - 1); });
  const NodeRef low = xor_par(f0, g0, depth - 1);
  const NodeRef r = mk(v, low, hi.get());
  cache_store(Op::kXor, f, g, kFalse, r);
  return r ^ flag;
}

NodeRef Manager::ite_par(NodeRef f, NodeRef g, NodeRef h, int depth) {
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (f == g) g = kTrue;
  else if (f == bdd_not(g)) g = kFalse;
  if (f == h) h = kFalse;
  else if (f == bdd_not(h)) h = kTrue;
  if (g == kTrue && h == kFalse) return f;
  if (g == kFalse && h == kTrue) return bdd_not(f);
  // The two-operand escapes keep their parallelism.
  if (h == kFalse) return and_par(f, g, depth);
  if (g == kFalse) return and_par(bdd_not(f), h, depth);
  if (g == kTrue) return or_par(f, h, depth);
  if (h == kTrue) return or_par(bdd_not(f), g, depth);
  if (g == bdd_not(h)) return bdd_not(xor_par(f, g, depth));

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

  const std::size_t top = std::min({level(f), level(g), level(h)});
  if (!fork_worthwhile(depth, top)) return ite_rec(f, g, h) ^ flag;

  NodeRef cached = cache_lookup(Op::kIte, f, g, h);
  if (cached != kInvalidRef) return cached ^ flag;

  const Var v = level2var_[top];
  const auto cof = [&](NodeRef x, bool take_high) {
    if (level(x) != top) return x;
    return take_high ? high_of(x) : low_of(x);
  };
  const NodeRef f1 = cof(f, true);
  const NodeRef g1 = cof(g, true);
  const NodeRef h1 = cof(h, true);
  ForkedCall hi(*pool_,
                [=, this] { return ite_par(f1, g1, h1, depth - 1); });
  const NodeRef low =
      ite_par(cof(f, false), cof(g, false), cof(h, false), depth - 1);
  const NodeRef r = mk(v, low, hi.get());
  cache_store(Op::kIte, f, g, h, r);
  return r ^ flag;
}

// ---------------------------------------------------------------------------
// Quantification
// ---------------------------------------------------------------------------

NodeRef Manager::exists_par(NodeRef f, NodeRef cube, int depth) {
  if (is_term(f)) return f;
  while (!is_term(cube) && level(cube) < level(f)) cube = high_of(cube);
  if (is_term(cube)) return f;
  if (!fork_worthwhile(depth, level(f))) return exists_rec(f, cube);

  NodeRef cached = cache_lookup(Op::kExists, f, cube, kFalse);
  if (cached != kInvalidRef) return cached;

  const Var v = deref(f).var;
  const NodeRef flow = low_of(f);
  const NodeRef fhigh = high_of(f);
  NodeRef r;
  if (level(f) == level(cube)) {
    const NodeRef rest = high_of(cube);
    // Speculative fork: the sequential path skips the high branch when
    // the low one already reaches true; here it was already forked. The
    // result is identical (or with true is true), only work may be wasted.
    ForkedCall hi(*pool_,
                  [=, this] { return exists_par(fhigh, rest, depth - 1); });
    const NodeRef low = exists_par(flow, rest, depth - 1);
    const NodeRef high = hi.get();
    r = low == kTrue ? kTrue : or_par(low, high, depth - 1);
  } else {
    ForkedCall hi(*pool_,
                  [=, this] { return exists_par(fhigh, cube, depth - 1); });
    const NodeRef low = exists_par(flow, cube, depth - 1);
    r = mk(v, low, hi.get());
  }
  cache_store(Op::kExists, f, cube, kFalse, r);
  return r;
}

NodeRef Manager::and_exists_par(NodeRef f, NodeRef g, NodeRef cube,
                                int depth) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == bdd_not(g)) return kFalse;
  if (f == kTrue && g == kTrue) return kTrue;
  if (f == kTrue) return exists_par(g, cube, depth);
  if (g == kTrue) return exists_par(f, cube, depth);
  if (f == g) return exists_par(f, cube, depth);
  if (f > g) std::swap(f, g);

  const std::size_t top = std::min(level(f), level(g));
  while (!is_term(cube) && level(cube) < top) cube = high_of(cube);
  if (is_term(cube)) return and_par(f, g, depth);
  if (!fork_worthwhile(depth, top)) return and_exists_rec(f, g, cube);

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
    // Speculative fork, as in exists_par.
    ForkedCall hi(*pool_, [=, this] {
      return and_exists_par(f1, g1, rest, depth - 1);
    });
    const NodeRef low = and_exists_par(f0, g0, rest, depth - 1);
    const NodeRef high = hi.get();
    r = low == kTrue ? kTrue : or_par(low, high, depth - 1);
  } else {
    ForkedCall hi(*pool_, [=, this] {
      return and_exists_par(f1, g1, cube, depth - 1);
    });
    const NodeRef low = and_exists_par(f0, g0, cube, depth - 1);
    r = mk(v, low, hi.get());
  }
  cache_store(Op::kAndExists, f, g, cube, r);
  return r;
}

// ---------------------------------------------------------------------------
// rel_next and the REACH fixpoint
// ---------------------------------------------------------------------------

NodeRef Manager::rel_next_par(NodeRef s, NodeRef r, NodeRef cube, int depth) {
  if (s == kFalse || r == kFalse) return kFalse;
  const std::size_t top = std::min(level(s), level(r));
  while (!is_term(cube) && level(cube) + 1 < top) cube = high_of(cube);
  if (is_term(cube)) return and_par(s, r, depth);
  if (!fork_worthwhile(depth, top)) return rel_next_rec(s, r, cube);

  const NodeRef cached = cache_lookup(Op::kRelNext, s, r, cube);
  if (cached != kInvalidRef) return cached;

  const std::size_t lv = level(cube);
  NodeRef result;
  if (top < lv) {
    const Var u = level2var_[top];
    const NodeRef s0 = level(s) == top ? low_of(s) : s;
    const NodeRef s1 = level(s) == top ? high_of(s) : s;
    const NodeRef r0 = level(r) == top ? low_of(r) : r;
    const NodeRef r1 = level(r) == top ? high_of(r) : r;
    ForkedCall hi(*pool_,
                  [=, this] { return rel_next_par(s1, r1, cube, depth - 1); });
    const NodeRef low = rel_next_par(s0, r0, cube, depth - 1);
    result = mk(u, low, hi.get());
  } else {
    const Var v = deref(cube).var;
    const std::size_t lw = lv + 1;
    const NodeRef rest = high_of(cube);
    const NodeRef s0 = level(s) == lv ? low_of(s) : s;
    const NodeRef s1 = level(s) == lv ? high_of(s) : s;
    const NodeRef r0 = level(r) == lv ? low_of(r) : r;
    const NodeRef r1 = level(r) == lv ? high_of(r) : r;
    const NodeRef r00 = level(r0) == lw ? low_of(r0) : r0;
    const NodeRef r01 = level(r0) == lw ? high_of(r0) : r0;
    const NodeRef r10 = level(r1) == lw ? low_of(r1) : r1;
    const NodeRef r11 = level(r1) == lw ? high_of(r1) : r1;
    // Four independent quadrants: fork three, compute one inline, join in
    // reverse fork order so each unstolen task runs from our own deque.
    ForkedCall c01(*pool_, [=, this] {
      return rel_next_par(s0, r01, rest, depth - 1);
    });
    ForkedCall c10(*pool_, [=, this] {
      return rel_next_par(s1, r10, rest, depth - 1);
    });
    ForkedCall c11(*pool_, [=, this] {
      return rel_next_par(s1, r11, rest, depth - 1);
    });
    const NodeRef a00 = rel_next_par(s0, r00, rest, depth - 1);
    const NodeRef a11 = c11.get();
    const NodeRef a10 = c10.get();
    const NodeRef a01 = c01.get();
    const NodeRef low = or_par(a00, a10, depth - 1);
    result = mk(v, low, or_par(a01, a11, depth - 1));
  }
  cache_store(Op::kRelNext, s, r, cube, result);
  return result;
}

NodeRef Manager::fire_group(NodeRef cur, std::size_t begin, std::size_t end,
                            int depth) {
  if (end - begin == 1) {
    const ReachRule& rule = reach_rules_[begin];
    // One saturation rule firing (parallel path): counted on the kRelNext
    // slot and spanned when tracing is armed, mirroring reach_rec.
    ++hot().calls[op_slot(OpKind::kRelNext)];
    TraceSpan firing(trace_, "reach_rule", "kernel");
    firing.arg("rule", static_cast<double>(begin));
    const NodeRef step = rel_next_par(cur, rule.rel, rule.cube, depth);
    return or_par(cur, step, depth);
  }
  const std::size_t mid = begin + (end - begin) / 2;
  ForkedCall right(*pool_,
                   [=, this] { return fire_group(cur, mid, end, depth); });
  const NodeRef left = fire_group(cur, begin, mid, depth);
  return or_par(left, right.get(), depth);
}

NodeRef Manager::reach_par(NodeRef s, std::size_t rule) {
  // `rule` is always the first index of a same-top-level group here (the
  // recursion only ever advances group-wise), so the (states, rule) cache
  // entries this writes mean exactly what the sequential reach_rec means
  // by them: the least fixpoint of s under rules[rule..).
  if (is_term(s) || rule == reach_rules_.size()) return s;

  const NodeRef cached = reach_cache_lookup(s, rule);
  if (cached != kInvalidRef) return cached;

  const std::size_t top = reach_rules_[rule].top;
  NodeRef result;
  if (level(s) < top) {
    const Var v = deref(s).var;
    const NodeRef s_low = low_of(s);
    const NodeRef s_high = high_of(s);
    ForkedCall hi(*pool_, [=, this] { return reach_par(s_high, rule); });
    const NodeRef low = reach_par(s_low, rule);
    result = mk(v, low, hi.get());
  } else {
    // Saturate, firing the whole same-level group per round instead of
    // one rule: chaotic iteration of monotone operators reaches the same
    // least fixpoint, and the group's images are independent, so they run
    // concurrently and join on the union (fire_group).
    std::size_t end = rule + 1;
    while (end < reach_rules_.size() && reach_rules_[end].top == top) ++end;
    NodeRef cur = s;
    for (;;) {
      cur = reach_par(cur, end);
      if (cur == kTrue) break;
      const NodeRef next = fire_group(cur, rule, end, fork_depth_);
      if (next == cur) break;
      cur = next;
    }
    result = cur;
  }
  reach_cache_store(s, rule, result);
  return result;
}

}  // namespace stgcheck::bdd

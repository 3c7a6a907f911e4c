// Rudell sifting with variable groups. Each block -- a registered group
// of variables or a single ungrouped variable -- is moved through the
// order by repeated adjacent-level swaps and settled at the position where
// the live node count is minimal. Blocks never split: a group registered
// with group_vars() keeps its members contiguous and in their registered
// internal order across every reorder, which is what lets transition-
// relation encodings keep each primed twin directly below its variable
// while the pair still finds its best position.
//
// A swap of levels (l, l+1) with upper variable x and lower variable y
// rewrites, in place, every x-node that has a y-child:
//
//     (x, f, g)  ==>  (y, mk(x, f0, g0), mk(x, f1, g1))
//
// where f0/f1 (g0/g1) are the y-cofactors of f (g), complement flags
// included. In-place rewriting preserves node identity, so parents and
// external handles stay valid -- including their complement flags, because
// the rewritten node keeps denoting exactly the same function. The
// then-edge of the rewritten node stays regular by construction: its high
// child is either a stored then-edge (regular by the canonical form) or
// the node's own then-edge, so mk never has to pull a complement out; an
// assert documents the invariant. x-nodes without y-children and y-nodes
// referenced from above levels are untouched.
//
// No dead node survives a swap. A reorder starts by collecting garbage,
// and whenever a swap drops the last reference to one of the old children
// f/g, that node is unlinked and freed on the spot, cascading to its own
// children -- as CUDD's in-place swap does. Left in the table, a dead
// child would keep its children referenced, so garbage would count as
// live, be rewritten by later swaps and skew every score. With exact
// reference counts, live_nodes() is the true table size at every position
// a block is scored at. Only y-nodes can die in a swap: each y-cofactor
// of a released child is already referenced by a new x-node. So the
// per-variable node lists stay exact too -- each holds every live node of
// its variable once -- once the lower variable's list drops the entries
// of freed nodes, whose indices mk may already have reused for new
// x-nodes.
//
// Moving a block past a neighbouring block of size m costs size * m
// adjacent swaps (each variable of one block crosses each variable of the
// other); mid-move a neighbour is temporarily split, but every block move
// restores all groups before the position is scored.
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>

#include "util/error.hpp"
#include "util/trace.hpp"

namespace stgcheck::bdd {

namespace {

/// Children of an edge split against the variable below: (low, high) with
/// the edge's complement flag applied if it is a node of that variable,
/// (edge, edge) otherwise.
struct Split {
  NodeRef low;
  NodeRef high;
};

}  // namespace

// ---------------------------------------------------------------------------
// Variable groups
// ---------------------------------------------------------------------------

void Manager::group_vars(const std::vector<Var>& vars) {
  if (vars.size() < 2) {
    throw ModelError("group_vars: a group needs at least two variables");
  }
  for (Var v : vars) {
    if (v >= var2level_.size()) {
      throw ModelError("group_vars: unknown variable v" + std::to_string(v));
    }
    if (var_group_[v] != kNoGroup) {
      throw ModelError("group_vars: variable " + var_desc(v) +
                       " is already in a group");
    }
  }
  for (std::size_t i = 1; i < vars.size(); ++i) {
    if (var2level_[vars[i]] != var2level_[vars[i - 1]] + 1) {
      throw ModelError("group_vars: variables " + var_desc(vars[i - 1]) +
                       " and " + var_desc(vars[i]) +
                       " are not at adjacent levels");
    }
  }
  const std::uint32_t g = static_cast<std::uint32_t>(groups_.size());
  for (Var v : vars) var_group_[v] = g;
  groups_.push_back(vars);
}

std::size_t Manager::block_size_of(Var member) const {
  return var_group_[member] == kNoGroup ? 1
                                        : groups_[var_group_[member]].size();
}

// ---------------------------------------------------------------------------
// Sifting
// ---------------------------------------------------------------------------

std::size_t Manager::sift(double max_growth) {
  if (var2level_.size() < 2) return live_nodes();

  TraceSpan span(trace_, "sift", "kernel");
  const auto start = begin_swaps(span);

  // One block per group plus one per ungrouped variable, sifted in
  // decreasing order of node population: big layers first.
  std::vector<std::vector<Var>> blocks;
  blocks.reserve(groups_.size() + var2level_.size());
  for (const std::vector<Var>& g : groups_) blocks.push_back(g);
  for (Var v = 0; v < var2level_.size(); ++v) {
    if (var_group_[v] == kNoGroup) blocks.push_back({v});
  }
  const auto population = [this](const std::vector<Var>& block) {
    std::size_t n = 0;
    for (Var v : block) n += nodes_at_var_[v].size();
    return n;
  };
  std::sort(blocks.begin(), blocks.end(),
            [&](const std::vector<Var>& a, const std::vector<Var>& b) {
              return population(a) > population(b);
            });

  for (const std::vector<Var>& block : blocks) {
    sift_one_block(block, max_growth);
  }

  end_swaps(span, start);
  return live_nodes();
}

std::size_t Manager::sift_one_block(const std::vector<Var>& block,
                                    double max_growth) {
  const std::size_t levels = level2var_.size();
  const std::size_t k = block.size();
  if (k >= levels) return live_nodes();  // the block is the whole order
  std::size_t best_size = live_nodes();
  // Positions are identified by the block's top level: the surrounding
  // block sequence never changes, so each reachable position has a unique,
  // stable top level that the settling loop below can steer back to.
  std::size_t best_top = var2level_[block.front()];

  const auto sweep = [&](bool upward) {
    while (upward ? var2level_[block.front()] > 0
                  : var2level_[block.front()] + k < levels) {
      const std::size_t size =
          upward ? move_block_up(block) : move_block_down(block);
      if (size < best_size) {
        best_size = size;
        best_top = var2level_[block.front()];
      } else if (static_cast<double>(size) >
                 max_growth * static_cast<double>(best_size)) {
        break;  // growing too much in this direction
      }
    }
  };

  // Visit the nearer end of the order first: fewer swaps to undo.
  const std::size_t top = var2level_[block.front()];
  const bool up_first = top < levels - k - top;
  sweep(up_first);
  sweep(!up_first);
  while (var2level_[block.front()] > best_top) move_block_up(block);
  while (var2level_[block.front()] < best_top) move_block_down(block);
  return best_size;
}

std::size_t Manager::move_block_up(const std::vector<Var>& block) {
  const std::size_t k = block.size();
  const std::size_t top = var2level_[block.front()];
  assert(top > 0);
  // Bubble each variable of the block above down through ours, bottom of
  // that block first, which preserves its internal order.
  const std::size_t m = block_size_of(level2var_[top - 1]);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t lev = top - 1 - j; lev < top - 1 - j + k; ++lev) {
      swap_levels(lev);
    }
  }
  return live_nodes();
}

std::size_t Manager::move_block_down(const std::vector<Var>& block) {
  const std::size_t k = block.size();
  const std::size_t top = var2level_[block.front()];
  assert(top + k < level2var_.size());
  // Bubble each variable of the block below up through ours, top of that
  // block first, which preserves its internal order.
  const std::size_t m = block_size_of(level2var_[top + k]);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t lev = top + j + k; lev > top + j; --lev) {
      swap_levels(lev - 1);
    }
  }
  return live_nodes();
}

// ---------------------------------------------------------------------------
// Explicit reorder
// ---------------------------------------------------------------------------

std::size_t Manager::reorder(const std::vector<Var>& order) {
  if (order.size() != var2level_.size()) {
    throw ModelError("reorder: order lists " + std::to_string(order.size()) +
                     " variables, manager has " +
                     std::to_string(var2level_.size()));
  }
  std::vector<std::size_t> target_level(order.size(),
                                        std::numeric_limits<std::size_t>::max());
  for (std::size_t lev = 0; lev < order.size(); ++lev) {
    const Var v = order[lev];
    if (v >= var2level_.size()) {
      throw ModelError("reorder: unknown variable v" + std::to_string(v));
    }
    if (target_level[v] != std::numeric_limits<std::size_t>::max()) {
      throw ModelError("reorder: variable " + var_desc(v) +
                       " listed more than once");
    }
    target_level[v] = lev;
  }
  for (const std::vector<Var>& g : groups_) {
    for (std::size_t i = 1; i < g.size(); ++i) {
      if (target_level[g[i]] != target_level[g[i - 1]] + 1) {
        throw ModelError("reorder: order splits the group of " +
                         var_desc(g[i - 1]) + " and " + var_desc(g[i]) +
                         " (targets " + std::to_string(target_level[g[i - 1]]) +
                         " and " + std::to_string(target_level[g[i]]) + ")");
      }
    }
  }
  if (order == level2var_) return live_nodes();

  TraceSpan span(trace_, "reorder", "kernel");
  const auto start = begin_swaps(span);

  // Selection by levels: settle level 0, then 1, ... Each variable only
  // bubbles upward, past variables that have not been placed yet, so
  // placed prefixes never move again.
  for (std::size_t target = 0; target < order.size(); ++target) {
    const Var v = order[target];
    while (var2level_[v] > target) swap_levels(var2level_[v] - 1);
  }

  end_swaps(span, start);
  return live_nodes();
}

// ---------------------------------------------------------------------------
// Level swaps
// ---------------------------------------------------------------------------

std::chrono::steady_clock::time_point Manager::begin_swaps(TraceSpan& span) {
  const auto start = std::chrono::steady_clock::now();
  ++sift_runs_;
  collect_garbage();  // swaps keep the table garbage-free from here on
  clear_cache();      // node rewrites invalidate every cached result
  gc_enabled_ = false;
  sift_tracking_ = true;
  gather_var_nodes();
  span.arg("live_before", static_cast<double>(live_nodes()));
  return start;
}

void Manager::end_swaps(TraceSpan& span,
                        std::chrono::steady_clock::time_point start) {
  assert(var_lists_exact() && "a per-variable node list drifted");
  sift_tracking_ = false;
  nodes_at_var_.clear();
  gc_enabled_ = true;
  ++reorder_epoch_;
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (profiling_) sift_seconds_ += seconds;
  span.arg("live_after", static_cast<double>(live_nodes()));
  span.arg("seconds", seconds);
}

void Manager::swap_levels(std::size_t upper_level) {
  assert(upper_level + 1 < level2var_.size());
  const Var x = level2var_[upper_level];
  const Var y = level2var_[upper_level + 1];

  // Swap the order first so mk() sees the new levels.
  level2var_[upper_level] = y;
  level2var_[upper_level + 1] = x;
  var2level_[x] = upper_level + 1;
  var2level_[y] = upper_level;

  std::vector<std::uint32_t> xs = std::move(nodes_at_var_[x]);
  nodes_at_var_[x].clear();

  std::size_t freed = 0;
  for (const std::uint32_t idx : xs) {
    assert(node_at(idx).var == x && "node list holds a stale entry");
    assert(node_at(idx).refs > 0 && "dead node during a swap");

    const NodeRef f = node_at(idx).low;   // attributed edge
    const NodeRef g = node_at(idx).high;  // regular by the canonical form
    const bool f_is_y = !is_term(f) && deref(f).var == y;
    const bool g_is_y = !is_term(g) && deref(g).var == y;
    if (!f_is_y && !g_is_y) {
      nodes_at_var_[x].push_back(idx);  // keeps var x at the new lower level
      continue;
    }

    const Split fs = f_is_y ? Split{low_of(f), high_of(f)} : Split{f, f};
    const Split gs = g_is_y ? Split{low_of(g), high_of(g)} : Split{g, g};

    unique_remove(idx);
    // Keep the node invisible to grow_buckets() while it is out of the
    // table; mk below may grow the node vector and rehash every table node.
    node_at(idx).var = kInvalidVar;
    const NodeRef n0 = mk(x, fs.low, gs.low);
    const NodeRef n1 = mk(x, fs.high, gs.high);
    // gs.high is a stored then-edge (or g itself), hence regular, so the
    // new then-edge cannot come out complemented and the rewritten node
    // keeps denoting the same function under its parents' existing flags.
    assert(!edge_complemented(n1) && "swap broke the regular-then invariant");
    assert(n0 != n1 && "swap produced a redundant node");
    // Note: mk may have reallocated the node vector; re-acquire.
    Node& n = node_at(idx);
    n.var = y;
    n.low = n0;
    n.high = n1;
    inc_ref(n0);
    inc_ref(n1);
    // Only now release the old children: n0/n1 already hold their
    // cofactors, so the release can free f/g but nothing below them.
    freed += release_child(f);
    freed += release_child(g);
    unique_insert(idx);
    nodes_at_var_[y].push_back(idx);
  }
  if (freed != 0) {
    // The freed nodes were y-nodes; mk may have reused their indices for
    // new x-nodes already, so drop the entries rather than rescan them.
    std::erase_if(nodes_at_var_[y],
                  [&](std::uint32_t idx) { return node_at(idx).var != y; });
  }
  assert(dead_count_.load(std::memory_order_relaxed) == 0 &&
         "a swap left a dead node behind");
}

std::size_t Manager::release_child(NodeRef e) {
  dec_ref(e);
  const std::uint32_t idx = edge_index(e);
  if (idx == 0 || node_at(idx).refs != 0) return 0;
  unique_remove(idx);
  const NodeRef low = node_at(idx).low;
  const NodeRef high = node_at(idx).high;
  free_node(idx);
  return 1 + release_child(low) + release_child(high);
}

void Manager::gather_var_nodes() {
  assert(!parallel_active_ && "reordering only runs at quiescence");
  nodes_at_var_.assign(var2level_.size(), {});
  const std::uint32_t size = nodes_size();
  for (std::uint32_t idx = 1; idx < size; ++idx) {
    const Node& n = node_at(idx);
    if (n.var != kInvalidVar) nodes_at_var_[n.var].push_back(idx);
  }
}

bool Manager::var_lists_exact() const {
  std::vector<bool> seen(nodes_size(), false);
  std::size_t listed = 0;
  for (Var v = 0; v < nodes_at_var_.size(); ++v) {
    for (const std::uint32_t idx : nodes_at_var_[v]) {
      if (node_at(idx).var != v || seen[idx]) return false;
      seen[idx] = true;
      ++listed;
    }
  }
  return listed == node_count_.load(std::memory_order_relaxed);
}

}  // namespace stgcheck::bdd

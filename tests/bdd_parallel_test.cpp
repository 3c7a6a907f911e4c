// The parallel kernel against its own sequential core. Canonicity makes
// this comparison exact: within one manager two Bdd handles are equal iff
// they denote the same function, so every suite computes a reference
// result at thread_count() == 1, flushes the computed caches with
// collect_garbage() (so the parallel run cannot just replay cached
// answers), raises the thread count and recomputes. Any divergence --
// a torn cache entry, a duplicate unique-table insertion, a mis-joined
// fork -- surfaces as a handle mismatch or a check_invariants() failure.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "util/rng.hpp"

namespace stgcheck::bdd {
namespace {

// Deep enough that the top levels sit well above the sequential cutoff,
// so the fork paths genuinely run when a pool is attached.
constexpr std::size_t kVars = 24;

/// A random expression tree of &, |, ^ over literals of kVars variables.
Bdd random_function(Manager& m, Rng& rng, int depth) {
  if (depth == 0 || rng.below(6) == 0) {
    const Var v = static_cast<Var>(rng.below(kVars));
    return rng.flip() ? m.var(v) : !m.var(v);
  }
  const Bdd lhs = random_function(m, rng, depth - 1);
  const Bdd rhs = random_function(m, rng, depth - 1);
  switch (rng.below(3)) {
    case 0: return lhs & rhs;
    case 1: return lhs | rhs;
    default: return lhs ^ rhs;
  }
}

struct WideSpace {
  WideSpace() {
    for (std::size_t i = 0; i < kVars; ++i) m.new_var("x" + std::to_string(i));
  }
  Manager m;
};

TEST(ParallelKernel, ApplyAndIteMatchSequentialBitForBit) {
  WideSpace s;
  Rng rng(0xA11E1);
  for (int trial = 0; trial < 8; ++trial) {
    s.m.set_thread_count(1);
    const Bdd f = random_function(s.m, rng, 6);
    const Bdd g = random_function(s.m, rng, 6);
    const Bdd h = random_function(s.m, rng, 6);
    const Bdd and_seq = f & g;
    const Bdd or_seq = f | g;
    const Bdd xor_seq = f ^ g;
    const Bdd ite_seq = s.m.ite(f, g, h);
    s.m.collect_garbage();  // drop cached results; force real recomputation
    s.m.set_thread_count(4);
    EXPECT_EQ(f & g, and_seq) << "trial " << trial;
    EXPECT_EQ(f | g, or_seq) << "trial " << trial;
    EXPECT_EQ(f ^ g, xor_seq) << "trial " << trial;
    EXPECT_EQ(s.m.ite(f, g, h), ite_seq) << "trial " << trial;
    s.m.check_invariants();
  }
}

TEST(ParallelKernel, QuantificationMatchesSequentialBitForBit) {
  WideSpace s;
  Rng rng(0xC0FE);
  std::vector<Var> evens;
  for (std::size_t i = 0; i < kVars; i += 2) {
    evens.push_back(static_cast<Var>(i));
  }
  const Bdd cube = s.m.positive_cube(evens);
  for (int trial = 0; trial < 8; ++trial) {
    s.m.set_thread_count(1);
    const Bdd f = random_function(s.m, rng, 6);
    const Bdd g = random_function(s.m, rng, 6);
    const Bdd exists_seq = s.m.exists(f, cube);
    const Bdd forall_seq = s.m.forall(f, cube);
    const Bdd andex_seq = s.m.and_exists(f, g, cube);
    s.m.collect_garbage();
    s.m.set_thread_count(8);
    EXPECT_EQ(s.m.exists(f, cube), exists_seq) << "trial " << trial;
    EXPECT_EQ(s.m.forall(f, cube), forall_seq) << "trial " << trial;
    EXPECT_EQ(s.m.and_exists(f, g, cube), andex_seq) << "trial " << trial;
    s.m.check_invariants();
  }
}

/// Twin-pair manager for the relational ops: state var i at level 2i,
/// its next-state twin right below it.
struct TwinSpace {
  explicit TwinSpace(std::size_t pairs) : n(pairs) {
    for (std::size_t i = 0; i < pairs; ++i) {
      m.new_var("x" + std::to_string(i));
      m.new_var("x" + std::to_string(i) + "'");
    }
  }
  Var cur(std::size_t i) const { return static_cast<Var>(2 * i); }
  Var nxt(std::size_t i) const { return static_cast<Var>(2 * i + 1); }
  Bdd v(std::size_t i) { return m.var(cur(i)); }
  Bdd vn(std::size_t i) { return m.var(nxt(i)); }

  /// Token-ring rules: rule i moves the token from slot i to slot i + 1.
  std::vector<ReachRelation> ring_rules() {
    std::vector<ReachRelation> rules;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i + 1) % n;
      ReachRelation r;
      r.rel = v(i) & !vn(i) & !v(j) & vn(j);
      r.support = m.positive_cube({cur(i), cur(j)});
      rules.push_back(r);
    }
    return rules;
  }

  /// One token in slot 0, doubled so the reached set is not a single cube.
  Bdd initial() {
    Bdd init = m.bdd_true();
    for (std::size_t i = 0; i < n; ++i) init &= i == 0 ? v(i) : !v(i);
    Bdd second = m.bdd_true();
    for (std::size_t i = 0; i < n; ++i) {
      second &= i == n / 2 ? v(i) : !v(i);
    }
    return init | second;
  }

  std::size_t n;
  Manager m;
};

TEST(ParallelKernel, RelNextAndReachMatchSequentialBitForBit) {
  TwinSpace ts(12);  // 24 variables: deep enough to fork
  const std::vector<ReachRelation> rules = ts.ring_rules();
  const Bdd init = ts.initial();

  Bdd rel = ts.m.bdd_false();
  std::vector<Var> all_cur;
  for (std::size_t i = 0; i < ts.n; ++i) all_cur.push_back(ts.cur(i));
  for (const ReachRelation& r : rules) rel |= r.rel;
  const Bdd support = ts.m.positive_cube(all_cur);

  ts.m.set_thread_count(1);
  const Bdd next_seq = ts.m.rel_next(init, rel, support);
  const Bdd reach_seq = ts.m.reach(init, rules);
  ts.m.collect_garbage();

  for (const std::size_t threads : {2, 4, 8}) {
    ts.m.set_thread_count(threads);
    EXPECT_EQ(ts.m.rel_next(init, rel, support), next_seq) << threads;
    EXPECT_EQ(ts.m.reach(init, rules), reach_seq) << threads;
    ts.m.check_invariants();
    ts.m.collect_garbage();
  }
}

TEST(ParallelKernel, ShallowOperandsFallThroughToSequentialCore) {
  // Below the fork cutoff the wrappers must skip the pool entirely and
  // still agree with the one-thread answer.
  Manager m;
  for (int i = 0; i < 4; ++i) m.new_var("y" + std::to_string(i));
  const Bdd f = (m.var(0) & m.var(1)) | (m.var(2) ^ m.var(3));
  const Bdd g = m.ite(m.var(1), m.var(3), !m.var(0));
  const Bdd seq = f & g;
  m.collect_garbage();
  m.set_thread_count(8);
  EXPECT_EQ(f & g, seq);
  EXPECT_EQ(f | g, !((!f) & (!g)));
  m.check_invariants();
}

TEST(ParallelKernel, ThreadCountClampsToKernelLimits) {
  Manager m;
  EXPECT_EQ(m.thread_count(), 1u);
  m.set_thread_count(4);
  EXPECT_EQ(m.thread_count(), 4u);
  m.set_thread_count(0);
  EXPECT_EQ(m.thread_count(), 1u);
  m.set_thread_count(Manager::kMaxThreads + 17);
  EXPECT_EQ(m.thread_count(), Manager::kMaxThreads);
  m.set_thread_count(1);
  EXPECT_EQ(m.thread_count(), 1u);
}

TEST(ParallelKernel, StatsStayTruthfulAcrossParallelOps) {
  WideSpace s;
  Rng rng(0x57A7);
  s.m.set_thread_count(4);
  Bdd acc = s.m.bdd_false();
  for (int trial = 0; trial < 6; ++trial) {
    acc |= random_function(s.m, rng, 6);
  }
  const ManagerStats stats = s.m.stats();
  // The merged per-worker counters must stay internally consistent no
  // matter which worker did the work.
  EXPECT_LE(stats.cache_hits, stats.cache_lookups);
  EXPECT_GT(stats.cache_lookups, 0u);
  EXPECT_LE(stats.live_count, stats.node_count);
  EXPECT_GE(stats.peak_live, stats.live_count);
  EXPECT_GE(s.m.live_nodes(), 1u);
  s.m.check_invariants();
  s.m.set_thread_count(1);
  s.m.collect_garbage();
  EXPECT_EQ(s.m.stats().dead_count, 0u);
  s.m.check_invariants();
}

}  // namespace
}  // namespace stgcheck::bdd

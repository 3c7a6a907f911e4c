// Correctness of the Boolean operations on hand-checked formulas.
#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "util/error.hpp"

namespace stgcheck::bdd {
namespace {

class BddOps : public ::testing::Test {
 protected:
  Manager m;
  Bdd a = m.new_var("a");
  Bdd b = m.new_var("b");
  Bdd c = m.new_var("c");
  Bdd d = m.new_var("d");
};

TEST_F(BddOps, AndOrBasics) {
  EXPECT_EQ(a & m.bdd_true(), a);
  EXPECT_EQ(a & m.bdd_false(), m.bdd_false());
  EXPECT_EQ(a | m.bdd_true(), m.bdd_true());
  EXPECT_EQ(a | m.bdd_false(), a);
  EXPECT_EQ(a & a, a);
  EXPECT_EQ(a | a, a);
}

TEST_F(BddOps, DeMorgan) {
  EXPECT_EQ(!(a & b), !a | !b);
  EXPECT_EQ(!(a | b), !a & !b);
}

TEST_F(BddOps, XorIdentities) {
  EXPECT_EQ(a ^ a, m.bdd_false());
  EXPECT_EQ(a ^ m.bdd_false(), a);
  EXPECT_EQ(a ^ m.bdd_true(), !a);
  EXPECT_EQ((a ^ b) ^ b, a);
}

TEST_F(BddOps, DistributivityAndAbsorption) {
  EXPECT_EQ(a & (b | c), (a & b) | (a & c));
  EXPECT_EQ(a | (a & b), a);
  EXPECT_EQ(a & (a | b), a);
}

TEST_F(BddOps, IteExpandsToMux) {
  Bdd f = m.ite(a, b, c);
  EXPECT_EQ(f, (a & b) | (!a & c));
  EXPECT_EQ(m.ite(m.bdd_true(), b, c), b);
  EXPECT_EQ(m.ite(m.bdd_false(), b, c), c);
  EXPECT_EQ(m.ite(a, m.bdd_false(), m.bdd_true()), !a);
}

TEST_F(BddOps, CompoundAssignmentOperators) {
  Bdd f = a;
  f &= b;
  EXPECT_EQ(f, a & b);
  f |= c;
  EXPECT_EQ(f, (a & b) | c);
  f ^= f;
  EXPECT_TRUE(f.is_false());
}

TEST_F(BddOps, MinusIsSetDifference) {
  Bdd f = a | b;
  EXPECT_EQ(f.minus(b), a & !b);
  EXPECT_TRUE(a.minus(a).is_false());
}

TEST_F(BddOps, ImpliesIsContainment) {
  EXPECT_TRUE((a & b).implies(a));
  EXPECT_FALSE(a.implies(a & b));
  EXPECT_TRUE(m.bdd_false().implies(a));
  EXPECT_TRUE(a.implies(m.bdd_true()));
}

TEST_F(BddOps, DisjointWith) {
  EXPECT_TRUE((a & b).disjoint_with(a & !b));
  EXPECT_FALSE((a | b).disjoint_with(b));
  EXPECT_TRUE(m.bdd_false().disjoint_with(m.bdd_true()));
  // Agreement with the conjunction on a non-trivial pair.
  Bdd f = (a ^ b) & c;
  Bdd g = (a ^ !b) | !c;
  EXPECT_EQ(f.disjoint_with(g), (f & g).is_false());
}

TEST_F(BddOps, CofactorByPositiveLiteral) {
  Bdd f = (a & b) | (!a & c);
  EXPECT_EQ(m.cofactor(f, a), b);
  EXPECT_EQ(m.cofactor(f, !a), c);
}

TEST_F(BddOps, CofactorByCube) {
  Bdd f = (a & b & c) | (!b & d);
  Bdd cube = a & !b;
  EXPECT_EQ(m.cofactor(f, cube), d);
  EXPECT_EQ(m.cofactor(f, a & b), c);
}

TEST_F(BddOps, CofactorBelowSupportIsIdentity) {
  Bdd f = a | b;
  EXPECT_EQ(m.cofactor(f, c & d), f);
  EXPECT_EQ(m.cofactor(f, m.bdd_true()), f);
}

TEST_F(BddOps, ExistsSingleVariable) {
  Bdd f = (a & b) | (!a & c);
  // exists a: b | c
  EXPECT_EQ(m.exists(f, a), b | c);
}

TEST_F(BddOps, ExistsMultipleVariables) {
  Bdd f = (a & b & c) | (!a & !b & d);
  Bdd cube = m.positive_cube({0, 1});  // quantify a, b
  EXPECT_EQ(m.exists(f, cube), c | d);
}

TEST_F(BddOps, ExistsOfUnsupportedVarIsIdentity) {
  Bdd f = a & b;
  EXPECT_EQ(m.exists(f, c), f);
}

TEST_F(BddOps, AndExistsMatchesComposition) {
  Bdd f = (a & b) | (c & d);
  Bdd g = (a ^ c) | (b & !d);
  Bdd cube = m.positive_cube({0, 3});  // quantify a, d
  EXPECT_EQ(m.and_exists(f, g, cube), m.exists(f & g, cube));
}

TEST_F(BddOps, AndExistsTerminalCases) {
  Bdd cube = m.positive_cube({0});
  EXPECT_TRUE(m.and_exists(a, m.bdd_false(), cube).is_false());
  EXPECT_EQ(m.and_exists(a & b, m.bdd_true(), cube), b);
}

TEST_F(BddOps, SatCountSmall) {
  // 4 variables total.
  EXPECT_DOUBLE_EQ(m.sat_count(m.bdd_true()), 16.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.bdd_false()), 0.0);
  EXPECT_DOUBLE_EQ(m.sat_count(a), 8.0);
  EXPECT_DOUBLE_EQ(m.sat_count(a & b), 4.0);
  EXPECT_DOUBLE_EQ(m.sat_count(a ^ b), 8.0);
  EXPECT_DOUBLE_EQ(m.sat_count(a | b | c | d), 15.0);
}

TEST(SatCount, EmptySetIsZeroPastDoubleRange) {
  // 2^1100 overflows a double; the empty set must still count 0, not
  // 0 x inf = NaN.
  Manager big;
  for (int v = 0; v < 1100; ++v) big.new_var();
  EXPECT_EQ(big.sat_count(big.bdd_false()), 0.0);
}

TEST_F(BddOps, SatCountOverSubset) {
  EXPECT_DOUBLE_EQ(m.sat_count_over(a & b, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(m.sat_count_over(a | b, {0, 1, 2}), 6.0);
  EXPECT_THROW(m.sat_count_over(a & d, {0, 1}), ModelError);
}

TEST_F(BddOps, SupportIsSortedByLevel) {
  Bdd f = (d & a) | c;
  std::vector<Var> s = m.support(f);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 0u);
  EXPECT_EQ(s[1], 2u);
  EXPECT_EQ(s[2], 3u);
  EXPECT_TRUE(m.support(m.bdd_true()).empty());
}

TEST_F(BddOps, PickOneMintermIsContainedAndComplete) {
  Bdd f = (a & !b) | (c & d);
  Bdd pick = m.pick_one_minterm(f, {0, 1, 2, 3});
  EXPECT_TRUE(pick.implies(f));
  EXPECT_EQ(m.cube_literals(pick).size(), 4u);
  EXPECT_THROW(m.pick_one_minterm(m.bdd_false(), {0}), ModelError);
}

TEST_F(BddOps, PermuteHandlesLevelReversingRenames) {
  // a -> d and b -> c reverses relative level order (monotone fast path
  // does not apply); the result must still be the plain substitution.
  Bdd f = (a & b) | (!a & !b);
  std::vector<Var> perm{3, 2, 2, 3};
  EXPECT_EQ(m.permute(f, perm), (d & c) | (!d & !c));
  // A 3-cycle a -> b -> c -> a.
  std::vector<Var> cycle{1, 2, 0, 3};
  Bdd g = (a & !b) | c;
  EXPECT_EQ(m.permute(g, cycle), (b & !c) | a);
  EXPECT_EQ(m.permute(m.permute(m.permute(g, cycle), cycle), cycle), g);
}

TEST_F(BddOps, PermuteIdentityReturnsSameNode) {
  Bdd f = (a & b) | c;
  EXPECT_EQ(m.permute(f, {0, 1, 2, 3}), f);
}

TEST_F(BddOps, PermuteRejectsNonInjectiveMaps) {
  // a and b both map to c: a silent merge, reported with the offenders.
  Bdd f = a & b;
  try {
    m.permute(f, {2, 2, 2, 3});
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("injective"), std::string::npos) << msg;
    EXPECT_NE(msg.find("v0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("v1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("v2"), std::string::npos) << msg;
  }
  // Injective on the support is enough: b -> c with a untouched is fine
  // even though the whole vector maps a and c's slots onto the same ids.
  EXPECT_EQ(m.permute(b, {0, 2, 2, 3}), c);
}

TEST_F(BddOps, PermuteErrorsNameTheVariableAndLevel) {
  try {
    m.permute(c & d, {1, 0});  // support vars c, d not covered
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("v2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'c'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("level 2"), std::string::npos) << msg;
  }
  try {
    m.permute(a, {17, 1, 2, 3});  // target does not exist
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("v17"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown"), std::string::npos) << msg;
  }
}

TEST_F(BddOps, PermuteAgreesWithEvalUnderReorderedManager) {
  Bdd f = (a & !c) | (b & d);
  std::vector<Var> perm{1, 0, 3, 2};  // swap within both pairs
  const Bdd before = m.permute(f, perm);
  m.reorder({3, 1, 0, 2});  // scramble the levels
  const Bdd after = m.permute(f, perm);
  EXPECT_EQ(before, after);  // same function regardless of current order
  for (int row = 0; row < 16; ++row) {
    std::vector<bool> x(4);
    for (int v = 0; v < 4; ++v) x[v] = (row >> v) & 1;
    // permute substitutes variables: evaluating the result under x equals
    // evaluating f under the pulled-back assignment.
    std::vector<bool> pulled(4);
    for (int v = 0; v < 4; ++v) pulled[v] = x[perm[v]];
    EXPECT_EQ(m.eval(after, x), m.eval(f, pulled)) << "row " << row;
  }
}

}  // namespace
}  // namespace stgcheck::bdd

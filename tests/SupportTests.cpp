//===- tests/SupportTests.cpp - Support library tests ---------------------===//

#include "support/Diagnostics.h"
#include "support/IntervalSet.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace llstar;

namespace {

TEST(IntervalSet, BasicAddAndContains) {
  IntervalSet S;
  EXPECT_TRUE(S.empty());
  S.add(5);
  S.add(7, 9);
  EXPECT_TRUE(S.contains(5));
  EXPECT_FALSE(S.contains(6));
  EXPECT_TRUE(S.contains(8));
  EXPECT_EQ(S.size(), 4);
  EXPECT_EQ(S.min(), 5);
  EXPECT_EQ(S.max(), 9);
}

TEST(IntervalSet, AdjacentRangesMerge) {
  IntervalSet S;
  S.add(1, 3);
  S.add(4, 6); // adjacent: must merge into one interval
  EXPECT_EQ(S.intervals().size(), 1u);
  EXPECT_EQ(S.size(), 6);
  S.add(10, 12);
  EXPECT_EQ(S.intervals().size(), 2u);
  S.add(7, 9); // bridges the gap
  EXPECT_EQ(S.intervals().size(), 1u);
  EXPECT_EQ(S.size(), 12);
}

TEST(IntervalSet, OverlappingAddsMerge) {
  IntervalSet S;
  S.add(10, 20);
  S.add(15, 30);
  S.add(5, 12);
  EXPECT_EQ(S.intervals().size(), 1u);
  EXPECT_EQ(S.min(), 5);
  EXPECT_EQ(S.max(), 30);
}

TEST(IntervalSet, RemoveSplits) {
  IntervalSet S = IntervalSet::range(1, 10);
  S.remove(5);
  EXPECT_EQ(S.intervals().size(), 2u);
  EXPECT_FALSE(S.contains(5));
  EXPECT_TRUE(S.contains(4));
  EXPECT_TRUE(S.contains(6));
  S.remove(1);
  S.remove(10);
  EXPECT_EQ(S.min(), 2);
  EXPECT_EQ(S.max(), 9);
}

TEST(IntervalSet, SetOperations) {
  IntervalSet A = IntervalSet::range(1, 10);
  IntervalSet B = IntervalSet::range(5, 15);
  IntervalSet U = A.unionWith(B);
  EXPECT_EQ(U.min(), 1);
  EXPECT_EQ(U.max(), 15);
  EXPECT_EQ(U.size(), 15);

  IntervalSet I = A.intersectWith(B);
  EXPECT_EQ(I.min(), 5);
  EXPECT_EQ(I.max(), 10);

  IntervalSet D = A.subtract(B);
  EXPECT_EQ(D.min(), 1);
  EXPECT_EQ(D.max(), 4);

  IntervalSet C = A.complement(0, 20);
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.contains(1));
  EXPECT_FALSE(C.contains(10));
  EXPECT_TRUE(C.contains(11));
  EXPECT_TRUE(C.contains(20));
}

/// Property sweep: random interval operations agree with a std::set oracle.
class IntervalSetProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IntervalSetProperty, MatchesSetOracle) {
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<int32_t> Val(-50, 50);
  IntervalSet S;
  std::set<int32_t> Oracle;
  for (int Op = 0; Op < 200; ++Op) {
    int32_t Lo = Val(Rng), Hi = Lo + int32_t(Rng() % 8);
    if (Rng() % 4 == 0) {
      int32_t V = Val(Rng);
      S.remove(V);
      Oracle.erase(V);
    } else {
      S.add(Lo, Hi);
      for (int32_t V = Lo; V <= Hi; ++V)
        Oracle.insert(V);
    }
  }
  EXPECT_EQ(S.size(), int64_t(Oracle.size()));
  for (int32_t V = -60; V <= 60; ++V)
    EXPECT_EQ(S.contains(V), Oracle.count(V) > 0) << "value " << V;
  // Invariant: intervals sorted, disjoint, non-adjacent.
  const auto &Ivals = S.intervals();
  for (size_t I = 0; I + 1 < Ivals.size(); ++I) {
    EXPECT_LE(Ivals[I].Lo, Ivals[I].Hi);
    EXPECT_LT(Ivals[I].Hi + 1, Ivals[I + 1].Lo);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty,
                         ::testing::Range(0u, 20u));

/// Union/intersection/subtraction properties on random sets.
class IntervalSetAlgebra : public ::testing::TestWithParam<uint32_t> {
protected:
  IntervalSet randomSet(std::mt19937 &Rng) {
    IntervalSet S;
    for (int I = 0; I < 5; ++I) {
      int32_t Lo = int32_t(Rng() % 100);
      S.add(Lo, Lo + int32_t(Rng() % 10));
    }
    return S;
  }
};

TEST_P(IntervalSetAlgebra, DeMorganAndInverses) {
  std::mt19937 Rng(GetParam());
  IntervalSet A = randomSet(Rng), B = randomSet(Rng);
  // (A - B) ∪ (A ∩ B) == A
  EXPECT_EQ(A.subtract(B).unionWith(A.intersectWith(B)), A);
  // A ∩ B == A - (U - B)
  IntervalSet NotB = B.complement(0, 200);
  EXPECT_EQ(A.intersectWith(B), A.subtract(NotB));
  // Complement is involutive over the universe.
  EXPECT_EQ(A.complement(0, 200).complement(0, 200),
            A.intersectWith(IntervalSet::range(0, 200)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetAlgebra, ::testing::Range(0u, 20u));

TEST(Diagnostics, CountsAndRendering) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.warning(SourceLocation(3, 7), "watch out");
  D.error(SourceLocation(4, 0), "boom");
  D.note(SourceLocation(), "context");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.warningCount(), 1u);
  EXPECT_TRUE(D.contains("boom"));
  EXPECT_FALSE(D.contains("missing"));
  std::string S = D.str();
  EXPECT_NE(S.find("warning: 3:7: watch out"), std::string::npos);
  EXPECT_NE(S.find("error: 4:0: boom"), std::string::npos);
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.empty());
}

TEST(StringUtils, Escaping) {
  EXPECT_EQ(escapeChar('\n'), "\\n");
  EXPECT_EQ(escapeChar('a'), "a");
  EXPECT_EQ(escapeChar('\x01'), "\\x01");
  EXPECT_EQ(escapeString("a\tb"), "a\\tb");
}

TEST(StringUtils, JoinAndFormat) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
}

TEST(StringUtils, ParseIntegerIsStrict) {
  int32_t I = 7;
  EXPECT_TRUE(parseInteger("42", I));
  EXPECT_EQ(I, 42);
  EXPECT_TRUE(parseInteger("-3", I));
  EXPECT_EQ(I, -3);
  // Anything but a whole, in-range decimal fails and leaves Out alone.
  for (const char *Bad : {"", "abc", "12abc", " 1", "1 ", "+1", "0x10",
                          "99999999999"}) {
    EXPECT_FALSE(parseInteger(Bad, I)) << Bad;
    EXPECT_EQ(I, -3) << Bad;
  }
  uint16_t Port = 0;
  EXPECT_TRUE(parseInteger("65535", Port));
  EXPECT_EQ(Port, 65535);
  EXPECT_FALSE(parseInteger("70000", Port)); // no truncation to 4464
  EXPECT_FALSE(parseInteger("-1", Port));
  uint64_t Seed = 0;
  EXPECT_TRUE(parseInteger("18446744073709551615", Seed));
  EXPECT_EQ(Seed, UINT64_MAX);
  // Explicit bounds.
  EXPECT_FALSE(parseInteger("0", I, 1));
  EXPECT_FALSE(parseInteger("101", I, 0, 100));
  EXPECT_TRUE(parseInteger("100", I, 0, 100));
  EXPECT_EQ(I, 100);

  // The flag form reads the value after Args[I] and advances I past it.
  std::vector<std::string> Args = {"--port", "8080", "--iters", "abc",
                                   "--last"};
  size_t At = 0;
  EXPECT_TRUE(parseIntegerFlag(Args, At, Port));
  EXPECT_EQ(At, 1u);
  EXPECT_EQ(Port, 8080);
  At = 2;
  EXPECT_FALSE(parseIntegerFlag(Args, At, I));
  Args.pop_back();
  At = Args.size() - 1;
  EXPECT_FALSE(parseIntegerFlag(Args, At, I)); // value missing
}

TEST(SourceLocation, OrderingAndStr) {
  EXPECT_LT(SourceLocation(1, 5), SourceLocation(2, 0));
  EXPECT_LT(SourceLocation(2, 0), SourceLocation(2, 1));
  EXPECT_EQ(SourceLocation(3, 4).str(), "3:4");
  EXPECT_EQ(SourceLocation().str(), "<unknown>");
  EXPECT_FALSE(SourceLocation().isValid());
}

} // namespace

//===- tests/TokenSetTests.cpp - Wildcard and not-set tests ---------------===//
//
// Parser-rule token sets: the wildcard `.` (any token but EOF) and the
// negated sets `~X` / `~(A|B)`, including the error-sync idiom
// `garbage : ~';'* ';'` and tree utilities.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "peg/PackratParser.h"
#include "runtime/TreeUtils.h"

#include <gtest/gtest.h>

using namespace llstar;
using namespace llstar::test;

namespace {

TEST(TokenSet, WildcardMatchesAnyTokenButEof) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : A . C ;
A:'a'; B:'b'; C:'c';
)");
  ASSERT_TRUE(AG);
  EXPECT_TRUE(parses(*AG, "abc"));
  EXPECT_TRUE(parses(*AG, "aac"));
  EXPECT_TRUE(parses(*AG, "acc"));
  EXPECT_FALSE(parses(*AG, "ac")); // '.' cannot match EOF or be skipped
}

TEST(TokenSet, NegatedSingleToken) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : ~B B ;
A:'a'; B:'b'; C:'c';
)");
  ASSERT_TRUE(AG);
  EXPECT_TRUE(parses(*AG, "ab"));
  EXPECT_TRUE(parses(*AG, "cb"));
  EXPECT_FALSE(parses(*AG, "bb"));
}

TEST(TokenSet, NegatedGroup) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : ~(A | 'x') D ;
A:'a'; B:'b'; D:'d'; X:'x';
)");
  ASSERT_TRUE(AG);
  EXPECT_TRUE(parses(*AG, "bd"));
  EXPECT_TRUE(parses(*AG, "dd"));
  EXPECT_FALSE(parses(*AG, "ad"));
  EXPECT_FALSE(parses(*AG, "xd"));
}

TEST(TokenSet, ErrorSyncIdiom) {
  // Skip-to-semicolon garbage recovery, expressible only with not-sets.
  auto AG = analyzeOrFail(R"(
grammar T;
prog : item* EOF ;
item : 'ok' ';' | garbage ;
garbage : ~';'+ ';' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  EXPECT_TRUE(parses(*AG, "ok ; junk 1 2 x ; ok ;", "prog"));
  EXPECT_TRUE(parses(*AG, "a b c ;", "prog"));
  EXPECT_FALSE(parses(*AG, "ok ; dangling", "prog"));
}

TEST(TokenSet, WildcardStarIsGreedyButBounded) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : 'begin' .* 'end' EOF ;
ID : [a-z]+ ;
WS : [ ]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  // .* must stop before the final 'end' to let the rule complete; the loop
  // decision sees the conflict and resolution keeps the parse viable via
  // lookahead.
  EXPECT_TRUE(parses(*AG, "begin a b c end"));
  EXPECT_TRUE(parses(*AG, "begin end"));
}

TEST(TokenSet, PackratAgreesOnSets) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : ~B+ B ;
A:'a'; B:'b'; C:'c';
)");
  ASSERT_TRUE(AG);
  for (const char *Input : {"ab", "acacb", "b", "aa"}) {
    TokenStream S1 = lexOrFail(*AG, Input);
    DiagnosticEngine D1;
    LLStarParser P1(*AG, S1, nullptr, D1);
    P1.parse("s");

    TokenStream S2 = lexOrFail(*AG, Input);
    DiagnosticEngine D2;
    PackratParser P2(AG->grammar(), S2, nullptr, D2);
    P2.parse("s");
    EXPECT_EQ(P1.ok(), P2.ok()) << Input;
  }
}

TEST(TokenSet, GrammarPrinting) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : . ~A ~(A|B) ;
A:'a'; B:'b';
)");
  ASSERT_TRUE(AG);
  std::string S = AG->grammar().str();
  EXPECT_NE(S.find(". ~(A) ~(A|B)"), std::string::npos) << S;
}

TEST(TreeUtils, WalkCollectTextDepth) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : a a ;
a : A B ;
A:'a'; B:'b';
)");
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "abab");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  auto Tree = P.parse("s");
  ASSERT_TRUE(P.ok());

  // Enter/exit pairing.
  int Enters = 0, Exits = 0;
  TreeListener L;
  L.Enter = [&](const ArenaParseTree &) {
    ++Enters;
    return true;
  };
  L.Exit = [&](const ArenaParseTree &) { ++Exits; };
  walkTree(*Tree->root(), L);
  EXPECT_EQ(Enters, Exits);
  EXPECT_EQ(size_t(Enters), Tree->size());

  // Rule collection in document order.
  auto As = collectRuleNodes(*Tree->root(), AG->grammar().findRule("a"));
  EXPECT_EQ(As.size(), 2u);

  EXPECT_EQ(treeText(*Tree->root(), Tree->tokens()), "a b a b");
  EXPECT_EQ(treeText(*As[1], Tree->tokens()), "a b");

  // Subtree pruning via Enter returning false.
  int Visited = 0;
  TreeListener Prune;
  Prune.Enter = [&](const ArenaParseTree &N) {
    ++Visited;
    return N.isToken() || N.ruleIndex() != AG->grammar().findRule("a");
  };
  walkTree(*Tree->root(), Prune);
  EXPECT_EQ(Visited, 3); // s + two pruned a nodes
}

} // namespace

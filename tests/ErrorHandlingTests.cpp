//===- tests/ErrorHandlingTests.cpp - Diagnostics and recovery ------------===//
//
// The paper argues deterministic LL parsing gives far better error
// handling than speculating strategies (Section 1) and that LL(*) parsers
// should report prediction errors at the token that killed the lookahead
// DFA walk, not at the decision start (Section 4.4). These tests pin that
// behavior down, plus the packrat contrast and recovery basics.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "peg/PackratParser.h"

#include <gtest/gtest.h>

using namespace llstar;
using namespace llstar::test;

namespace {

TEST(Errors, DeepLookaheadErrorPosition) {
  // Given A -> a+ b | a+ c and input aaaaad, the parser should report the
  // failure at 'd' (paper's exact example, Section 4.4).
  auto AG = analyzeOrFail(R"(
grammar T;
a : A+ B | A+ C ;
A:'a'; B:'b'; C:'c'; D:'d';
)");
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "aaaaad");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  P.parse("a");
  ASSERT_FALSE(P.ok());
  ASSERT_FALSE(Diags.diagnostics().empty());
  const Diagnostic &D = Diags.diagnostics().front();
  EXPECT_NE(D.Message.find("'d'"), std::string::npos) << D.str();
  // Column 5 is the 'd', not column 0 (the first 'a').
  EXPECT_EQ(D.Loc.Column, 5u) << D.str();
}

TEST(Errors, MismatchNamesExpectedToken) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : 'if' '(' ID ')' ;
ID : [a-z]+ ;
WS : [ ]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "if x )");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  P.parse("s");
  EXPECT_FALSE(P.ok());
  EXPECT_TRUE(Diags.contains("expecting '('")) << Diags.str();
}

TEST(Errors, RecoveryDisabledFailsFast) {
  auto AG = analyzeOrFail(R"(
grammar T;
a : A B C ;
A:'a'; B:'b'; C:'c'; D:'d';
)");
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "adbc");
  DiagnosticEngine Diags;
  ParserOptions Opts;
  Opts.Recover = false;
  LLStarParser P(*AG, Stream, nullptr, Diags, Opts);
  auto Tree = P.parse("a");
  EXPECT_FALSE(P.ok());
  // Without recovery the parse stops at the first mismatch: only 'a'
  // made it into the tree.
  EXPECT_EQ(numTokenLeaves(*Tree->root()), 1u);
}

TEST(Errors, ErrorsDoNotFireDuringSpeculation) {
  // Failed speculation must stay silent; only the committed parse reports.
  auto AG = analyzeOrFail(R"(
grammar T;
options { backtrack=true; }
s : p '.' | p '!' ;
p : '(' p ')' | ID ;
ID : [a-z]+ ;
WS : [ ]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "((x))!");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  P.parse("s");
  EXPECT_TRUE(P.ok());
  // The alternative-1 speculation failed at '!', but no diagnostics leak.
  EXPECT_TRUE(Diags.empty()) << Diags.str();
}

TEST(Errors, FailedSemanticPredicateReported) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : {mustHold}? A ;
A:'a';
)");
  ASSERT_TRUE(AG);
  SemanticEnv Env;
  Env.definePredicate("mustHold", [] { return false; });
  TokenStream Stream = lexOrFail(*AG, "a");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, &Env, Diags);
  P.parse("s");
  EXPECT_FALSE(P.ok());
  EXPECT_TRUE(Diags.contains("failed predicate {mustHold}?"))
      << Diags.str();
}

TEST(Errors, UnboundPredicateWarnsOnceAndAssumesTrue) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : {unbound}? A {unbound2} ;
A:'a';
)");
  ASSERT_TRUE(AG);
  TokenStream Stream = lexOrFail(*AG, "a");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  P.parse("s");
  EXPECT_TRUE(P.ok());
  EXPECT_EQ(Diags.warningCount(), 2u) << Diags.str(); // pred + action, once each
  EXPECT_TRUE(Diags.contains("'unbound' is not bound"));
  EXPECT_TRUE(Diags.contains("'unbound2' is not bound"));
}

TEST(Errors, PackratReportsOnlyAtTheEnd) {
  // The packrat contrast (paper Section 1): same grammar, same broken
  // input; the LL(*) parser localizes the error, the packrat parser can
  // only report after speculating over everything.
  auto AG = analyzeOrFail(R"(
grammar T;
s : A B C D E ;
A:'a'; B:'b'; C:'c'; D:'d'; E:'e'; X:'x';
)");
  ASSERT_TRUE(AG);
  {
    TokenStream Stream = lexOrFail(*AG, "abxde");
    DiagnosticEngine Diags;
    LLStarParser P(*AG, Stream, nullptr, Diags);
    P.parse("s");
    EXPECT_FALSE(P.ok());
    EXPECT_TRUE(Diags.contains("mismatched input 'x' expecting C"))
        << Diags.str();
  }
  {
    TokenStream Stream = lexOrFail(*AG, "abxde");
    DiagnosticEngine Diags;
    PackratParser P(AG->grammar(), Stream, nullptr, Diags);
    P.parse("s");
    EXPECT_FALSE(P.ok());
    // Packrat failure message exists but is a coarse "parse failed".
    EXPECT_TRUE(Diags.contains("PEG parse failed")) << Diags.str();
  }
}

TEST(Errors, LexerErrorPositionsAreExact) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : ID ;
ID : [a-z]+ ;
WS : [ \n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  DiagnosticEngine LexDiags;
  AG->lexer().tokenize("abc\n  @def", LexDiags);
  ASSERT_TRUE(LexDiags.hasErrors());
  EXPECT_EQ(LexDiags.diagnostics().front().Loc, SourceLocation(2, 2));
}

TEST(Errors, MultipleStatementsRecoverIndependently) {
  auto AG = analyzeOrFail(R"(
grammar T;
prog : stmt* EOF ;
stmt : ID '=' INT ';' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  // Second statement has a junk token; single-token deletion skips it and
  // the rest still parses.
  TokenStream Stream = lexOrFail(*AG, "a = 1 ; b = 2 2 ; c = 3 ;");
  DiagnosticEngine Diags;
  LLStarParser P(*AG, Stream, nullptr, Diags);
  auto Tree = P.parse("prog");
  EXPECT_FALSE(P.ok());
  EXPECT_EQ(Diags.errorCount(), 1u) << Diags.str();
  EXPECT_EQ(Tree->root()->numChildren(), 4u); // 3 stmts + EOF leaf
}

} // namespace

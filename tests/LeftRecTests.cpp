//===- tests/LeftRecTests.cpp - Left-recursion rewrite tests --------------===//
//
// The paper's Section 1.1 extension: immediate left recursion rewritten to
// precedence-predicated loops.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "grammar/GrammarParser.h"
#include "leftrec/LeftRecursionRewriter.h"

#include <gtest/gtest.h>

using namespace llstar;
using namespace llstar::test;

namespace {

// The paper's expression rule: e : e '*' e | e '+' e | INT ;
const char *PaperExprGrammar = R"(
grammar E;
e : e '*' e | e '+' e | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)";

TEST(LeftRec, RewriteMarksRule) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText(PaperExprGrammar, Diags, /*Validate=*/false);
  ASSERT_TRUE(G) << Diags.str();
  EXPECT_EQ(rewriteLeftRecursion(*G, Diags), 1);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_TRUE(G->rule(0).IsPrecedenceRule);
  EXPECT_EQ(G->rule(0).Alts.size(), 1u);
  // And the rewritten grammar validates (no left recursion remains).
  G->validate(Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
}

TEST(LeftRec, PaperExamplePrecedence) {
  auto AG = analyzeOrFail(PaperExprGrammar);
  ASSERT_TRUE(AG);
  // '*' binds tighter than '+' (alternative order encodes precedence).
  EXPECT_EQ(parseToString(*AG, "1+2*3", "e"), "(e 1 + (e 2 * (e 3)))");
  EXPECT_EQ(parseToString(*AG, "1*2+3", "e"), "(e 1 * (e 2) + (e 3))");
  // Left associativity: both ops continue the same loop.
  EXPECT_EQ(parseToString(*AG, "1+2+3", "e"), "(e 1 + (e 2) + (e 3))");
  EXPECT_EQ(parseToString(*AG, "7", "e"), "(e 7)");
}

TEST(LeftRec, ParenthesizedPrimaries) {
  auto AG = analyzeOrFail(R"(
grammar E;
e : e '*' e | e '+' e | '(' e ')' | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  EXPECT_EQ(parseToString(*AG, "(1+2)*3", "e"),
            "(e ( (e 1 + (e 2)) ) * (e 3))");
  EXPECT_TRUE(parses(*AG, "((1))*((2+3))", "e"));
}

TEST(LeftRec, RightAssociativity) {
  auto AG = analyzeOrFail(R"(
grammar E;
e : {assoc=right} e '^' e | e '+' e | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  // 2^3^4 must nest to the right: 2^(3^4).
  EXPECT_EQ(parseToString(*AG, "2^3^4", "e"), "(e 2 ^ (e 3 ^ (e 4)))");
  // And ^ still binds tighter than +.
  EXPECT_EQ(parseToString(*AG, "1+2^3", "e"), "(e 1 + (e 2 ^ (e 3)))");
}

TEST(LeftRec, PrefixOperators) {
  // Alternative order encodes precedence, highest first: unary minus
  // listed before '+' binds tighter, so -1+2 == (-1)+2.
  auto AG = analyzeOrFail(R"(
grammar E;
e : '-' e | e '+' e | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  EXPECT_EQ(parseToString(*AG, "-1+2", "e"), "(e - (e 1) + (e 2))");
  EXPECT_EQ(parseToString(*AG, "--3", "e"), "(e - (e - (e 3)))");

  // And the converse: '-' listed after '+' binds looser, so the operand of
  // '-' swallows the addition.
  auto AG2 = analyzeOrFail(R"(
grammar E;
e : e '+' e | '-' e | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG2);
  EXPECT_EQ(parseToString(*AG2, "-1+2", "e"), "(e - (e 1 + (e 2)))");
}

TEST(LeftRec, SuffixOperators) {
  auto AG = analyzeOrFail(R"(
grammar E;
e : e '!' | e '+' e | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  EXPECT_EQ(parseToString(*AG, "3!", "e"), "(e 3 !)");
  // Postfix binds tighter than '+'.
  EXPECT_EQ(parseToString(*AG, "1+2!", "e"), "(e 1 + (e 2 !))");
  EXPECT_EQ(parseToString(*AG, "1!+2", "e"), "(e 1 ! + (e 2))");
}

TEST(LeftRec, TernaryStyleMix) {
  // Mixed binary/prefix/suffix in one rule, as the paper claims the
  // mechanism supports ("sufficiently general to support suffix, prefix,
  // binary, and ternary operators").
  auto AG = analyzeOrFail(R"(
grammar E;
e : e '?' e ':' e | e '+' e | '-' e | e '!' | '(' e ')' | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  EXPECT_TRUE(parses(*AG, "1?2:3", "e"));
  EXPECT_TRUE(parses(*AG, "1+2?3:-4!", "e"));
  EXPECT_TRUE(parses(*AG, "(1?2:3)+4", "e"));
}

TEST(LeftRec, EvaluatesCorrectlyViaTreeWalk) {
  auto AG = analyzeOrFail(R"(
grammar E;
e : e '*' e | e '+' e | '(' e ')' | INT ;
INT : [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
)");
  ASSERT_TRUE(AG);

  // Evaluate the loop-form parse tree: first child is the head operand,
  // then (op, operand) pairs applied left-to-right.
  const ParseTree *Tree = nullptr; // owns the token texts
  auto TextOf = [&](const ArenaParseTree *N) {
    return N->isToken() ? Tree->token(*N).Text : std::string_view();
  };
  std::function<long(const ArenaParseTree *)> Eval =
      [&](const ArenaParseTree *N) -> long {
    if (N->isToken())
      return std::strtol(std::string(TextOf(N)).c_str(), nullptr, 10);
    long V = 0;
    const ArenaParseTree *C = N->firstChild();
    // Parenthesized head: "(" e ")".
    if (TextOf(C) == "(") {
      V = Eval(C->nextSibling());
      C = C->nextSibling()->nextSibling()->nextSibling();
    } else {
      V = Eval(C);
      C = C->nextSibling();
    }
    for (; C && C->nextSibling(); C = C->nextSibling()->nextSibling()) {
      long R = Eval(C->nextSibling());
      V = TextOf(C) == "*" ? V * R : V + R;
    }
    return V;
  };

  auto Check = [&](const std::string &Input, long Expected) {
    TokenStream Stream = lexOrFail(*AG, Input);
    DiagnosticEngine Diags;
    LLStarParser P(*AG, Stream, nullptr, Diags);
    auto Parsed = P.parse("e");
    ASSERT_TRUE(P.ok()) << Diags.str();
    Tree = Parsed.get();
    EXPECT_EQ(Eval(Tree->root()), Expected) << Input;
  };

  Check("1+2*3", 7);
  Check("(1+2)*3", 9);
  Check("2*3+4*5", 26);
  Check("1+(2+3)*4", 21);
}

TEST(LeftRec, BareSelfLoopRejected) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText("grammar T; a : a | B ; B:'b';", Diags,
                            /*Validate=*/false);
  ASSERT_TRUE(G);
  rewriteLeftRecursion(*G, Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_TRUE(Diags.contains("bare self-reference")) << Diags.str();
}

TEST(LeftRec, NonLeftRecursiveRulesUntouched) {
  DiagnosticEngine Diags;
  auto G = parseGrammarText(R"(
grammar T;
a : B a | B ;
B : 'b' ;
)",
                            Diags, /*Validate=*/false);
  ASSERT_TRUE(G);
  EXPECT_EQ(rewriteLeftRecursion(*G, Diags), 0);
  EXPECT_FALSE(G->rule(0).IsPrecedenceRule);
}

TEST(LeftRec, AnalyzePipelineHandlesItAutomatically) {
  // analyzeGrammarText must accept left-recursive input end to end.
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(PaperExprGrammar, Diags);
  ASSERT_TRUE(AG) << Diags.str();
  EXPECT_TRUE(AG->grammar().rule(0).IsPrecedenceRule);
}

} // namespace

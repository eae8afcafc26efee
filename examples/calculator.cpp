//===- examples/calculator.cpp - Expression evaluator ---------------------===//
//
// A calculator built on the paper's Section 1.1 extension: the expression
// rule is written with natural immediate left recursion and the toolkit
// rewrites it into a precedence-predicated loop automatically. Alternative
// order encodes precedence (highest first); `{assoc=right}` marks
// right-associative operators.
//
// Usage: calculator ["expression"]...
//        (with no arguments, evaluates a built-in demo set)
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalyzedGrammar.h"
#include "lexer/Lexer.h"
#include "lexer/TokenStream.h"
#include "runtime/LLStarParser.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

using namespace llstar;

namespace {

const char *CalcGrammar = R"(
grammar Calc;
s : e EOF ;
e : {assoc=right} e '^' e
  | '-' e
  | e ('*' | '/') e
  | e ('+' | '-') e
  | '(' e ')'
  | NUM
  ;
NUM : [0-9]+ ('.' [0-9]+)? ;
WS  : [ \t\r\n]+ -> skip ;
)";

/// Evaluates the loop-form tree the precedence rewrite produces: an
/// operand head, then (operator, operand) pairs folded left to right.
/// Token texts are looked up in \p T, the tree that owns them.
double evalNode(const ParseTree &T, const ArenaParseTree *N) {
  auto TextOf = [&](const ArenaParseTree *Leaf) {
    return Leaf->isToken() ? T.token(*Leaf).Text : std::string_view();
  };
  if (N->isToken())
    return std::strtod(std::string(TextOf(N)).c_str(), nullptr);

  double V = 0;
  const ArenaParseTree *C = N->firstChild();
  if (TextOf(C) == "(") {
    V = evalNode(T, C->nextSibling());
    C = C->nextSibling()->nextSibling()->nextSibling(); // '(' e ')'
  } else if (TextOf(C) == "-") {
    V = -evalNode(T, C->nextSibling());
    C = C->nextSibling()->nextSibling(); // '-' e
  } else {
    V = evalNode(T, C);
    C = C->nextSibling();
  }
  for (; C && C->nextSibling(); C = C->nextSibling()->nextSibling()) {
    std::string_view Op = TextOf(C);
    double R = evalNode(T, C->nextSibling());
    if (Op == "+")
      V += R;
    else if (Op == "-")
      V -= R;
    else if (Op == "*")
      V *= R;
    else if (Op == "/")
      V /= R;
    else if (Op == "^")
      V = std::pow(V, R);
  }
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(CalcGrammar, Diags);
  if (!AG) {
    std::fprintf(stderr, "grammar error:\n%s", Diags.str().c_str());
    return 1;
  }
  std::printf("rewritten expression rule:\n  %s\n",
              AG->grammar().str().c_str());

  const Lexer &L = AG->lexer();

  std::vector<std::string> Inputs;
  for (int I = 1; I < Argc; ++I)
    Inputs.push_back(Argv[I]);
  if (Inputs.empty())
    Inputs = {"1 + 2 * 3", "2 ^ 3 ^ 2",      "-3 + 4",
              "(1 + 2) * (3 + 4)", "10 - 2 - 3", "2 * (3 + 4) ^ 2"};

  int Failures = 0;
  for (const std::string &Input : Inputs) {
    DiagnosticEngine D;
    TokenStream Stream(L.tokenize(Input, D));
    LLStarParser P(*AG, Stream, nullptr, D);
    auto Tree = P.parse("s");
    if (!P.ok()) {
      std::printf("%-22s => error: %s", Input.c_str(),
                  D.diagnostics().front().str().c_str());
      ++Failures;
      continue;
    }
    // s : e EOF ; — the expression is the first child.
    std::printf("%-22s => %g\n", Input.c_str(),
                evalNode(*Tree, Tree->root()->firstChild()));
  }
  return Failures == 0 ? 0 : 1;
}

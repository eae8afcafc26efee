//===- examples/quickstart.cpp - llstar in five minutes -------------------===//
//
// The minimal end-to-end tour of the public API:
//
//   1. write a grammar in the ANTLR-like meta-language,
//   2. analyze it (ATN + one lookahead DFA per decision),
//   3. tokenize some input with the grammar's own lexer rules,
//   4. parse with the LL(*) parser,
//   5. look at the tree, the diagnostics, and the decision statistics.
//
// The grammar is the paper's Section 2 example: rule s needs arbitrary
// lookahead (a cyclic DFA) to tell its third and fourth alternatives
// apart.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalyzedGrammar.h"
#include "lexer/TokenStream.h"
#include "runtime/LLStarParser.h"

#include <cstdio>

using namespace llstar;

int main() {
  // 1. The grammar. Parser rules start lowercase, lexer rules uppercase;
  //    quoted literals implicitly define keyword tokens.
  const char *GrammarText = R"(
grammar Quickstart;
s    : ID | ID '=' expr | 'unsigned'* 'int' ID | 'unsigned'* ID ID ;
expr : INT ;
ID   : [a-zA-Z_] [a-zA-Z0-9_]* ;
INT  : [0-9]+ ;
WS   : [ \t\r\n]+ -> skip ;
)";

  // 2. Parse + analyze. All warnings/errors land in the diagnostics
  //    engine; analyzeGrammarText returns null on errors.
  DiagnosticEngine Diags;
  std::unique_ptr<AnalyzedGrammar> AG = analyzeGrammarText(GrammarText, Diags);
  if (!AG) {
    std::fprintf(stderr, "grammar error:\n%s", Diags.str().c_str());
    return 1;
  }
  std::printf("%s\n", AG->summary().c_str());

  // The lookahead DFA the analysis built for rule s (paper Figure 1):
  int32_t Decision =
      AG->atn().state(AG->atn().ruleStart(AG->grammar().findRule("s")))
          .Decision;
  std::printf("\nlookahead DFA for rule s:\n%s\n",
              AG->dfa(Decision).str(AG->atn()).c_str());

  // 3-5. Tokenize, parse, inspect.
  for (const char *Input : {"unsigned unsigned int x", "T x", "x = 42",
                            "= oops"}) {
    DiagnosticEngine LexDiags;
    TokenStream Stream(AG->lexer().tokenize(Input, LexDiags));

    DiagnosticEngine ParseDiags;
    LLStarParser Parser(*AG, Stream, /*Env=*/nullptr, ParseDiags);
    std::unique_ptr<ParseTree> Tree = Parser.parse("s");

    std::printf("input %-28s -> ", ("\"" + std::string(Input) + "\"").c_str());
    if (Parser.ok())
      std::printf("%s   (max lookahead %lld)\n",
                  Tree->str(AG->grammar()).c_str(),
                  (long long)Parser.stats().maxLookahead());
    else
      std::printf("syntax error: %s",
                  ParseDiags.diagnostics().front().str().c_str());
  }
  return 0;
}

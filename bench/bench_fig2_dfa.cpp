//===- bench/bench_fig2_dfa.cpp - Paper Figure 2 --------------------------===//
//
// Regenerates paper Figure 2 — the mixed fixed-lookahead + backtracking
// decision DFA for
//
//   options { backtrack=true; m=1; }
//   t    : '-'* ID | expr ;
//   expr : INT | '-' expr ;
//
// The DFA decides on the first symbol for x / 1, matches a bounded number
// of '-' (controlled by the recursion constant m), and fails over to a
// state whose only outgoing transitions are syntactic-predicate edges.
// We print the DFA, then profile how often the decision actually
// backtracks across inputs with increasing '-' depth — the paper's point
// that a decision that *can* backtrack rarely *does*.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalyzedGrammar.h"
#include "lexer/Lexer.h"
#include "lexer/TokenStream.h"
#include "runtime/LLStarParser.h"

#include <cstdio>
#include <string>

using namespace llstar;

int main() {
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(R"(
grammar T;
options { backtrack=true; m=1; }
t    : '-'* ID | expr ;
expr : INT | '-' expr ;
ID   : [a-zA-Z_] [a-zA-Z0-9_]* ;
INT  : [0-9]+ ;
WS   : [ \t\r\n]+ -> skip ;
)",
                               Diags);
  if (!AG) {
    std::fprintf(stderr, "%s\n", Diags.str().c_str());
    return 1;
  }

  int32_t D = AG->atn().state(AG->atn().ruleStart(AG->grammar().findRule("t")))
                  .Decision;
  const LookaheadDfa &Dfa = AG->dfa(D);

  std::printf("=== Figure 2: decision DFA for rule t (m=1) ===\n\n");
  std::printf("%s\n", Dfa.str(AG->atn()).c_str());
  std::printf("class: %s, overflowed: %s, synpred edges: %s\n\n",
              Dfa.decisionClass() == DecisionClass::Backtrack
                  ? "backtrack (mixed lookahead + speculation)"
                  : "OTHER",
              Dfa.overflowed() ? "yes" : "no",
              Dfa.hasSynPredEdges() ? "yes" : "no");

  const Lexer &L = AG->lexer();

  std::printf("%-24s %-6s %-12s %s\n", "input", "parsed", "backtracked?",
              "(paper: only inputs starting '--' speculate)");
  for (int Dashes = 0; Dashes <= 5; ++Dashes) {
    for (const char *Tail : {"x", "1"}) {
      std::string Input;
      for (int I = 0; I < Dashes; ++I)
        Input += "- ";
      Input += Tail;
      DiagnosticEngine PDiags;
      TokenStream Stream(L.tokenize(Input, PDiags));
      LLStarParser P(*AG, Stream, nullptr, PDiags);
      P.parse("t");
      std::printf("%-24s %-6s %-12s\n", Input.c_str(),
                  P.ok() ? "ok" : "FAIL",
                  P.stats().backtrackEvents() > 0 ? "yes" : "no");
    }
  }

  std::printf("\nGraphviz:\n%s", Dfa.dot(AG->atn()).c_str());
  return 0;
}

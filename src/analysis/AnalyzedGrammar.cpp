#include "analysis/AnalyzedGrammar.h"

#include "atn/ATNBuilder.h"
#include "grammar/GrammarParser.h"
#include "leftrec/LeftRecursionRewriter.h"
#include "support/StringUtils.h"

#include <chrono>

using namespace llstar;

std::unique_ptr<AnalyzedGrammar>
AnalyzedGrammar::analyze(std::unique_ptr<Grammar> G, DiagnosticEngine &Diags) {
  if (!G)
    return nullptr;
  auto Start = std::chrono::steady_clock::now();

  // Immediate left recursion is legal input: rewrite it into precedence
  // loops (paper Section 1.1), then reject whatever recursion remains.
  rewriteLeftRecursion(*G, Diags);
  G->validate(Diags);
  if (Diags.hasErrors())
    return nullptr;

  auto AG = std::unique_ptr<AnalyzedGrammar>(new AnalyzedGrammar());
  AG->G = std::move(G);
  AG->M = buildAtn(*AG->G);

  AnalysisOptions Opts = AnalysisOptions::fromGrammar(AG->G->Options);
  AG->Reports.resize(AG->M->numDecisions());
  for (size_t D = 0; D < AG->M->numDecisions(); ++D)
    AG->Dfas.push_back(
        analyzeDecision(*AG->M, int32_t(D), Opts, Diags, &AG->Reports[D]));

  AG->computeStats();
  AG->Recovery = RecoverySets::compute(*AG->M);
  // Freeze lazy grammar caches so concurrent const use (the parse service
  // sharing one analysis result across workers) never writes.
  AG->G->freeze();
  AG->Stats.AnalysisSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  // The one lexer compile per grammar (regex -> NFA -> DFA -> minimize);
  // every tokenizer of this grammar is this object or its serialized tables.
  // Analysis reports no errors, so any error now is the lexer's.
  AG->Lex = std::make_unique<Lexer>(AG->G->lexerSpec(), AG->G->vocabulary(),
                                    Diags);
  if (Diags.hasErrors())
    return nullptr;
  return AG;
}

std::unique_ptr<AnalyzedGrammar>
AnalyzedGrammar::fromParts(std::unique_ptr<Grammar> G, std::unique_ptr<Atn> M,
                           std::vector<std::unique_ptr<LookaheadDfa>> Dfas,
                           Lexer Lex, std::unique_ptr<RecoverySets> Recovery) {
  auto AG = std::unique_ptr<AnalyzedGrammar>(new AnalyzedGrammar());
  AG->G = std::move(G);
  AG->Lex = std::make_unique<Lexer>(std::move(Lex));
  AG->M = std::move(M);
  AG->Dfas = std::move(Dfas);
  AG->Reports.resize(AG->Dfas.size());
  AG->computeStats();
  AG->Recovery =
      Recovery ? std::move(Recovery) : RecoverySets::compute(*AG->M);
  AG->G->freeze();
  return AG;
}

void AnalyzedGrammar::computeStats() {
  StaticStats &S = Stats;
  S = StaticStats();
  S.NumDecisions = int32_t(Dfas.size());
  for (const auto &Dfa : Dfas) {
    S.TotalDfaStates += int64_t(Dfa->numStates());
    switch (Dfa->decisionClass()) {
    case DecisionClass::FixedK:
      ++S.NumFixed;
      ++S.FixedKHistogram[Dfa->fixedK()];
      break;
    case DecisionClass::Cyclic:
      ++S.NumCyclic;
      break;
    case DecisionClass::Backtrack:
      ++S.NumBacktrack;
      break;
    }
  }
}

std::vector<DecisionKey> AnalyzedGrammar::decisionKeys() const {
  std::vector<DecisionKey> Keys(Dfas.size());
  // Ordinals follow decision-number order, which is ATN construction
  // order: stable across runs, and stable under edits to other rules.
  std::map<int32_t, int32_t> NextInRule;
  for (size_t D = 0; D < Dfas.size(); ++D) {
    const AtnState &St = M->state(M->decisionState(int32_t(D)));
    DecisionKey &K = Keys[D];
    if (St.RuleIndex >= 0 && size_t(St.RuleIndex) < G->numRules())
      K.Rule = G->rule(St.RuleIndex).Name;
    K.DecisionInRule = NextInRule[St.RuleIndex]++;
    SourceLocation Loc = M->decisionLoc(int32_t(D));
    K.Line = Loc.Line;
    K.Column = Loc.Column;
  }
  return Keys;
}

std::string AnalyzedGrammar::summary() const {
  return formatString(
      "grammar %s: %d decisions, %d fixed, %d cyclic, %d backtrack "
      "(%.1f%% fixed, %.1f%% LL(1)), %lld DFA states, analyzed in %.3fs",
      G->Name.c_str(), Stats.NumDecisions, Stats.NumFixed, Stats.NumCyclic,
      Stats.NumBacktrack, 100 * Stats.fixedFraction(),
      100 * Stats.ll1Fraction(), (long long)Stats.TotalDfaStates,
      Stats.AnalysisSeconds);
}

std::unique_ptr<AnalyzedGrammar>
llstar::analyzeGrammarText(std::string_view Text, DiagnosticEngine &Diags) {
  std::unique_ptr<Grammar> G =
      parseGrammarText(Text, Diags, /*Validate=*/false);
  if (!G)
    return nullptr;
  return AnalyzedGrammar::analyze(std::move(G), Diags);
}

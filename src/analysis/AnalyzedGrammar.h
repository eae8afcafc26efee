//===- analysis/AnalyzedGrammar.h - Whole-grammar analysis ------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives LL(*) analysis over every parsing decision of a grammar and
/// packages the results: the ATN, one lookahead DFA per decision, the
/// grammar's compiled lexer, and the static statistics reported in the
/// paper's Tables 1 and 2 (decision classes and fixed-lookahead depths).
///
/// This is the main entry point of the toolkit:
/// \code
///   DiagnosticEngine Diags;
///   auto AG = llstar::analyzeGrammarText(GrammarSource, Diags);
///   TokenStream Stream(AG->lexer().tokenize(Input, Diags));
///   LLStarParser P(*AG, Stream, &Env, Diags);
///   auto Tree = P.parse("startRule");
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_ANALYSIS_ANALYZEDGRAMMAR_H
#define LLSTAR_ANALYSIS_ANALYZEDGRAMMAR_H

#include "analysis/DecisionAnalyzer.h"
#include "atn/ATN.h"
#include "dfa/LookaheadDFA.h"
#include "grammar/Grammar.h"
#include "lexer/Lexer.h"
#include "recover/RecoverySets.h"
#include "runtime/ParserStats.h"
#include "support/Diagnostics.h"

#include <map>
#include <memory>
#include <string_view>
#include <vector>

namespace llstar {

/// Aggregate static-analysis statistics (paper Tables 1 and 2).
struct StaticStats {
  int32_t NumDecisions = 0;
  int32_t NumFixed = 0;     ///< acyclic, predicate-free DFAs: pure LL(k)
  int32_t NumCyclic = 0;    ///< cyclic DFAs without backtracking
  int32_t NumBacktrack = 0; ///< DFAs with syntactic-predicate edges
  /// Histogram: fixed lookahead depth k -> number of decisions.
  std::map<int32_t, int32_t> FixedKHistogram;
  /// Wall-clock seconds spent in grammar analysis + DFA construction (the
  /// lexer compile is not included).
  double AnalysisSeconds = 0;
  /// Total lookahead-DFA states across all decisions.
  int64_t TotalDfaStates = 0;

  double fixedFraction() const {
    return NumDecisions ? double(NumFixed) / NumDecisions : 0;
  }
  double ll1Fraction() const {
    auto It = FixedKHistogram.find(1);
    int32_t LL1 = It == FixedKHistogram.end() ? 0 : It->second;
    return NumDecisions ? double(LL1) / NumDecisions : 0;
  }
};

/// A grammar plus its ATN, per-decision lookahead DFAs and compiled lexer.
class AnalyzedGrammar {
public:
  /// Runs the full pipeline on \p G: rewrites left recursion, validates,
  /// builds the ATN and a DFA per decision, and compiles the lexer. Returns
  /// null if \p G is null or on any error (validation or lexer, e.g. a
  /// token rule that matches the empty string). Diagnostics accumulate in
  /// \p Diags.
  static std::unique_ptr<AnalyzedGrammar>
  analyze(std::unique_ptr<Grammar> G, DiagnosticEngine &Diags);

  /// Assembles from already-built parts (the deserializer's entry point;
  /// see codegen/Serializer.h). Recomputes the static statistics; \p Lex
  /// is the lexer decoded from the payload tables, not recompiled. \p
  /// Recovery carries deserialized recovery tables; pass null to recompute
  /// them from the ATN.
  static std::unique_ptr<AnalyzedGrammar>
  fromParts(std::unique_ptr<Grammar> G, std::unique_ptr<Atn> M,
            std::vector<std::unique_ptr<LookaheadDfa>> Dfas, Lexer Lex,
            std::unique_ptr<RecoverySets> Recovery = nullptr);

  const Grammar &grammar() const { return *G; }
  const Atn &atn() const { return *M; }

  /// The grammar's tokenizer, compiled once. Safe to share across threads
  /// (tokenize is const and keeps no state).
  const Lexer &lexer() const { return *Lex; }

  size_t numDecisions() const { return Dfas.size(); }
  const LookaheadDfa &dfa(int32_t Decision) const {
    return *Dfas[size_t(Decision)];
  }

  /// Resolution verdicts recorded while building \p Decision's DFA. Empty
  /// reports when the grammar was assembled from serialized parts
  /// (fromParts) -- the construction never ran there.
  const DecisionReport &decisionReport(int32_t Decision) const {
    return Reports[size_t(Decision)];
  }

  const StaticStats &stats() const { return Stats; }

  /// Stable per-decision identities — (rule, ordinal within the rule,
  /// source position) — for decision-keyed stats export. Index-aligned
  /// with the DFA vector; pass to ParserStats::json so profiles collected
  /// against the same grammar text join on identity rather than on the
  /// global decision numbering.
  std::vector<DecisionKey> decisionKeys() const;

  /// Per-state follow/recovery tables for the error-recovering runtime.
  const RecoverySets &recovery() const { return *Recovery; }

  /// Renders the Table-1-style one-line summary for this grammar.
  std::string summary() const;

private:
  AnalyzedGrammar() = default;
  void computeStats();

  std::unique_ptr<Grammar> G;
  std::unique_ptr<Atn> M;
  std::vector<std::unique_ptr<LookaheadDfa>> Dfas;
  std::vector<DecisionReport> Reports;
  StaticStats Stats;
  std::unique_ptr<RecoverySets> Recovery;
  std::unique_ptr<Lexer> Lex;
};

/// Convenience: parse + analyze grammar text. Returns null on error.
std::unique_ptr<AnalyzedGrammar>
analyzeGrammarText(std::string_view Text, DiagnosticEngine &Diags);

} // namespace llstar

#endif // LLSTAR_ANALYSIS_ANALYZEDGRAMMAR_H

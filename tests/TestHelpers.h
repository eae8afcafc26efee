//===- tests/TestHelpers.h - Shared test utilities --------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_TESTS_TESTHELPERS_H
#define LLSTAR_TESTS_TESTHELPERS_H

#include "analysis/AnalyzedGrammar.h"
#include "lexer/Lexer.h"
#include "lexer/TokenStream.h"
#include "runtime/LLStarParser.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace llstar {
namespace test {

/// Parses and analyzes grammar text; fails the test on any error.
inline std::unique_ptr<AnalyzedGrammar>
analyzeOrFail(const std::string &Text) {
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(Text, Diags);
  if (!AG || Diags.hasErrors()) {
    ADD_FAILURE() << "grammar failed to analyze:\n" << Diags.str();
    return nullptr;
  }
  return AG;
}

/// Like analyzeOrFail but also hands back the diagnostics (for warning
/// checks).
inline std::unique_ptr<AnalyzedGrammar>
analyzeWithDiags(const std::string &Text, DiagnosticEngine &Diags) {
  return analyzeGrammarText(Text, Diags);
}

/// Tokenizes \p Input with the grammar's lexer; fails the test on errors.
/// The stream's tokens view \p Input, which must outlive it.
inline TokenStream lexOrFail(const AnalyzedGrammar &AG,
                             std::string_view Input) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = AG.lexer().tokenize(Input, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return TokenStream(std::move(Tokens));
}
inline TokenStream lexOrFail(const AnalyzedGrammar &AG, const char *Input) {
  return lexOrFail(AG, std::string_view(Input));
}
TokenStream lexOrFail(const AnalyzedGrammar &, std::string &&) = delete;

/// Number of token leaves under \p N; error leaves do not count (they
/// are repair artifacts, not matched input).
inline size_t numTokenLeaves(const ArenaParseTree &N) {
  if (N.isToken())
    return N.isError() ? 0 : 1;
  size_t Count = 0;
  for (const ArenaParseTree *C = N.firstChild(); C; C = C->nextSibling())
    Count += numTokenLeaves(*C);
  return Count;
}

/// Token type for a symbolic name ("ID"), a quoted literal ("'int'"), or
/// "EOF".
inline TokenType tokType(const AnalyzedGrammar &AG, const std::string &Name) {
  if (Name == "EOF")
    return TokenEof;
  TokenType T = AG.grammar().vocabulary().lookup(Name);
  EXPECT_NE(T, TokenInvalid) << "unknown token " << Name;
  return T;
}

/// Decision number at the start of \p RuleName (-1 if the rule has no
/// rule-level decision).
inline int32_t decisionOf(const AnalyzedGrammar &AG,
                          const std::string &RuleName) {
  int32_t Rule = AG.grammar().findRule(RuleName);
  EXPECT_GE(Rule, 0) << "unknown rule " << RuleName;
  return AG.atn().state(AG.atn().ruleStart(Rule)).Decision;
}

/// Walks the decision's DFA along \p TokenNames using terminal edges only.
/// Returns the predicted alternative on accept, 0 if the walk got stuck on
/// a non-accept state (e.g. one with only predicate edges), or -1 if an
/// edge was missing mid-way.
inline int32_t predictSeq(const AnalyzedGrammar &AG, int32_t Decision,
                          const std::vector<std::string> &TokenNames) {
  const LookaheadDfa &Dfa = AG.dfa(Decision);
  int32_t S = 0;
  size_t I = 0;
  while (true) {
    const DfaState &St = Dfa.state(S);
    if (St.isAccept())
      return St.PredictedAlt;
    if (I >= TokenNames.size())
      return 0;
    int32_t Next = St.edgeOn(tokType(AG, TokenNames[I]));
    if (Next < 0)
      return St.PredEdges.empty() ? -1 : 0;
    S = Next;
    ++I;
  }
}

/// The recovery outcome pinned by `tests/golden/recovery/<g>.diag`: the
/// rendered diagnostics followed by the repair counters, one per line.
inline std::string recoveryDiagSnapshot(const std::string &DiagText,
                                        const ParserStats &S) {
  return DiagText + "SyntaxErrors " + std::to_string(S.SyntaxErrors) +
         "\nTokensDeleted " + std::to_string(S.TokensDeleted) +
         "\nTokensInserted " + std::to_string(S.TokensInserted) +
         "\nPanicSyncs " + std::to_string(S.PanicSyncs) + "\n";
}

/// Parses \p Input from \p StartRule; returns the tree string, or
/// "ERROR: <diags>" when the parse failed.
inline std::string parseToString(const AnalyzedGrammar &AG,
                                 const std::string &Input,
                                 const std::string &StartRule = "",
                                 SemanticEnv *Env = nullptr) {
  TokenStream Stream = lexOrFail(AG, Input);
  DiagnosticEngine Diags;
  LLStarParser P(AG, Stream, Env, Diags);
  auto Tree = P.parse(StartRule);
  if (!P.ok())
    return "ERROR: " + Diags.str();
  return Tree->str(AG.grammar());
}

/// True if the parse succeeds with no syntax errors.
inline bool parses(const AnalyzedGrammar &AG, const std::string &Input,
                   const std::string &StartRule = "",
                   SemanticEnv *Env = nullptr) {
  TokenStream Stream = lexOrFail(AG, Input);
  DiagnosticEngine Diags;
  LLStarParser P(AG, Stream, Env, Diags);
  P.parse(StartRule);
  return P.ok();
}

} // namespace test
} // namespace llstar

#endif // LLSTAR_TESTS_TESTHELPERS_H

//===- lint/DeadSymbols.cpp - Unreachable rules and dead tokens -----------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pass 2: symbols that cannot contribute to any parse. Three checks:
///
///  - dead-rule: parser rules unreachable from the start rule over rule
///    references (including through blocks and syntactic-predicate
///    fragments);
///  - dead-token: lexer rules that emit a token no parser rule references
///    (hidden/skip rules are exempt — they never reach the parser);
///  - shadowed-token: lexer rules whose pattern is a plain literal that an
///    earlier (higher-priority or earlier-defined) rule already matches, so
///    the rule can never win maximal-munch tie-breaking. Detected
///    precisely, by tokenizing the literal text with the grammar's own
///    compiled lexer and checking which rule wins.
///
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include <optional>

using namespace llstar;

namespace {

void markReachable(const Grammar &G, int32_t RuleIndex,
                   std::vector<char> &Reach);

void markElement(const Grammar &G, const Element &E, std::vector<char> &Reach) {
  switch (E.Kind) {
  case ElementKind::RuleRef:
    markReachable(G, E.RuleIndex, Reach);
    break;
  case ElementKind::SynPred:
    markReachable(G, E.SynPredRule, Reach);
    break;
  case ElementKind::Block:
    for (const Alternative &A : E.Alts)
      for (const Element &Sub : A.Elements)
        markElement(G, Sub, Reach);
    break;
  default:
    break;
  }
}

void markReachable(const Grammar &G, int32_t RuleIndex,
                   std::vector<char> &Reach) {
  if (RuleIndex < 0 || RuleIndex >= int32_t(G.numRules()) ||
      Reach[size_t(RuleIndex)])
    return;
  Reach[size_t(RuleIndex)] = 1;
  for (const Alternative &A : G.rule(RuleIndex).Alts)
    for (const Element &E : A.Elements)
      markElement(G, E, Reach);
}

void markTokens(const Element &E, TokenType MaxType, std::vector<char> &Used) {
  switch (E.Kind) {
  case ElementKind::TokenRef:
    if (E.TokType >= 1 && E.TokType <= MaxType)
      Used[size_t(E.TokType)] = 1;
    break;
  case ElementKind::TokenSet:
    if (E.Negated) {
      // `~X` and `.` match everything outside the set: every token type is
      // potentially consumed, so none is dead.
      for (TokenType T = 1; T <= MaxType; ++T)
        Used[size_t(T)] = 1;
    } else {
      for (TokenType T = 1; T <= MaxType; ++T)
        if (E.TokSet.contains(T))
          Used[size_t(T)] = 1;
    }
    break;
  case ElementKind::Block:
    for (const Alternative &A : E.Alts)
      for (const Element &Sub : A.Elements)
        markTokens(Sub, MaxType, Used);
    break;
  default:
    break;
  }
}

/// The exact string a pure-literal regex matches, or nullopt when the
/// pattern is anything richer than a concatenation of single characters.
std::optional<std::string> literalTextOf(const regex::RegexNode &N) {
  switch (N.kind()) {
  case regex::RegexKind::Epsilon:
    return std::string();
  case regex::RegexKind::CharSet: {
    if (N.set().size() != 1)
      return std::nullopt;
    return std::string(1, char(N.set().min()));
  }
  case regex::RegexKind::Concat: {
    std::string Out;
    for (const auto &C : N.children()) {
      auto Part = literalTextOf(*C);
      if (!Part)
        return std::nullopt;
      Out += *Part;
    }
    return Out;
  }
  default:
    return std::nullopt;
  }
}

} // namespace

void llstar::lintDeadSymbols(const AnalyzedGrammar &AG, const LintOptions &,
                             std::vector<LintDiagnostic> &Out) {
  const Grammar &G = AG.grammar();

  // --- dead-rule ---------------------------------------------------------
  std::vector<char> Reach(G.numRules(), 0);
  if (G.numRules())
    markReachable(G, G.startRule(), Reach);
  for (int32_t R = 0; R < int32_t(G.numRules()); ++R) {
    const Rule &Rule = G.rule(R);
    // A dead synpred fragment is just its owner's deadness; skip the noise.
    if (Reach[size_t(R)] || Rule.IsSynPredFragment)
      continue;
    LintDiagnostic Diag;
    Diag.Id = "dead-rule";
    Diag.Severity = DiagSeverity::Warning;
    Diag.Loc = Rule.Loc;
    Diag.RuleName = Rule.Name;
    Diag.Message = "rule '" + Rule.Name + "' is unreachable from start rule '" +
                   G.rule(G.startRule()).Name + "'";
    Out.push_back(std::move(Diag));
  }

  // --- dead-token --------------------------------------------------------
  // Used-set over *all* rules, reachable or not: a token referenced only by
  // a dead rule gets one diagnostic (the dead rule), not two.
  TokenType MaxType = G.vocabulary().maxTokenType();
  std::vector<char> Used(size_t(MaxType) + 1, 0);
  for (const Rule &Rule : G.rules())
    for (const Alternative &A : Rule.Alts)
      for (const Element &E : A.Elements)
        markTokens(E, MaxType, Used);
  for (const LexerRule &LR : G.lexerSpec().Rules) {
    if (LR.Action != LexerAction::Emit)
      continue; // hidden/skip rules never reach the parser
    if (LR.Type >= 1 && LR.Type <= MaxType && !Used[size_t(LR.Type)]) {
      LintDiagnostic Diag;
      Diag.Id = "dead-token";
      Diag.Severity = DiagSeverity::Warning;
      Diag.Loc = LR.Loc;
      Diag.RuleName = G.vocabulary().name(LR.Type);
      Diag.Message = "token " + G.vocabulary().name(LR.Type) +
                     " is never used by any parser rule";
      Out.push_back(std::move(Diag));
    }
  }

  // --- shadowed-token ----------------------------------------------------
  // Let the grammar's lexer (maximal munch + priority) decide who wins each
  // pure-literal text.
  for (const LexerRule &LR : G.lexerSpec().Rules) {
    auto Text = LR.Pattern ? literalTextOf(*LR.Pattern) : std::nullopt;
    if (!Text || Text->empty())
      continue;
    DiagnosticEngine TokDiags;
    std::vector<Token> Hidden;
    std::vector<Token> Toks = AG.lexer().tokenize(*Text, TokDiags, &Hidden);
    // The winning token for this exact text: the first emitted or hidden
    // token. A skip-rule win leaves only EOF in Toks.
    TokenType Winner = TokenInvalid;
    if (!Toks.empty() && Toks.front().Type != TokenEof)
      Winner = Toks.front().Type;
    else if (!Hidden.empty())
      Winner = Hidden.front().Type;
    if (Winner == TokenInvalid || Winner == LR.Type)
      continue;
    LintDiagnostic Diag;
    Diag.Id = "shadowed-token";
    Diag.Severity = DiagSeverity::Warning;
    Diag.Loc = LR.Loc;
    Diag.RuleName = G.vocabulary().name(LR.Type);
    Diag.Message = "lexer rule " + G.vocabulary().name(LR.Type) +
                   " can never match: '" + *Text + "' is matched by rule " +
                   G.vocabulary().name(Winner);
    Out.push_back(std::move(Diag));
  }
}

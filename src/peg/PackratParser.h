//===- peg/PackratParser.h - Packrat/PEG baseline parser --------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comparison baseline of the paper's Sections 1 and 7: a packrat
/// parser interpreting the same grammar object model with PEG semantics —
/// ordered choice with unbounded backtracking, possessive (greedy,
/// non-backtracking) EBNF loops, and full memoization of (rule, position)
/// results. Running it against \ref LLStarParser on the same grammar and
/// input quantifies how much speculation LL(*) analysis removes.
///
/// Differences from LL(*) kept deliberately PEG-faithful:
///  - every choice speculates: alternatives are attempted in order and the
///    first to match wins (so `A -> a | ab` never uses its second
///    alternative);
///  - errors surface only at the very end, as "no viable alternative" at
///    the start of the failed region — packrat parsers cannot localize
///    errors the way deterministic parsers can (paper Section 1);
///  - embedded mutators never run during the speculative phase, so this
///    baseline ignores plain actions entirely (always-actions `{{...}}`
///    still run).
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_PEG_PACKRATPARSER_H
#define LLSTAR_PEG_PACKRATPARSER_H

#include "grammar/Grammar.h"
#include "lexer/TokenStream.h"
#include "runtime/ParseTree.h"
#include "runtime/SemanticEnv.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <unordered_map>

namespace llstar {

/// Counters for one packrat parse.
struct PackratStats {
  int64_t RuleInvocations = 0;
  int64_t AltAttempts = 0;
  int64_t AltFailures = 0; ///< speculative attempts that were rewound
  int64_t MemoHits = 0;
  int64_t MemoMisses = 0;
  int64_t TokensTouched = 0; ///< highest stream index examined

  void reset() { *this = PackratStats(); }
};

/// A memoizing PEG interpreter over a \ref Grammar.
class PackratParser {
public:
  struct Options {
    /// Disable to expose the exponential worst case (paper Section 6.2).
    bool Memoize = true;
    /// Build a parse tree. Memoized *successes* are then not reusable (the
    /// memo stores extents, not trees), so recognition benchmarks should
    /// leave this off; failure memoization still applies. Nodes of failed
    /// attempts stay in the tree's arena until the tree is released.
    bool BuildTree = false;
    /// Abort a hopeless parse after this many rule invocations (guards the
    /// non-memoized exponential mode in benchmarks).
    int64_t MaxRuleInvocations = -1; ///< -1 = unlimited
  };

  PackratParser(const Grammar &G, TokenStream &Stream, SemanticEnv *Env,
                DiagnosticEngine &Diags);
  PackratParser(const Grammar &G, TokenStream &Stream, SemanticEnv *Env,
                DiagnosticEngine &Diags, Options Opts);

  /// Parses from \p RuleName (grammar start rule when empty). Returns the
  /// tree when Options::BuildTree, else null; \ref ok() reports success.
  std::unique_ptr<ParseTree> parse(const std::string &RuleName = "");

  bool ok() const { return LastParseOk; }
  const PackratStats &stats() const { return Stats; }

private:
  bool parseRule(int32_t RuleIndex, ArenaParseTree *Parent);
  bool parseAlternative(const Alternative &A, ArenaParseTree *Parent);
  bool parseElement(const Element &E, ArenaParseTree *Parent);

  bool budgetExceeded() const {
    return Opts.MaxRuleInvocations >= 0 &&
           Stats.RuleInvocations > Opts.MaxRuleInvocations;
  }

  void touch() {
    if (Stats.TokensTouched < Stream.index() + 1)
      Stats.TokensTouched = Stream.index() + 1;
  }

  static uint64_t packratKey(int32_t Rule, int64_t Start) {
    return (uint64_t(uint32_t(Rule)) << 40) ^ uint64_t(Start);
  }

  const Grammar &G;
  TokenStream &Stream;
  SemanticEnv *Env;
  DiagnosticEngine &Diags;
  Options Opts;
  PackratStats Stats;
  std::unordered_map<uint64_t, int64_t> Memo; // key -> stop index or -1
  bool LastParseOk = false;
  /// The arena of the tree under construction (the result's own).
  Arena *NodeArena = nullptr;
};

} // namespace llstar

#endif // LLSTAR_PEG_PACKRATPARSER_H

//===- runtime/LLStarParser.h - The LL(*) parser ----------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LL(*) parser of paper Section 4: a recursive-descent interpreter
/// over the ATN whose decisions are driven by the statically constructed
/// lookahead DFAs.
///
/// Per decision event the parser walks the DFA over the remaining input
/// without consuming; terminal edges are preferred, predicate edges are
/// tried in alternative order when no terminal edge applies. Syntactic
/// predicates launch speculative sub-parses with mark/rewind; mutators are
/// deactivated while speculating unless declared `{{...}}` (Section 4.3);
/// speculative sub-parses are memoized packrat-style, bounding the cost of
/// nested backtracking (Section 6.2). Prediction errors are reported at the
/// deepest token the DFA reached (Section 4.4).
///
/// This file holds only the interpreter's walks (ATN states and
/// \ref LookaheadDfa edge lists); the rule frame, memo, tree building,
/// predicates, diagnostics and recovery are \ref ParserCore's, shared with
/// the compiled engine. The interpreter stays the conformance reference
/// for the compiled walk.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RUNTIME_LLSTARPARSER_H
#define LLSTAR_RUNTIME_LLSTARPARSER_H

#include "runtime/ParserCore.h"

#include <memory>
#include <string>

namespace llstar {

/// An interpreting LL(*) parser for one analyzed grammar.
class LLStarParser : public ParserCore {
public:
  /// \p Env may be null when the grammar has no predicates or actions.
  LLStarParser(const AnalyzedGrammar &AG, TokenStream &Stream,
               SemanticEnv *Env, DiagnosticEngine &Diags);
  LLStarParser(const AnalyzedGrammar &AG, TokenStream &Stream,
               SemanticEnv *Env, DiagnosticEngine &Diags, ParserOptions Opts);

  /// Parses starting at \p RuleName (or the grammar's first rule when
  /// empty). Returns the (possibly partial) parse tree, which owns its
  /// nodes and a copy of the token texts and so outlives the input; syntax
  /// errors are reported to the diagnostics engine — check
  /// \c Diags.hasErrors() or \ref ok(). With ParserOptions::TreeArena the
  /// tree is built in that arena instead: the return value is null and the
  /// root is available via \ref arenaTree. Null also for an unknown start
  /// rule.
  std::unique_ptr<ParseTree> parse(const std::string &RuleName = "");

private:
  friend class ParserCore;

  /// Runs rule \p RuleIndex's body: its ATN submachine, start to stop.
  bool runBody(int32_t RuleIndex, NodeRef Node) {
    return runStates(M.ruleStart(RuleIndex), M.ruleStop(RuleIndex), Node);
  }
  /// Walks ATN states from \p From until reaching \p Until.
  bool runStates(int32_t From, int32_t Until, NodeRef Parent);

  /// One prediction event at \p Decision; returns the 1-based alternative
  /// or -1 on a no-viable-alternative error.
  int32_t adaptivePredict(int32_t Decision);

  bool evalSemanticContext(const SemanticContext &Pred);
  bool evalSynPredAlt(int32_t Decision, int32_t Alt);

  const Atn &M;
};

} // namespace llstar

#endif // LLSTAR_RUNTIME_LLSTARPARSER_H

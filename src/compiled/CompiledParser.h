//===- compiled/CompiledParser.h - Dense-table LL(*) parser -----*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled fast path of the LL(*) runtime: the same parsing algorithm
/// as \ref LLStarParser (paper Section 4), driven by the flat dispatch
/// tables of \ref CompiledTables instead of the pointer-rich analysis
/// structures, and optionally by generated native (switch-dispatch)
/// predictors for predicate-free decisions and generated rule bodies.
///
/// Everything observable beyond the walks — the rule frame and memo, tree
/// building, predicates and actions, diagnostics text, error recovery,
/// ParserStats — is \ref ParserCore's, the same code the interpreter runs.
/// This engine adds only how it walks:
///   - adaptivePredict does one dense-table load per lookahead token
///     (or runs a generated switch predictor) instead of scanning edge
///     lists,
///   - Set transitions test a token bitset instead of an IntervalSet,
///   - the ATN walk reads one flat CState record per step instead of
///     chasing per-state transition vectors, or runs a generated body.
/// CompiledConformanceTests checks the walks against the interpreter over
/// the fuzz corpus and the recovery golden snapshots.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_COMPILED_COMPILEDPARSER_H
#define LLSTAR_COMPILED_COMPILEDPARSER_H

#include "compiled/CompiledTables.h"
#include "runtime/LLStarParser.h"

#include <memory>
#include <string>

namespace llstar {
namespace compiled {

/// An LL(*) parser over flattened tables. Construct one per parse job;
/// the tables view (and whatever owns it) must outlive the parser.
class CompiledParser : public ParserCore {
public:
  /// \p Native, when non-null, holds one generated predictor per decision
  /// (null entries fall back to the dense-table walk); \p NativeRules, when
  /// non-null, one generated body per rule (null entries fall back to the
  /// table-driven state walk). \p Env may be null when the grammar has no
  /// predicates or actions. Takes the interpreter's \ref ParserOptions so
  /// callers configure both engines identically.
  CompiledParser(const AnalyzedGrammar &AG, const TablesView &Tables,
                 TokenStream &Stream, SemanticEnv *Env,
                 DiagnosticEngine &Diags, ParserOptions Opts,
                 const NativePredictFn *Native = nullptr,
                 const NativeRuleFn *NativeRules = nullptr);

  /// Same contract as LLStarParser::parse.
  std::unique_ptr<ParseTree> parse(const std::string &RuleName = "");

  //===--------------------------------------------------------------------===//
  // Generated-code interface
  //
  // Everything a generated rule body (NativeRuleFn) needs. runStates is
  // implemented on the same primitives, so both dispatch styles share one
  // source of truth for all observable behavior (trees, stats, diagnostics,
  // recovery). Hot members are inline; cold paths stay out of line.
  //===--------------------------------------------------------------------===//

  /// The cold path behind a failed Atom/Set match at \p StateId: reports
  /// the mismatch and asks the repair strategy for a single-token fix.
  ColdMatch coldMismatch(int32_t StateId, NodeRef Parent);

  using ParserCore::consumeMatched;

  /// Predicts at decision \p Decision (ATN state \p StateId), running the
  /// panic-mode resync + one retry on a dead prediction when recovery is
  /// on. Returns the 1-based alternative, or -1 to unwind.
  int32_t predictAtState(int32_t Decision, int32_t StateId, NodeRef Parent);

  /// Invokes rule \p Callee with \p Prec, keeping \p FollowState on the
  /// recovery follow stack for the duration of the call.
  bool callRule(int32_t Callee, int32_t Prec, int32_t FollowState,
                NodeRef Parent);

  /// Evaluates the SemPred transition at \p StateId, reporting the failure
  /// (outside speculation) like the interpreter does.
  bool checkPredicateAt(int32_t StateId) {
    const CState &S = CT.States[StateId];
    return checkPredicate(S.PredIndex, S.RuleIndex);
  }

  using ParserCore::runAction;
  using ParserCore::deadlineOk;

  /// True when a generated body may predict through a direct (inlined)
  /// call to its own predictor and skip the engine's per-decision
  /// bookkeeping: no deadline to poll against and no stats to record, so
  /// the fast path is observably identical to \ref predictAtState on any
  /// successful prediction. Failed predictions must still go through
  /// \ref predictAtState for reporting and recovery.
  bool fastPredict() const { return FastPredictOk; }

  TokenStream &stream() { return Stream; }

private:
  friend class ParserCore;

  bool runStates(int32_t From, int32_t Until, NodeRef Parent);
  /// Runs rule \p RuleIndex's body: the generated native body when one
  /// exists, the table-driven state walk otherwise.
  bool runBody(int32_t RuleIndex, NodeRef Node) {
    if (NativeRules && NativeRules[RuleIndex])
      return NativeRules[RuleIndex](*this, Node);
    return runStates(CT.RuleStarts[RuleIndex], CT.RuleStops[RuleIndex], Node);
  }

  /// Bulk-accounts \p Steps lookahead steps against the deadline poll
  /// countdown after a native predictor ran (the table walk polls once per
  /// step like the interpreter; native predictors poll in one batch).
  bool deadlineOkSteps(int64_t Steps);

  int32_t adaptivePredict(int32_t Decision);
  /// Reports a dead prediction at \p Decision, \p Depth tokens ahead.
  void reportNoViableAltAt(int32_t Decision, int64_t Depth) {
    reportNoViableAlt(CT.States[CT.DecisionStates[Decision]].RuleIndex, Depth);
  }

  bool evalSemanticContext(const CPredEdge &Pred);
  bool evalSynPredAlt(int32_t Decision, int32_t Alt);

  const TablesView &CT;
  const NativePredictFn *Native;
  const NativeRuleFn *NativeRules;
  bool FastPredictOk = false;
};

} // namespace compiled
} // namespace llstar

#endif // LLSTAR_COMPILED_COMPILEDPARSER_H

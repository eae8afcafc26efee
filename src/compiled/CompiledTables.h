//===- compiled/CompiledTables.h - Dense parser dispatch tables -*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat, cache-friendly table layout behind the compiled parser fast
/// path. LL(*) analysis produces pointer-rich structures (ATN states with
/// transition vectors, lookahead-DFA states with edge lists, IntervalSet
/// labels); the interpreting runtime chases those pointers and scans those
/// lists on every decision. \ref CompiledTables flattens them once into
/// dense arrays:
///
///   - per-decision lookahead DFAs become dense `state x token` next-state
///     tables (one int32 load per lookahead step instead of an edge scan),
///   - Set-transition labels become token-indexed bitsets (one shift+mask
///     instead of an IntervalSet interval scan),
///   - the ATN becomes one flat \ref CState record per state with every
///     transition field inlined (no per-state heap vectors).
///
/// Tokens are indexed as `type + 1`, mapping TokenEof (-1) to row 0 and
/// user types [1, NumTokens] to [2, NumTokens+1]; the row width is
/// NumTokens + 2.
///
/// The same layout has two producers: \ref CompiledTables::build flattens
/// any \ref AnalyzedGrammar at load time, and `llstar compile --emit-cpp`
/// emits the arrays as static data in a self-contained C++ module (see
/// codegen/CompiledModuleEmitter.h). Both feed the engine through the
/// non-owning \ref TablesView, so generated modules and load-time builds
/// run the identical \ref CompiledParser code path.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_COMPILED_COMPILEDTABLES_H
#define LLSTAR_COMPILED_COMPILEDTABLES_H

#include "lexer/Token.h"

#include <cstdint>
#include <vector>

namespace llstar {

class AnalyzedGrammar;
struct NodeRef; // runtime/ParserCore.h
struct Token;

namespace compiled {

class CompiledParser;

/// Signature of a generated rule body: runs rule's ATN submachine from its
/// start state to its stop state against \p P, attaching children to
/// \p Parent, with every state id, token label, and jump target folded to a
/// constant. Behaviorally identical to CompiledParser::runStates over the
/// same tables — generated bodies call back into the engine's public
/// primitives (consumeMatched, coldMismatch, predictAtState, callRule, ...)
/// for everything observable, so trees, stats, diagnostics, and recovery
/// cannot diverge. Returns false to unwind to the caller's rule-level sync.
using NativeRuleFn = bool (*)(CompiledParser &P, NodeRef Parent);

/// One flattened ATN state: the \ref AtnState fields plus its single
/// non-decision transition (or its decision metadata) inlined. Plain
/// aggregate so generated modules can emit arrays of these statically.
struct CState {
  /// AtnStateKind as int (avoid enum-class header coupling in generated
  /// data); see atn/ATN.h.
  int32_t Kind = 0;
  /// AtnTransitionKind of the single outgoing transition, or -1 for
  /// decision states and rule-stop states.
  int32_t TransKind = -1;
  int32_t RuleIndex = -1;
  /// Decision number, or -1.
  int32_t Decision = -1;
  /// Where a speculated alternative ends (decision states only).
  int32_t EndState = -1;
  /// Single-transition target.
  int32_t Target = -1;
  /// Atom transitions: the token type to match.
  int32_t Label = 0;
  /// Set transitions: word offset of this set's bitset in TablesView::
  /// SetWords, or -1.
  int32_t SetIndex = -1;
  /// Rule transitions: invoked rule / follow state / precedence argument.
  int32_t CalleeRule = -1;
  int32_t FollowState = -1;
  int32_t Precedence = 0;
  /// SemPred / Action transitions.
  int32_t PredIndex = -1;
  int32_t ActionIndex = -1;
  /// Decision states: offset into TablesView::AltTargets and the number of
  /// alternatives (loop decisions: the exit alternative is NumAlts).
  int32_t FirstAltTarget = -1;
  int32_t NumAlts = 0;
};

/// One flattened lookahead-DFA predicate edge, mirroring \ref DfaPredEdge
/// with the SemanticContext inlined (Kind is SemanticContext::Kind as int).
struct CPredEdge {
  int32_t Kind = 0;
  int32_t A = -1;
  int32_t B = -1;
  int32_t Alt = -1;
};

/// Table offsets of one decision's dense lookahead DFA.
struct CDecision {
  int32_t NumStates = 0;
  /// Offset into TablesView::DfaTrans; the decision occupies
  /// NumStates * rowWidth() consecutive entries (state-major).
  int32_t TransBase = 0;
  /// Offset into the per-state metadata arrays (DfaAccept, DfaPredFirst,
  /// DfaPredCount).
  int32_t MetaBase = 0;
};

/// Signature of a generated native predictor for one decision: walks the
/// decision's lookahead DFA over \p Toks starting at \p Pos (LA(1) ==
/// Toks[Pos], clamped to the trailing EOF) and returns the predicted
/// 1-based alternative, or -1 when the walk dies. \p DepthOut receives the
/// number of terminal edges taken (the lookahead depth used, also the
/// depth reached on failure). Generated only for decisions whose DFA has
/// no predicate edges, so the walk is deterministic.
using NativePredictFn = int32_t (*)(const Token *Toks, int64_t NumToks,
                                    int64_t Pos, int64_t &DepthOut);

/// Non-owning view over a complete table set. The engine and the generated
/// modules both speak this; all pointers must outlive the view.
struct TablesView {
  /// Largest token type of the vocabulary; token row width is NumTokens+2.
  int32_t NumTokens = 0;
  int32_t NumStates = 0;
  int32_t NumRules = 0;
  int32_t NumDecisions = 0;
  /// Words per Set-transition bitset: (rowWidth() + 63) / 64.
  int32_t SetWordsPerSet = 0;

  const CState *States = nullptr;
  const int32_t *RuleStarts = nullptr; ///< per rule: start state
  const int32_t *RuleStops = nullptr;  ///< per rule: stop state
  /// Pool of decision-alternative targets (see CState::FirstAltTarget).
  const int32_t *AltTargets = nullptr;
  /// Per decision: ATN decision-state id.
  const int32_t *DecisionStates = nullptr;
  const CDecision *Decisions = nullptr;
  /// Dense lookahead-DFA transitions: next state or -1.
  const int32_t *DfaTrans = nullptr;
  /// Per DFA state: predicted 1-based alternative, or -1.
  const int32_t *DfaAccept = nullptr;
  /// Per DFA state: offset/count into PredEdges.
  const int32_t *DfaPredFirst = nullptr;
  const int32_t *DfaPredCount = nullptr;
  const CPredEdge *PredEdges = nullptr;
  /// Bitset pool for Set transitions, indexed by CState::SetIndex.
  const uint64_t *SetWords = nullptr;

  int32_t rowWidth() const { return NumTokens + 2; }

  /// Token type -> table column. TokenEof (-1) maps to 0; anything outside
  /// the vocabulary clamps to the (always-empty) TokenInvalid column.
  int32_t tokenIndex(TokenType T) const {
    int32_t I = T + 1;
    return I >= 0 && I < rowWidth() ? I : 1;
  }

  /// Membership test for the Set-transition bitset at \p SetIndex.
  bool setContains(int32_t SetIndex, TokenType T) const {
    uint32_t I = uint32_t(tokenIndex(T));
    return (SetWords[size_t(SetIndex) + (I >> 6)] >> (I & 63)) & 1;
  }

  /// Dense next-state lookup for \p DfaState of \p Decision on \p T.
  int32_t dfaNext(const CDecision &D, int32_t DfaState, TokenType T) const {
    return DfaTrans[size_t(D.TransBase) +
                    size_t(DfaState) * size_t(rowWidth()) +
                    size_t(tokenIndex(T))];
  }
};

/// Owning storage for one grammar's flattened tables.
class CompiledTables {
public:
  /// Flattens \p AG. The result references nothing in \p AG; the grammar
  /// object is still needed alongside for names, vocabulary, predicates,
  /// actions, and recovery sets (cold paths).
  static CompiledTables build(const AnalyzedGrammar &AG);

  const TablesView &view() const { return View; }

  /// Pool sizes the view does not carry; the module emitter needs them to
  /// write the arrays out as static data.
  size_t numAltTargets() const { return AltTargets.size(); }
  size_t numDfaTransEntries() const { return DfaTrans.size(); }
  size_t numDfaStatesTotal() const { return DfaAccept.size(); }
  size_t numPredEdges() const { return PredEdges.size(); }
  size_t numSetWords() const { return SetWords.size(); }

  /// Total int32-equivalent table entries (size diagnostics for tools).
  size_t tableEntries() const {
    return States.size() * (sizeof(CState) / sizeof(int32_t)) +
           DfaTrans.size() + DfaAccept.size() * 3 + AltTargets.size() +
           SetWords.size() * 2 + PredEdges.size() * 4;
  }

  CompiledTables(CompiledTables &&O) noexcept { moveFrom(std::move(O)); }
  CompiledTables &operator=(CompiledTables &&O) noexcept {
    moveFrom(std::move(O));
    return *this;
  }
  CompiledTables(const CompiledTables &) = delete;
  CompiledTables &operator=(const CompiledTables &) = delete;

private:
  CompiledTables() = default;
  void moveFrom(CompiledTables &&O);
  void refreshView();

  std::vector<CState> States;
  std::vector<int32_t> RuleStarts, RuleStops;
  std::vector<int32_t> AltTargets;
  std::vector<int32_t> DecisionStates;
  std::vector<CDecision> Decisions;
  std::vector<int32_t> DfaTrans, DfaAccept, DfaPredFirst, DfaPredCount;
  std::vector<CPredEdge> PredEdges;
  std::vector<uint64_t> SetWords;
  TablesView View;
};

} // namespace compiled
} // namespace llstar

#endif // LLSTAR_COMPILED_COMPILEDTABLES_H

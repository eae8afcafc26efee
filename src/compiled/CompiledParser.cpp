//===- compiled/CompiledParser.cpp - Dense-table LL(*) parser -------------===//
//
// The compiled engine's walks over flat tables: the CState body walk and
// the dense-table and native lookahead-DFA walks. Everything else is
// runtime/ParserCore.cpp.
//
//===----------------------------------------------------------------------===//

#include "compiled/CompiledParser.h"

#include <cassert>

using namespace llstar;
using namespace llstar::compiled;

CompiledParser::CompiledParser(const AnalyzedGrammar &AG,
                               const TablesView &Tables, TokenStream &Stream,
                               SemanticEnv *Env, DiagnosticEngine &Diags,
                               ParserOptions Opts,
                               const NativePredictFn *Native,
                               const NativeRuleFn *NativeRules)
    : ParserCore(AG, Stream, Env, Diags, Opts), CT(Tables), Native(Native),
      NativeRules(NativeRules) {
  // Reuse hooks observe every prediction event, so generated bodies must
  // not shortcut prediction past the engine when one is installed.
  FastPredictOk =
      NoDeadline && !this->Opts.CollectStats && !this->Opts.Hooks;
}

std::unique_ptr<ParseTree> CompiledParser::parse(const std::string &RuleName) {
  return parseWith(*this, RuleName);
}

bool CompiledParser::callRule(int32_t Callee, int32_t Prec,
                              int32_t FollowState, NodeRef Parent) {
  return ParserCore::callRule(*this, Callee, Prec, FollowState, Parent);
}

int32_t CompiledParser::predictAtState(int32_t Decision, int32_t StateId,
                                       NodeRef Parent) {
  return ParserCore::predictAtState(*this, Decision, StateId, Parent);
}

CompiledParser::ColdMatch CompiledParser::coldMismatch(int32_t StateId,
                                                       NodeRef Parent) {
  const CState &S = CT.States[StateId];
  // The repair strategy wants the expected set as an IntervalSet, which
  // the flat tables do not carry — read it back from the source ATN.
  bool IsAtom = S.TransKind == int32_t(AtnTransitionKind::Atom);
  return ParserCore::coldMismatch(
      S.Label, IsAtom ? nullptr : &AG.atn().state(StateId).Transitions[0].Labels,
      S.Target, Parent);
}

bool CompiledParser::runStates(int32_t From, int32_t Until, NodeRef Parent) {
  int32_t P = From;
  LoopGuard Loops;

  const CState *States = CT.States;
  while (P != Until) {
    if (!deadlineOk())
      return false;
    const CState &S = States[P];

    if (S.Decision >= 0) {
      int32_t Alt = predictAtState(S.Decision, P, Parent);
      if (Alt < 0)
        return false;
      bool IsLoop = S.Kind == int32_t(AtnStateKind::StarLoopEntry) ||
                    S.Kind == int32_t(AtnStateKind::PlusLoopBack);
      if (IsLoop && Alt != S.NumAlts && Loops.stalled(P, Stream.index()))
        Alt = S.NumAlts; // no progress since last iteration: exit
      P = CT.AltTargets[size_t(S.FirstAltTarget) + size_t(Alt) - 1];
      continue;
    }

    switch (AtnTransitionKind(S.TransKind)) {
    case AtnTransitionKind::Epsilon:
    case AtnTransitionKind::SynPred:
      // Syntactic predicates were consulted during prediction; once an
      // alternative is chosen the gate is a no-op.
      P = S.Target;
      break;
    case AtnTransitionKind::Set:
    case AtnTransitionKind::Atom: {
      TokenType La = Stream.LA(1);
      bool IsAtom = S.TransKind == int32_t(AtnTransitionKind::Atom);
      bool Matches = IsAtom ? La == S.Label
                            : (La != TokenEof && CT.setContains(S.SetIndex, La));
      if (!Matches) {
        ColdMatch Act = coldMismatch(P, Parent);
        if (Act == ColdMatch::Unwind)
          return false; // unwind to the rule-level sync
        if (Act == ColdMatch::Inserted) {
          P = S.Target;
          break;
        }
        // DeleteToken dropped the spurious token; fall through to match
        // the one now at the front.
      }
      consumeMatched(Parent);
      P = S.Target;
      break;
    }
    case AtnTransitionKind::Rule:
      if (!callRule(S.CalleeRule, S.Precedence, S.FollowState, Parent))
        return false;
      P = S.FollowState;
      break;
    case AtnTransitionKind::SemPred:
      if (!checkPredicateAt(P))
        return false;
      P = S.Target;
      break;
    case AtnTransitionKind::Action:
      runAction(S.ActionIndex);
      P = S.Target;
      break;
    }
  }
  return true;
}

bool CompiledParser::deadlineOkSteps(int64_t Steps) {
  if (NoDeadline)
    return true;
  if (DeadlineHit)
    return false;
  if (int64_t(DeadlinePollCountdown) > Steps) {
    DeadlinePollCountdown -= int32_t(Steps);
    return true;
  }
  return deadlinePoll();
}

//===----------------------------------------------------------------------===//
// Prediction
//===----------------------------------------------------------------------===//

int32_t CompiledParser::adaptivePredict(int32_t Decision) {
  if (Native && Native[Decision]) {
    // Generated switch predictor: only emitted for predicate-free DFAs, so
    // the walk is deterministic and never speculates.
    if (!deadlineOk())
      return -1;
    const std::vector<Token> &Toks = Stream.tokens();
    int64_t Depth = 0;
    int32_t Alt = Native[Decision](Toks.data(), int64_t(Toks.size()),
                                   Stream.index(), Depth);
    if (!deadlineOkSteps(Depth))
      return -1;
    recordDecision(Decision, Stream.index(), Depth, /*Backtracked=*/false,
                   Alt);
    if (Alt < 0 && !speculating() && !DeadlineHit)
      reportNoViableAltAt(Decision, Depth);
    return Alt;
  }

  const CDecision &D = CT.Decisions[Decision];
  const int32_t MetaBase = D.MetaBase;
  int32_t S = 0;
  int64_t Depth = 0;
  int64_t StartIndex = Stream.index();
  bool Backtracked = false;

  while (true) {
    if (!deadlineOk())
      return -1;
    int32_t Accept = CT.DfaAccept[size_t(MetaBase) + size_t(S)];
    if (Accept > 0) {
      recordDecision(Decision, StartIndex, Depth, Backtracked, Accept);
      return Accept;
    }
    TokenType T = Stream.LA(Depth + 1);
    int32_t Next = CT.dfaNext(D, S, T);
    if (Next == S && T == TokenEof)
      Next = -1; // EOF self-loops cannot make progress
    if (Next >= 0) {
      ++Depth;
      S = Next;
      continue;
    }
    // No terminal edge applies: try the predicate edges in alternative
    // order (ordered choice; lower alternatives take precedence).
    int32_t PredFirst = CT.DfaPredFirst[size_t(MetaBase) + size_t(S)];
    int32_t PredCount = CT.DfaPredCount[size_t(MetaBase) + size_t(S)];
    for (int32_t E = 0; E < PredCount; ++E) {
      const CPredEdge &PE = CT.PredEdges[size_t(PredFirst) + size_t(E)];
      bool IsSyn = PE.Kind == int32_t(SemanticContext::Kind::SynPredRule) ||
                   PE.Kind == int32_t(SemanticContext::Kind::SynPredAlt);
      if (evalPredEdge(IsSyn, StartIndex, Depth, Backtracked,
                       [&] { return evalSemanticContext(PE); })) {
        recordDecision(Decision, StartIndex, Depth, Backtracked, PE.Alt);
        return PE.Alt;
      }
    }
    recordDecision(Decision, StartIndex, Depth, Backtracked, /*Alt=*/-1);
    if (!speculating() && !DeadlineHit)
      reportNoViableAltAt(Decision, Depth);
    return -1;
  }
}

bool CompiledParser::evalSemanticContext(const CPredEdge &Pred) {
  switch (SemanticContext::Kind(Pred.Kind)) {
  case SemanticContext::Kind::None:
    return true;
  case SemanticContext::Kind::Pred:
    return evalNamedPredicate(Pred.A);
  case SemanticContext::Kind::SynPredRule:
    return evalSynPredRule(*this, Pred.A);
  case SemanticContext::Kind::SynPredAlt:
    return evalSynPredAlt(Pred.A, Pred.B);
  }
  return true;
}

bool CompiledParser::evalSynPredAlt(int32_t Decision, int32_t Alt) {
  const CState &S = CT.States[CT.DecisionStates[Decision]];
  assert(Alt >= 1 && Alt <= S.NumAlts && "alternative out of range");
  assert(S.EndState >= 0 && "decision has no end state");
  return speculate([&] {
    return runStates(CT.AltTargets[size_t(S.FirstAltTarget) + size_t(Alt) - 1],
                     S.EndState, NodeRef());
  });
}

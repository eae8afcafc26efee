#include "runtime/LLStarParser.h"

#include <cassert>

using namespace llstar;

LLStarParser::LLStarParser(const AnalyzedGrammar &AG, TokenStream &Stream,
                           SemanticEnv *Env, DiagnosticEngine &Diags)
    : LLStarParser(AG, Stream, Env, Diags, [&AG] {
        ParserOptions O;
        O.Memoize = AG.grammar().Options.Memoize;
        return O;
      }()) {}

LLStarParser::LLStarParser(const AnalyzedGrammar &AG, TokenStream &Stream,
                           SemanticEnv *Env, DiagnosticEngine &Diags,
                           ParserOptions Opts)
    : ParserCore(AG, Stream, Env, Diags, Opts), M(AG.atn()) {}

std::unique_ptr<ParseTree> LLStarParser::parse(const std::string &RuleName) {
  return parseWith(*this, RuleName);
}

bool LLStarParser::runStates(int32_t From, int32_t Until, NodeRef Parent) {
  int32_t P = From;
  LoopGuard Loops;

  while (P != Until) {
    if (!deadlineOk())
      return false;
    const AtnState &S = M.state(P);

    if (S.isDecision()) {
      int32_t Alt = predictAtState(*this, S.Decision, P, Parent);
      if (Alt < 0)
        return false;
      bool IsLoop = S.Kind == AtnStateKind::StarLoopEntry ||
                    S.Kind == AtnStateKind::PlusLoopBack;
      int32_t ExitAlt = int32_t(S.Transitions.size());
      if (IsLoop && Alt != ExitAlt && Loops.stalled(P, Stream.index()))
        Alt = ExitAlt; // no progress since last iteration: exit
      P = S.Transitions[size_t(Alt) - 1].Target;
      continue;
    }

    assert(S.Transitions.size() == 1 &&
           "non-decision states have exactly one transition");
    const AtnTransition &T = S.Transitions[0];
    switch (T.Kind) {
    case AtnTransitionKind::Epsilon:
    case AtnTransitionKind::SynPred:
      // Syntactic predicates were consulted during prediction; once an
      // alternative is chosen the gate is a no-op.
      P = T.Target;
      break;
    case AtnTransitionKind::Set:
    case AtnTransitionKind::Atom: {
      bool IsAtom = T.Kind == AtnTransitionKind::Atom;
      bool Matches = IsAtom ? Stream.LA(1) == T.Label
                            : (Stream.LA(1) != TokenEof &&
                               T.Labels.contains(Stream.LA(1)));
      if (!Matches) {
        ColdMatch Act = coldMismatch(T.Label, IsAtom ? nullptr : &T.Labels,
                                     T.Target, Parent);
        if (Act == ColdMatch::Unwind)
          return false; // unwind to the rule-level sync
        if (Act == ColdMatch::Inserted) {
          P = T.Target;
          break;
        }
        // DeleteToken dropped the spurious token; fall through to match
        // the one now at the front.
      }
      consumeMatched(Parent);
      P = T.Target;
      break;
    }
    case AtnTransitionKind::Rule:
      if (!callRule(*this, T.RuleIndex, T.Precedence, T.FollowState, Parent))
        return false;
      P = T.FollowState;
      break;
    case AtnTransitionKind::SemPred:
      if (!checkPredicate(T.PredIndex, S.RuleIndex))
        return false;
      P = T.Target;
      break;
    case AtnTransitionKind::Action:
      runAction(T.ActionIndex);
      P = T.Target;
      break;
    }
  }
  return true;
}

int32_t LLStarParser::adaptivePredict(int32_t Decision) {
  const LookaheadDfa &Dfa = AG.dfa(Decision);
  int32_t S = 0;
  int64_t Depth = 0;
  int64_t StartIndex = Stream.index();
  bool Backtracked = false;

  while (true) {
    if (!deadlineOk())
      return -1;
    const DfaState &St = Dfa.state(S);
    if (St.isAccept()) {
      recordDecision(Decision, StartIndex, Depth, Backtracked,
                     St.PredictedAlt);
      return St.PredictedAlt;
    }
    TokenType T = Stream.LA(Depth + 1);
    int32_t Next = St.edgeOn(T);
    if (Next == S && T == TokenEof)
      Next = -1; // EOF self-loops cannot make progress
    if (Next >= 0) {
      ++Depth;
      S = Next;
      continue;
    }
    // No terminal edge applies: try the predicate edges in alternative
    // order (ordered choice; lower alternatives take precedence).
    for (const DfaPredEdge &E : St.PredEdges) {
      if (evalPredEdge(E.Pred.isSyntactic(), StartIndex, Depth, Backtracked,
                       [&] { return evalSemanticContext(E.Pred); })) {
        recordDecision(Decision, StartIndex, Depth, Backtracked, E.Alt);
        return E.Alt;
      }
    }
    recordDecision(Decision, StartIndex, Depth, Backtracked, /*Alt=*/-1);
    if (!speculating() && !DeadlineHit)
      reportNoViableAlt(M.state(M.decisionState(Decision)).RuleIndex, Depth);
    return -1;
  }
}

bool LLStarParser::evalSemanticContext(const SemanticContext &Pred) {
  switch (Pred.K) {
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

bool LLStarParser::evalSynPredAlt(int32_t Decision, int32_t Alt) {
  const AtnState &S = M.state(M.decisionState(Decision));
  assert(Alt >= 1 && size_t(Alt) <= S.Transitions.size() &&
         "alternative out of range");
  assert(S.EndState >= 0 && "decision has no end state");
  return speculate([&] {
    return runStates(S.Transitions[size_t(Alt) - 1].Target, S.EndState,
                     NodeRef());
  });
}

#include "runtime/ParserCore.h"

using namespace llstar;

TokenType llstar::firstUserToken(const IntervalSet &S) {
  for (const Interval &I : S.intervals())
    if (I.Hi >= TokenMinUserType)
      return std::max(I.Lo, TokenMinUserType);
  return TokenInvalid;
}

namespace {

std::string resyncNote(size_t Skipped) {
  return "skipped " + std::to_string(Skipped) +
         (Skipped == 1 ? " token" : " tokens") + " to resynchronize";
}

} // namespace

ParserCore::ParserCore(const AnalyzedGrammar &AG, TokenStream &Stream,
                       SemanticEnv *Env, DiagnosticEngine &Diags,
                       ParserOptions Opts)
    : AG(AG), Stream(Stream), Env(Env), Diags(Diags), Opts(Opts),
      NoDeadline(Opts.Deadline ==
                 std::chrono::steady_clock::time_point::max()) {
  Stats.ensure(AG.numDecisions());
}

int32_t ParserCore::beginParse(const std::string &RuleName,
                               std::unique_ptr<ParseTree> &Result,
                               NodeRef &Root) {
  int32_t Rule = RuleName.empty() ? AG.grammar().startRule()
                                  : AG.grammar().findRule(RuleName);
  if (Rule < 0) {
    Diags.error("unknown start rule '" + RuleName + "'");
    LastParseOk = false;
    return -1;
  }
  Memo.clear();
  ArenaRoot = nullptr;
  NumTreeNodes = NumErrorLeaves = 0;
  DeadlineHit = false;
  DeadlinePollCountdown = DeadlinePollInterval;
  FollowStack.clear();
  LastErrorIndex = -1;
  InsertionsSinceConsume = 0;

  if (Opts.TreeArena) {
    NodeArena = Opts.TreeArena;
    if (Opts.BuildTree) {
      Root.Tree = ArenaRoot = ArenaParseTree::ruleNode(*NodeArena, Rule);
      NumTreeNodes = 1;
    }
  } else {
    // Without a tree there are no leaves, so there is no text to keep.
    Result = std::make_unique<ParseTree>(Rule,
                                         Opts.BuildTree ? &Stream : nullptr);
    NodeArena = &Result->arena();
    NumTreeNodes = 1; // the constructor made the root
    if (Opts.BuildTree)
      Root.Tree = Result->root();
  }
  return Rule;
}

//===----------------------------------------------------------------------===//
// Tree building
//===----------------------------------------------------------------------===//

NodeRef ParserCore::addRuleChild(NodeRef Parent, int32_t RuleIndex) {
  ++NumTreeNodes;
  return {Parent.Tree->addChild(
      ArenaParseTree::ruleNode(*NodeArena, RuleIndex))};
}

void ParserCore::addTokenChild(NodeRef Parent) {
  ++NumTreeNodes;
  Parent.Tree->addChild(
      ArenaParseTree::tokenNode(*NodeArena, Stream.index()));
}

void ParserCore::addErrorLeaf(NodeRef Parent, ArenaParseTree *Leaf) {
  Parent.Tree->addChild(Leaf);
  ++NumTreeNodes;
  ++NumErrorLeaves;
}

void ParserCore::addErrorTokenChild(NodeRef Parent) {
  if (Parent)
    addErrorLeaf(Parent, ArenaParseTree::errorNode(*NodeArena, Stream.index()));
}

void ParserCore::addMissingTokenChild(NodeRef Parent, TokenType Missing) {
  if (Parent)
    addErrorLeaf(Parent, ArenaParseTree::missingNode(*NodeArena, Missing,
                                                     Stream.index()));
}

void ParserCore::addMarkerChild(NodeRef Parent) {
  if (Parent)
    addErrorLeaf(Parent,
                 ArenaParseTree::markerNode(*NodeArena, Stream.index()));
}

bool ParserCore::deadlinePoll() {
  DeadlinePollCountdown = DeadlinePollInterval;
  if (std::chrono::steady_clock::now() <= Opts.Deadline)
    return true;
  DeadlineHit = true;
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  Diags.error(Stream.LT(1).Loc, "parse deadline exceeded");
  return false;
}

//===----------------------------------------------------------------------===//
// Predicates and actions
//===----------------------------------------------------------------------===//

bool ParserCore::evalNamedPredicate(int32_t PredIndex) {
  const AtnPredicate &P = AG.atn().predicate(PredIndex);
  if (P.isPrecedence()) {
    // Precedence gates read only the invocation's precedence argument,
    // which is part of the reuse key — no poisoning needed.
    int32_t Current = PrecStack.empty() ? 0 : PrecStack.back();
    return Current <= P.MinPrecedence;
  }
  // A named predicate makes the decision depend on ambient semantic state;
  // nodes above this point must not be reused.
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  if (Env)
    if (const SemanticEnv::Predicate *Fn = Env->findPredicate(P.Name))
      return (*Fn)();
  if (ReportedUnbound.insert(P.Name).second)
    Diags.warning("predicate '" + P.Name +
                  "' is not bound in the semantic environment; assuming true");
  return true;
}

bool ParserCore::checkPredicate(int32_t PredIndex, int32_t RuleIndex) {
  if (evalNamedPredicate(PredIndex))
    return true;
  if (!speculating())
    Diags.error(Stream.LT(1).Loc,
                "rule " + AG.grammar().rule(RuleIndex).Name +
                    " failed predicate {" + AG.atn().predicate(PredIndex).Name +
                    "}?");
  return false;
}

void ParserCore::runAction(int32_t ActionIndex) {
  // Actions mutate ambient state; conservatively poison even when the
  // action is skipped during speculation (it would run on re-execution).
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  const AtnAction &A = AG.atn().action(ActionIndex);
  if (speculating() && !A.Always)
    return; // mutators are deactivated during speculation (Section 4.3)
  if (Env)
    if (const SemanticEnv::Action *Fn = Env->findAction(A.Name)) {
      (*Fn)();
      return;
    }
  if (ReportedUnbound.insert(A.Name).second)
    Diags.warning("action '" + A.Name +
                  "' is not bound in the semantic environment; skipping");
}

//===----------------------------------------------------------------------===//
// Errors
//===----------------------------------------------------------------------===//

ParserCore::ColdMatch ParserCore::coldMismatch(TokenType Label,
                                               const IntervalSet *Set,
                                               int32_t Follow,
                                               NodeRef Parent) {
  if (speculating() || DeadlineHit)
    return ColdMatch::Unwind;
  reportMismatch(Set ? TokenInvalid : Label);
  if (!canRecover())
    return ColdMatch::Unwind;
  IntervalSet Expected = Set ? *Set : IntervalSet::of(Label);
  RepairContext Ctx{Stream.LA(1), Stream.LA(2), Expected, viableAfter(Follow),
                    InsertionsSinceConsume};
  RepairAction Act = chooseRepair(Ctx);
  if (Act == RepairAction::DeleteToken) {
    // The next token matches: the current one is spurious.
    Diags.note(Stream.LT(1).Loc,
               "deleted '" + std::string(Stream.LT(1).Text) + "' to recover");
    skipTokenAsError(Parent);
    ++Stats.TokensDeleted;
    return ColdMatch::MatchNow;
  }
  if (Act == RepairAction::InsertToken) {
    // Conjure the expected token: the parse continues as if it were
    // present, leaving a zero-width Missing error leaf.
    TokenType Conjured = Set ? firstUserToken(Expected) : Label;
    Diags.note(Stream.LT(1).Loc,
               "inserted missing " +
                   AG.grammar().vocabulary().name(Conjured) + " to recover");
    addMissingTokenChild(Parent, Conjured);
    ++Stats.TokensInserted;
    ++InsertionsSinceConsume;
    return ColdMatch::Inserted;
  }
  return ColdMatch::Unwind;
}

void ParserCore::reportMismatch(TokenType Expected) {
  // Errors (and any recovery that follows) depend on the dynamic follow
  // stack, not just this rule's token window: never reuse across them.
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  ++Stats.SyntaxErrors;
  const Token &T = Stream.LT(1);
  // TokenInvalid marks a token-set mismatch; name the token, not the set.
  Diags.error(T.Loc, "mismatched input '" + std::string(T.Text) +
                         "' expecting " +
                         (Expected == TokenInvalid
                              ? std::string("a different token")
                              : AG.grammar().vocabulary().name(Expected)));
}

void ParserCore::reportNoViableAlt(int32_t RuleIndex, int64_t DepthReached) {
  if (Opts.Hooks)
    Opts.Hooks->opaque();
  ++Stats.SyntaxErrors;
  // Report at the token that killed the DFA walk, not at the decision start
  // (paper Section 4.4).
  const Token &T = Stream.LT(DepthReached + 1);
  std::string RuleName =
      RuleIndex >= 0 ? AG.grammar().rule(RuleIndex).Name : "<none>";
  Diags.error(T.Loc, "no viable alternative at input '" + std::string(T.Text) +
                         "' (rule " + RuleName + ")");
}

//===----------------------------------------------------------------------===//
// Recovery
//===----------------------------------------------------------------------===//

IntervalSet ParserCore::viableAfter(int32_t State) const {
  const RecoverySets &RS = AG.recovery();
  IntervalSet V = RS.follow(State);
  // While the rule end is reachable without consuming, tokens viable at the
  // pending return sites are viable here too.
  bool Open = RS.reachesEnd(State);
  for (auto It = FollowStack.rbegin(); Open && It != FollowStack.rend();
       ++It) {
    V.addSet(RS.follow(*It));
    Open = RS.reachesEnd(*It);
  }
  if (Open)
    V.add(TokenEof);
  return V;
}

IntervalSet ParserCore::recoverySet() const {
  const RecoverySets &RS = AG.recovery();
  IntervalSet R;
  for (int32_t F : FollowStack)
    R.addSet(RS.follow(F));
  // EOF always synchronizes; with an empty invocation stack it is the only
  // member, so a top-level sync drains the input.
  R.add(TokenEof);
  return R;
}

void ParserCore::skipTokenAsError(NodeRef Parent) {
  addErrorTokenChild(Parent);
  Stream.consume();
  InsertionsSinceConsume = 0;
}

void ParserCore::syncAfterRuleFailure(NodeRef Node) {
  ++Stats.PanicSyncs;
  size_t Skipped = 0;
  // Failing twice at the same position means the recovery set itself is
  // not parsable here; force one token of progress so recovery terminates.
  if (Stream.index() == LastErrorIndex && Stream.LA(1) != TokenEof) {
    skipTokenAsError(Node);
    ++Skipped;
  }
  IntervalSet R = recoverySet();
  while (Stream.LA(1) != TokenEof && !R.contains(Stream.LA(1))) {
    skipTokenAsError(Node);
    ++Skipped;
  }
  LastErrorIndex = Stream.index();
  if (Skipped == 0) {
    // Nothing consumed: leave a zero-width marker so every reported error
    // still has at least one error leaf in the tree.
    addMarkerChild(Node);
  } else {
    Diags.note(Stream.LT(1).Loc, resyncNote(Skipped));
  }
}

bool ParserCore::recoverAtDecision(int32_t State, NodeRef Parent) {
  const RecoverySets &RS = AG.recovery();
  const IntervalSet &Here = RS.follow(State);
  IntervalSet R = recoverySet();
  size_t Skipped = 0;
  while (Stream.LA(1) != TokenEof && !Here.contains(Stream.LA(1)) &&
         !R.contains(Stream.LA(1))) {
    skipTokenAsError(Parent);
    ++Skipped;
  }
  if (Skipped) {
    ++Stats.PanicSyncs;
    Diags.note(Stream.LT(1).Loc, resyncNote(Skipped));
  }
  // Retry only when we made progress and landed on a token this decision
  // can start with; otherwise unwind to the rule-level sync.
  return Skipped > 0 && Stream.LA(1) != TokenEof &&
         Here.contains(Stream.LA(1));
}

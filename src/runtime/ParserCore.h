//===- runtime/ParserCore.h - State and policy of both engines --*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The part of the LL(*) runtime (paper Section 4) that does not depend on
/// how the parser walks states or lookahead DFAs: the rule frame with its
/// speculation-only packrat memo (Section 6.2), tree building, predicate
/// and action binding with mutators gated during speculation (Section 4.3),
/// error reporting at the deepest token reached (Section 4.4), single-token
/// repair and panic-mode resynchronization, the deadline poll and the
/// per-decision statistics.
///
/// Two engines derive from \ref ParserCore and add only their walks: the
/// interpreter \ref LLStarParser (ATN states, \ref LookaheadDfa edge lists)
/// and the compiled fast path \ref compiled::CompiledParser (flat CState
/// records, dense DFA tables, generated bodies and predictors). The member
/// templates below take the engine as their first argument and call its
/// `runBody`/`adaptivePredict` directly, so sharing adds no indirection on
/// the per-token, per-decision or per-rule paths.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RUNTIME_PARSERCORE_H
#define LLSTAR_RUNTIME_PARSERCORE_H

#include "analysis/AnalyzedGrammar.h"
#include "lexer/TokenStream.h"
#include "recover/RepairPolicy.h"
#include "runtime/Arena.h"
#include "runtime/ParseTree.h"
#include "runtime/ParserStats.h"
#include "runtime/ReuseHooks.h"
#include "runtime/SemanticEnv.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace llstar {

/// Runtime knobs for one parser instance (either engine).
struct ParserOptions {
  /// Memoize speculative sub-parses. Defaults to the grammar's `memoize`
  /// option; flip to measure the packrat ablation of Section 6.2.
  bool Memoize = true;
  /// Build a concrete parse tree during non-speculative parsing.
  bool BuildTree = true;
  /// Collect per-decision statistics (Tables 3-4).
  bool CollectStats = true;
  /// Recover from syntax errors instead of failing fast: single-token
  /// deletion and insertion at mismatched tokens (see \ref chooseRepair)
  /// and follow-set synchronization after unrecoverable failures. Recovered
  /// regions appear in the parse tree as error leaves (\ref ErrorNodeKind);
  /// \ref ParserCore::ok still reports false when any error was reported.
  bool Recover = true;
  /// When non-null, the parse tree is carved from this arena instead of
  /// one the returned \ref ParseTree owns, and no token is copied. parse()
  /// then returns null; fetch the root with \ref ParserCore::arenaTree. The
  /// arena and the token stream must outlive any use of the tree.
  Arena *TreeArena = nullptr;
  /// Absolute deadline for the parse; max() means none. Checked at decision
  /// entries and periodically along the state walk. On expiry the parse
  /// aborts with a deadline error diagnostic.
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::time_point::max();
  /// Incremental-reparse instrumentation (see runtime/ReuseHooks.h). Both
  /// engines honor it identically. Not owned; must outlive the parse.
  ReuseHooks *Hooks = nullptr;
};

/// A parse-tree attachment point: the node children are appended to, or
/// null while speculating or when tree building is off.
struct NodeRef {
  ArenaParseTree *Tree = nullptr;
  explicit operator bool() const { return Tree; }
};

/// Smallest user-defined token type in \p S, or TokenInvalid: the token
/// conjured for a single-token insertion against a set edge (the repair
/// strategy only requests insertion when one exists).
TokenType firstUserToken(const IntervalSet &S);

/// State and behavior shared by the two LL(*) engines. Not usable on its
/// own: an engine derives from it and supplies `runBody(Rule, Node)` (run
/// one rule's body) and `adaptivePredict(Decision)` (one prediction event).
class ParserCore {
public:
  /// True if the last parse() completed without syntax errors.
  bool ok() const { return LastParseOk; }

  /// Root of the last parse's tree when it was built in
  /// ParserOptions::TreeArena (null otherwise). Valid until that arena is
  /// reset.
  const ArenaParseTree *arenaTree() const { return ArenaRoot; }

  /// Nodes and error leaves of the last parse's tree, counted as it was
  /// built (spliced subtrees included), so reporting them costs no walk.
  /// They equal the root's size() and numErrorNodes().
  size_t treeNodes() const { return NumTreeNodes; }
  size_t errorLeaves() const { return NumErrorLeaves; }

  /// True if the last parse() aborted because its deadline expired.
  bool deadlineExpired() const { return DeadlineHit; }

  const ParserStats &stats() const { return Stats; }
  ParserStats &stats() { return Stats; }

  /// Outcome of the cold mismatch path (see \ref coldMismatch).
  enum class ColdMatch {
    Unwind,   ///< no repair: return false to the rule-level sync
    MatchNow, ///< a token was deleted; match the token now at the front
    Inserted  ///< the expected token was conjured; skip the match
  };

protected:
  /// \p Env may be null when the grammar has no predicates or actions.
  ParserCore(const AnalyzedGrammar &AG, TokenStream &Stream, SemanticEnv *Env,
             DiagnosticEngine &Diags, ParserOptions Opts);
  ~ParserCore() = default;

  // Rule frame ----------------------------------------------------------------

  /// Parses starting at \p RuleName (or the grammar's first rule when
  /// empty). Returns the (possibly partial) owned tree, or null when the
  /// tree went to ParserOptions::TreeArena; syntax errors go to the
  /// diagnostics engine.
  template <class Engine>
  std::unique_ptr<ParseTree> parseWith(Engine &E, const std::string &RuleName);

  /// Parses one rule invocation. \p Precedence is the argument for
  /// precedence-rewritten rules (0 = unconstrained). Returns success.
  template <class Engine>
  bool runRule(Engine &E, int32_t RuleIndex, int32_t Precedence,
               NodeRef Parent);

  /// Invokes rule \p Callee with \p Prec, keeping \p FollowState on the
  /// recovery follow stack for the duration of the call.
  template <class Engine>
  bool callRule(Engine &E, int32_t Callee, int32_t Prec, int32_t FollowState,
                NodeRef Parent) {
    FollowStack.push_back(FollowState);
    bool Ok = runRule(E, Callee, Prec, Parent);
    FollowStack.pop_back();
    return Ok;
  }

  /// Predicts at decision \p Decision (ATN state \p StateId), running the
  /// panic-mode resync + one retry on a dead prediction when recovery is
  /// on. Returns the 1-based alternative, or -1 to unwind.
  template <class Engine>
  int32_t predictAtState(Engine &E, int32_t Decision, int32_t StateId,
                         NodeRef Parent) {
    int32_t Alt = E.adaptivePredict(Decision);
    if (Alt >= 0)
      return Alt;
    // Panic recovery: drop tokens nobody can accept, then retry the
    // prediction once if the resync token is matchable right here. A
    // second failure unwinds to the rule-level sync in runRule.
    if (!canRecover() || !recoverAtDecision(StateId, Parent))
      return -1;
    return E.adaptivePredict(Decision);
  }

  /// Guards one body walk against loop decisions that iterate without
  /// consuming input (an epsilon-matching loop body): remembers the stream
  /// index at which each loop decision last chose to iterate. A rule body
  /// holds at most a few loop decisions, so a linear-scan inline array
  /// (spilling to the heap past four) replaces a hash map.
  class LoopGuard {
  public:
    /// True when loop decision \p State would iterate again at the same
    /// \p Index as its previous iteration (the caller then takes the exit
    /// alternative); otherwise records \p Index.
    bool stalled(int32_t State, int64_t Index) {
      Mark *Found = nullptr;
      for (size_t I = 0; I < NumMarks && I < 4; ++I)
        if (Inline[I].State == State)
          Found = &Inline[I];
      if (!Found)
        for (Mark &M : Spill)
          if (M.State == State)
            Found = &M;
      if (!Found) {
        if (NumMarks < 4)
          Inline[NumMarks] = {State, Index};
        else
          Spill.push_back({State, Index});
        ++NumMarks;
        return false;
      }
      if (Found->Index == Index)
        return true;
      Found->Index = Index;
      return false;
    }

  private:
    struct Mark {
      int32_t State;
      int64_t Index;
    };
    Mark Inline[4] = {};
    size_t NumMarks = 0;
    std::vector<Mark> Spill;
  };

  // Tree building ---------------------------------------------------------------

  /// Appends a rule node / the upcoming token to \p Parent (non-null).
  NodeRef addRuleChild(NodeRef Parent, int32_t RuleIndex);
  void addTokenChild(NodeRef Parent);
  /// Error-leaf variants, no-ops on a null \p Parent: the upcoming token as
  /// a Skipped leaf, a conjured \p Missing token, or a zero-width marker.
  void addErrorTokenChild(NodeRef Parent);
  void addMissingTokenChild(NodeRef Parent, TokenType Missing);
  void addMarkerChild(NodeRef Parent);
  /// Appends error leaf \p Leaf to \p Parent (non-null) and counts it.
  void addErrorLeaf(NodeRef Parent, ArenaParseTree *Leaf);

  /// The hot path after a successful Atom/Set lookahead test: records the
  /// tree child and stats, then consumes the token.
  void consumeMatched(NodeRef Parent) {
    if (Parent && !speculating())
      addTokenChild(Parent);
    if (speculating() && SpecMaxIndex < Stream.index() + 1)
      SpecMaxIndex = Stream.index() + 1;
    Stream.consume();
    ++Stats.TokensConsumed;
    InsertionsSinceConsume = 0;
  }

  // Deadline ------------------------------------------------------------------

  /// Periodic deadline poll; returns false (once per parse reporting the
  /// error) after ParserOptions::Deadline passes.
  bool deadlineOk() {
    if (NoDeadline)
      return true; // no deadline configured: the poll can never fail
    if (DeadlineHit)
      return false;
    if (--DeadlinePollCountdown > 0)
      return true;
    return deadlinePoll();
  }
  /// Slow tail of \ref deadlineOk: the countdown expired, check the clock.
  bool deadlinePoll();

  // Prediction bookkeeping ------------------------------------------------------

  /// Records one prediction event at \p Decision that started at stream
  /// index \p StartIndex and examined \p UsedK tokens. The reuse subscriber
  /// needs every decision's lookahead extent, stats on or off, speculative
  /// or not (StartIndex + max(K,1) inclusively over-approximates the
  /// deepest token examined by at most one).
  void recordDecision(int32_t Decision, int64_t StartIndex, int64_t UsedK,
                      bool Backtracked, int32_t Alt) {
    int64_t K = std::max<int64_t>(UsedK, 1);
    if (Opts.Hooks)
      Opts.Hooks->lookahead(StartIndex + K);
    if (Opts.CollectStats)
      Stats.Decisions[size_t(Decision)].record(K, Backtracked, Alt);
  }

  /// Evaluates one lookahead-DFA predicate edge via \p Eval, reached
  /// \p Depth tokens past the decision start \p StartIndex. A syntactic
  /// predicate (\p IsSyn) marks the event as backtracked and deepens
  /// \p Depth to the furthest token its speculation touched.
  template <typename EvalFn>
  bool evalPredEdge(bool IsSyn, int64_t StartIndex, int64_t &Depth,
                    bool &Backtracked, EvalFn &&Eval) {
    int64_t SpecBefore = SpecMaxIndex;
    SpecMaxIndex = StartIndex + Depth;
    bool Holds = Eval();
    int64_t Reach = SpecMaxIndex - StartIndex;
    SpecMaxIndex = std::max(SpecBefore, SpecMaxIndex);
    if (IsSyn) {
      Backtracked = true;
      Depth = std::max(Depth, Reach);
    }
    return Holds;
  }

  // Predicates and speculation --------------------------------------------------

  bool evalNamedPredicate(int32_t PredIndex);
  /// Evaluates the gating predicate \p PredIndex of a SemPred transition in
  /// rule \p RuleIndex, reporting the failure outside speculation.
  bool checkPredicate(int32_t PredIndex, int32_t RuleIndex);
  void runAction(int32_t ActionIndex);

  /// Runs \p Run as a speculative sub-parse: tree building and mutators
  /// off, the stream rewound afterwards. Returns what \p Run returned.
  template <typename Fn> bool speculate(Fn &&Run) {
    ++Stats.SynPredEvals;
    int64_t Mark = Stream.index();
    ++SpecDepth;
    bool Ok = Run();
    --SpecDepth;
    Stream.seek(Mark);
    return Ok;
  }
  template <class Engine> bool evalSynPredRule(Engine &E, int32_t Fragment) {
    return speculate([&] { return runRule(E, Fragment, 0, NodeRef()); });
  }

  bool speculating() const { return SpecDepth > 0; }

  // Errors and recovery ---------------------------------------------------------

  /// The cold path behind a failed Atom/Set match: reports the mismatch and
  /// asks the repair strategy for a single-token fix. \p Set is the label
  /// set of a Set transition, or null for an Atom transition on \p Label;
  /// \p Follow is the transition's target state.
  ColdMatch coldMismatch(TokenType Label, const IntervalSet *Set,
                         int32_t Follow, NodeRef Parent);

  void reportMismatch(TokenType Expected);
  /// Reports a dead prediction in rule \p RuleIndex at the token that
  /// killed the DFA walk, \p DepthReached tokens ahead.
  void reportNoViableAlt(int32_t RuleIndex, int64_t DepthReached);

  /// Recovery is active only for real (non-speculative) parsing.
  bool canRecover() const {
    return Opts.Recover && !speculating() && !DeadlineHit;
  }

  /// Terminals that can follow a single conjured token at \p State: the
  /// static follow set of \p State, chained through the dynamic invocation
  /// stack while rule ends are reachable (plus EOF if the whole stack is).
  IntervalSet viableAfter(int32_t State) const;
  /// The panic-mode synchronization set: the union of the follow sets at
  /// every return site on the dynamic invocation stack, plus EOF.
  IntervalSet recoverySet() const;

  /// Consumes the offending token as a Skipped error leaf.
  void skipTokenAsError(NodeRef Parent);
  /// Sync-and-return after a failed rule body: consumes to \ref recoverySet
  /// as error leaves under \p Node (a zero-width marker when nothing is
  /// consumed), with a force-consume of one token when no progress was made
  /// since the previous sync (termination guard).
  void syncAfterRuleFailure(NodeRef Node);
  /// Panic recovery at a failed prediction: consumes tokens that neither
  /// the decision nor the invocation stack can accept. Returns true when
  /// the decision is worth retrying (progress was made and the next token
  /// is matchable here).
  bool recoverAtDecision(int32_t State, NodeRef Parent);

  // Memoization (speculative rule parses only) ----------------------------------

  /// Packed memo key for (rule, precedence, start index).
  static uint64_t memoKey(int32_t Rule, int32_t Precedence, int64_t Start) {
    return (uint64_t(uint32_t(Rule)) << 40) ^
           (uint64_t(uint32_t(Precedence)) << 56) ^ uint64_t(Start);
  }

  const AnalyzedGrammar &AG;
  TokenStream &Stream;
  SemanticEnv *Env;
  DiagnosticEngine &Diags;
  ParserOptions Opts;
  ParserStats Stats;

  /// Follow states of the active rule invocations (innermost last); the
  /// dynamic counterpart of the paper's rule-invocation stack, consulted by
  /// \ref viableAfter and \ref recoverySet.
  std::vector<int32_t> FollowStack;
  /// Stream index of the previous sync-and-return; failing again there
  /// forces one token of progress.
  int64_t LastErrorIndex = -1;
  /// Conjured tokens since the last real consume; caps runaway insertion.
  int32_t InsertionsSinceConsume = 0;

  int32_t SpecDepth = 0;
  /// Highest stream index touched during the current speculation cascade;
  /// feeds the "backtracking lookahead depth" statistic.
  int64_t SpecMaxIndex = 0;
  /// Precedence arguments of active precedence-rule invocations.
  std::vector<int32_t> PrecStack;
  /// memoKey -> stop index (or -1 for remembered failure).
  std::unordered_map<uint64_t, int64_t> Memo;
  /// Predicate/action names already reported as unbound (warn once).
  std::unordered_set<std::string> ReportedUnbound;
  bool LastParseOk = false;
  /// The arena this parse builds into: ParserOptions::TreeArena, or the
  /// returned ParseTree's own.
  Arena *NodeArena = nullptr;
  ArenaParseTree *ArenaRoot = nullptr;
  /// Nodes and error leaves created or spliced by the current parse.
  /// Speculation builds no nodes, so nothing needs rolling back.
  size_t NumTreeNodes = 0;
  size_t NumErrorLeaves = 0;
  /// ParserOptions::Deadline is max(): \ref deadlineOk never polls.
  bool NoDeadline = false;
  bool DeadlineHit = false;
  /// Countdown between clock reads so deadline polling stays off the
  /// per-state fast path.
  int32_t DeadlinePollCountdown = DeadlinePollInterval;
  static constexpr int32_t DeadlinePollInterval = 256;

private:
  /// parse() prologue: resolves the start rule (reporting an unknown one
  /// and returning -1), resets per-parse state and creates the root node,
  /// in \p Result unless the caller supplied an arena.
  int32_t beginParse(const std::string &RuleName,
                     std::unique_ptr<ParseTree> &Result, NodeRef &Root);
};

template <class Engine>
std::unique_ptr<ParseTree> ParserCore::parseWith(Engine &E,
                                                 const std::string &RuleName) {
  std::unique_ptr<ParseTree> Result;
  NodeRef Root;
  int32_t Rule = beginParse(RuleName, Result, Root);
  if (Rule < 0)
    return nullptr;
  unsigned ErrorsBefore = Diags.errorCount();
  bool Ok = E.runBody(Rule, Root);
  if (!Ok && canRecover()) {
    // Top-level sync: the invocation stack is empty, so the recovery set is
    // {EOF} and this drains the remaining input as error leaves.
    syncAfterRuleFailure(Root);
    Ok = true;
  }
  LastParseOk = Ok && Diags.errorCount() == ErrorsBefore;
#ifndef NDEBUG
  // Cross-check the counters against the walk they replace.
  if (const ArenaParseTree *Built = Result ? Result->root() : ArenaRoot) {
    assert(NumTreeNodes == Built->size() && "tree node count drifted");
    assert(NumErrorLeaves == Built->numErrorNodes() &&
           "error leaf count drifted");
  }
#endif
  return Result;
}

template <class Engine>
bool ParserCore::runRule(Engine &E, int32_t RuleIndex, int32_t Precedence,
                         NodeRef Parent) {
  // Memoize speculative whole-rule parses (packrat memoization; only while
  // speculating, per paper Section 6.2).
  uint64_t Key = 0;
  bool UseMemo = speculating() && Opts.Memoize;
  if (UseMemo) {
    Key = memoKey(RuleIndex, Precedence, Stream.index());
    auto It = Memo.find(Key);
    if (It != Memo.end()) {
      ++Stats.MemoHits;
      if (It->second < 0)
        return false;
      Stream.seek(It->second);
      if (SpecMaxIndex < It->second)
        SpecMaxIndex = It->second;
      return true;
    }
    ++Stats.MemoMisses;
  }

  // Incremental reparse: splice a recorded subtree instead of running the
  // body when the subscriber vouches for it (see runtime/ReuseHooks.h).
  if (Opts.Hooks && !speculating() && Parent) {
    ReuseHooks::Splice Sp;
    if (Opts.Hooks->tryReuse(RuleIndex, Precedence, Stream.index(), Sp)) {
      Parent.Tree->addChild(Sp.Node);
      NumTreeNodes += Sp.NumNodes;
      Stream.seek(Sp.NextIndex);
      InsertionsSinceConsume = 0;
      ++Stats.NodesReused;
      return true;
    }
  }

  NodeRef Node;
  if (Parent && !speculating())
    Node = addRuleChild(Parent, RuleIndex);

  bool Hooked = Opts.Hooks && !speculating();
  if (Hooked)
    Opts.Hooks->enterRule(RuleIndex, Precedence, Stream.index());

  bool IsPrecedenceRule = AG.grammar().rule(RuleIndex).IsPrecedenceRule;
  if (IsPrecedenceRule)
    PrecStack.push_back(Precedence);
  bool Ok = E.runBody(RuleIndex, Node);
  if (IsPrecedenceRule)
    PrecStack.pop_back();

  if (!Ok && canRecover()) {
    // Sync-and-return: pretend the rule completed, resynchronizing the
    // input to a token some caller can match. The error was already
    // reported; the skipped region survives as error leaves under Node.
    syncAfterRuleFailure(Node);
    Ok = true;
  }

  if (Hooked)
    Opts.Hooks->exitRule(RuleIndex, Stream.index(), Node.Tree);

  if (UseMemo)
    Memo[Key] = Ok ? Stream.index() : -1;
  return Ok;
}

} // namespace llstar

#endif // LLSTAR_RUNTIME_PARSERCORE_H

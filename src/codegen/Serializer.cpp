#include "codegen/Serializer.h"

#include "support/StringUtils.h"

#include <cctype>
#include <cstdint>
#include <cstring>
#include <sstream>

using namespace llstar;

namespace {

constexpr const char *Magic = "llstar1";

/// Space-separated writer; strings are written length-prefixed
/// (`<len>:<bytes>`) so arbitrary content round-trips.
class Writer {
public:
  void word(const std::string &W) {
    Out += W;
    Out += ' ';
  }
  void num(int64_t V) { word(std::to_string(V)); }
  void str(const std::string &S) {
    Out += std::to_string(S.size());
    Out += ':';
    Out += S;
    Out += ' ';
  }
  void nl() { Out += '\n'; }

  std::string Out;
};

/// Matching reader. All methods report once and go inert on error.
class Reader {
public:
  Reader(std::string_view Text, DiagnosticEngine &Diags)
      : Text(Text), Diags(Diags) {}

  bool failed() const { return Failed; }

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  /// Parses a decimal integer without std::stoll: hostile bundles contain
  /// digit runs that overflow (stoll would throw) or bare signs (stoll
  /// would throw invalid_argument). Overflow is a clean failure here.
  int64_t num() {
    skipWs();
    bool Negative = false;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+')) {
      Negative = Text[Pos] == '-';
      ++Pos;
    }
    int64_t Value = 0;
    bool AnyDigits = false, Overflow = false;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos]))) {
      AnyDigits = true;
      int Digit = Text[Pos] - '0';
      if (Value > (INT64_MAX - Digit) / 10)
        Overflow = true;
      else
        Value = Value * 10 + Digit;
      ++Pos;
    }
    if (!AnyDigits)
      return fail("expected a number");
    if (Overflow)
      return fail("number out of range");
    return Negative ? -Value : Value;
  }

  std::string str() {
    int64_t Len = num();
    if (Failed || Len < 0)
      return "";
    if (Pos >= Text.size() || Text[Pos] != ':') {
      fail("expected ':' in string");
      return "";
    }
    ++Pos;
    if (Pos + size_t(Len) > Text.size()) {
      fail("truncated string");
      return "";
    }
    std::string S(Text.substr(Pos, size_t(Len)));
    Pos += size_t(Len);
    return S;
  }

  bool word(const char *Expected) {
    skipWs();
    size_t Len = std::strlen(Expected);
    if (Text.compare(Pos, Len, Expected) != 0) {
      fail(std::string("expected '") + Expected + "'");
      return false;
    }
    Pos += Len;
    return true;
  }

  int64_t fail(const std::string &Message) {
    if (!Failed)
      Diags.error("compiled grammar: " + Message + " at offset " +
                  std::to_string(Pos));
    Failed = true;
    return 0;
  }

private:
  std::string_view Text;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  bool Failed = false;
};

/// Structural bounds-checks over freshly deserialized tables. Without
/// these a mangled payload can decode "cleanly" and then index out of
/// bounds at parse time; every table reference the runtime follows is
/// checked here instead.
bool validateTables(const Grammar &G, const Atn &M, int64_t NumActions,
                    const std::vector<std::unique_ptr<LookaheadDfa>> &Dfas,
                    const std::vector<regex::CharDfaState> &LexStates,
                    size_t NumLexTags, DiagnosticEngine &Diags) {
  auto Bad = [&Diags](const std::string &Message) {
    Diags.error("compiled grammar: invalid tables: " + Message);
    return false;
  };

  const int64_t NumStates = int64_t(M.numStates());
  const int64_t NumRules = int64_t(G.numRules());
  const int64_t NumPreds = int64_t(M.numPredicates());
  const int64_t NumDecisions = int64_t(M.numDecisions());

  if (NumRules == 0)
    return Bad("grammar has no rules");
  if (M.eofState() < 0 || M.eofState() >= NumStates)
    return Bad("EOF state out of range");

  for (int64_t S = 0; S < NumStates; ++S) {
    const AtnState &St = M.state(int32_t(S));
    if (St.Kind > AtnStateKind::LoopEnd)
      return Bad("state " + std::to_string(S) + " has unknown kind");
    if (St.RuleIndex < -1 || St.RuleIndex >= NumRules)
      return Bad("state " + std::to_string(S) + " rule index out of range");
    if (St.EndState < -1 || St.EndState >= NumStates)
      return Bad("state " + std::to_string(S) + " end state out of range");
    for (const AtnTransition &T : St.Transitions) {
      if (T.Kind > AtnTransitionKind::Action)
        return Bad("state " + std::to_string(S) +
                   " transition has unknown kind");
      if (T.Target < 0 || T.Target >= NumStates)
        return Bad("state " + std::to_string(S) +
                   " transition target out of range");
      if (T.Kind == AtnTransitionKind::Rule &&
          (T.RuleIndex < 0 || T.RuleIndex >= NumRules ||
           T.FollowState < 0 || T.FollowState >= NumStates))
        return Bad("state " + std::to_string(S) +
                   " rule transition out of range");
      if (T.Kind == AtnTransitionKind::SynPred &&
          (T.RuleIndex < 0 || T.RuleIndex >= NumRules))
        return Bad("state " + std::to_string(S) +
                   " synpred transition out of range");
      if (T.Kind == AtnTransitionKind::SemPred &&
          (T.PredIndex < 0 || T.PredIndex >= NumPreds))
        return Bad("state " + std::to_string(S) +
                   " predicate index out of range");
      if (T.Kind == AtnTransitionKind::Action &&
          (T.ActionIndex < 0 || T.ActionIndex >= NumActions))
        return Bad("state " + std::to_string(S) +
                   " action index out of range");
    }
  }

  for (int64_t Rl = 0; Rl < NumRules; ++Rl) {
    if (M.ruleStart(int32_t(Rl)) < 0 || M.ruleStart(int32_t(Rl)) >= NumStates ||
        M.ruleStop(int32_t(Rl)) < 0 || M.ruleStop(int32_t(Rl)) >= NumStates)
      return Bad("rule " + std::to_string(Rl) +
                 " start/stop state out of range");
  }

  /// 1-based alternative count of decision \p D (0 when invalid).
  auto DecisionAlts = [&](int64_t D) -> int64_t {
    int32_t State = M.decisionState(int32_t(D));
    if (State < 0 || State >= NumStates)
      return 0;
    return int64_t(M.state(State).Transitions.size());
  };

  for (int64_t D = 0; D < NumDecisions; ++D) {
    int32_t State = M.decisionState(int32_t(D));
    if (State < 0 || State >= NumStates)
      return Bad("decision " + std::to_string(D) + " state out of range");
    const AtnState &St = M.state(State);
    if (St.Transitions.empty())
      return Bad("decision " + std::to_string(D) + " has no alternatives");
    // evalSynPredAlt speculates from the decision to its end state.
    if (St.EndState < 0)
      return Bad("decision " + std::to_string(D) + " lacks an end state");
  }

  for (size_t D = 0; D < Dfas.size(); ++D) {
    const LookaheadDfa &Dfa = *Dfas[D];
    const int64_t N = int64_t(Dfa.numStates());
    const int64_t Alts = DecisionAlts(int64_t(D));
    for (int64_t S = 0; S < N; ++S) {
      const DfaState &St = Dfa.state(int32_t(S));
      if (St.PredictedAlt > Alts)
        return Bad("DFA " + std::to_string(D) +
                   " predicts a nonexistent alternative");
      for (const DfaEdge &E : St.Edges)
        if (E.Target < -1 || E.Target >= N)
          return Bad("DFA " + std::to_string(D) + " edge target out of range");
      for (const DfaPredEdge &E : St.PredEdges) {
        if (E.Target < -1 || E.Target >= N)
          return Bad("DFA " + std::to_string(D) +
                     " predicate edge target out of range");
        if (E.Alt < 1 || E.Alt > Alts)
          return Bad("DFA " + std::to_string(D) +
                     " predicate edge alternative out of range");
        switch (E.Pred.K) {
        case SemanticContext::Kind::None:
          break;
        case SemanticContext::Kind::Pred:
          if (E.Pred.A < 0 || E.Pred.A >= NumPreds)
            return Bad("DFA " + std::to_string(D) +
                       " predicate index out of range");
          break;
        case SemanticContext::Kind::SynPredRule:
          if (E.Pred.A < 0 || E.Pred.A >= NumRules)
            return Bad("DFA " + std::to_string(D) +
                       " synpred fragment rule out of range");
          break;
        case SemanticContext::Kind::SynPredAlt:
          if (E.Pred.A < 0 || E.Pred.A >= NumDecisions || E.Pred.B < 1 ||
              E.Pred.B > DecisionAlts(E.Pred.A))
            return Bad("DFA " + std::to_string(D) +
                       " synpred alternative out of range");
          break;
        default:
          return Bad("DFA " + std::to_string(D) +
                     " has an unknown predicate kind");
        }
      }
    }
  }

  const int64_t NumLexStates = int64_t(LexStates.size());
  for (int64_t S = 0; S < NumLexStates; ++S) {
    const regex::CharDfaState &St = LexStates[size_t(S)];
    if (St.AcceptTag < -1 || St.AcceptTag >= int64_t(NumLexTags))
      return Bad("lexer state " + std::to_string(S) +
                 " accept tag out of range");
    for (int32_t Next : St.Next)
      if (Next < -1 || Next >= NumLexStates)
        return Bad("lexer state " + std::to_string(S) +
                   " transition out of range");
  }

  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string llstar::serializeGrammar(const AnalyzedGrammar &AG) {
  const Grammar &G = AG.grammar();
  const Atn &M = AG.atn();
  Writer W;

  W.word(Magic);
  W.str(G.Name);
  W.num(G.startRule());
  W.num(G.Options.Backtrack);
  W.num(G.Options.Memoize);
  W.num(G.Options.MaxRecursionDepth);
  W.num(G.Options.MaxDfaStates);
  W.nl();

  // Vocabulary, in token-type order so getOrDefine reassigns identically.
  const Vocabulary &V = G.vocabulary();
  W.word("vocab");
  W.num(int64_t(V.size()));
  for (TokenType T = TokenMinUserType; T <= V.maxTokenType(); ++T) {
    W.str(V.name(T));
    W.num(V.isLiteral(T));
  }
  W.nl();

  // Rule table: names and runtime-relevant flags only.
  W.word("rules");
  W.num(int64_t(G.numRules()));
  for (const Rule &R : G.rules()) {
    W.str(R.Name);
    W.num(R.IsSynPredFragment);
    W.num(R.IsPrecedenceRule);
  }
  W.nl();

  // Predicate and action tables.
  W.word("preds");
  W.num(int64_t(M.numPredicates()));
  for (size_t I = 0; I < M.numPredicates(); ++I) {
    W.str(M.predicate(int32_t(I)).Name);
    W.num(M.predicate(int32_t(I)).MinPrecedence);
  }
  W.nl();
  W.word("acts");
  int64_t NumActions = 0;
  {
    // Atn has no numActions(); count by probing is unsafe — walk
    // transitions instead.
    int32_t MaxAction = -1;
    for (size_t S = 0; S < M.numStates(); ++S)
      for (const AtnTransition &T : M.state(int32_t(S)).Transitions)
        if (T.Kind == AtnTransitionKind::Action)
          MaxAction = std::max(MaxAction, T.ActionIndex);
    NumActions = MaxAction + 1;
  }
  W.num(NumActions);
  for (int32_t I = 0; I < NumActions; ++I) {
    W.str(M.action(I).Name);
    W.num(M.action(I).Always);
  }
  W.nl();

  // ATN: states, transitions, rule start/stop arrays, decisions.
  W.word("atn");
  W.num(int64_t(M.numStates()));
  W.num(M.eofState());
  W.nl();
  for (size_t S = 0; S < M.numStates(); ++S) {
    const AtnState &State = M.state(int32_t(S));
    W.num(int64_t(State.Kind));
    W.num(State.RuleIndex);
    W.num(State.EndState);
    W.num(int64_t(State.Transitions.size()));
    for (const AtnTransition &T : State.Transitions) {
      W.num(int64_t(T.Kind));
      W.num(T.Target);
      W.num(T.Label);
      W.num(T.RuleIndex);
      W.num(T.FollowState);
      W.num(T.Precedence);
      W.num(T.PredIndex);
      W.num(T.ActionIndex);
      W.num(int64_t(T.Labels.intervals().size()));
      for (const Interval &I : T.Labels.intervals()) {
        W.num(I.Lo);
        W.num(I.Hi);
      }
    }
    W.nl();
  }
  W.word("rulestates");
  for (size_t R = 0; R < G.numRules(); ++R) {
    W.num(M.ruleStart(int32_t(R)));
    W.num(M.ruleStop(int32_t(R)));
  }
  W.nl();
  W.word("decisions");
  W.num(int64_t(M.numDecisions()));
  for (size_t D = 0; D < M.numDecisions(); ++D)
    W.num(M.decisionState(int32_t(D)));
  W.nl();

  // Lookahead DFAs.
  W.word("dfas");
  W.num(int64_t(AG.numDecisions()));
  W.nl();
  for (size_t D = 0; D < AG.numDecisions(); ++D) {
    const LookaheadDfa &Dfa = AG.dfa(int32_t(D));
    W.num(int64_t(Dfa.numStates()));
    W.num(Dfa.usedFallback());
    W.num(Dfa.overflowed());
    for (size_t S = 0; S < Dfa.numStates(); ++S) {
      const DfaState &St = Dfa.state(int32_t(S));
      W.num(St.PredictedAlt);
      W.num(int64_t(St.Edges.size()));
      for (const DfaEdge &E : St.Edges) {
        W.num(E.Label);
        W.num(E.Target);
      }
      W.num(int64_t(St.PredEdges.size()));
      for (const DfaPredEdge &E : St.PredEdges) {
        W.num(int64_t(E.Pred.K));
        W.num(E.Pred.A);
        W.num(E.Pred.B);
        W.num(E.Alt);
        W.num(E.Target);
      }
    }
    W.nl();
  }

  // Compiled lexer tables (sparse edge encoding).
  const Lexer &L = AG.lexer();
  W.word("lexer");
  W.num(int64_t(L.dfa().size()));
  W.nl();
  for (const regex::CharDfaState &St : L.dfa().states()) {
    W.num(St.AcceptTag);
    int Edges = 0;
    for (int C = 0; C < 256; ++C)
      Edges += St.Next[size_t(C)] >= 0;
    W.num(Edges);
    for (int C = 0; C < 256; ++C)
      if (St.Next[size_t(C)] >= 0) {
        W.num(C);
        W.num(St.Next[size_t(C)]);
      }
    W.nl();
  }
  W.word("lexertags");
  W.num(int64_t(L.actions().size()));
  for (size_t I = 0; I < L.actions().size(); ++I) {
    W.num(int64_t(L.actions()[I]));
    W.num(L.types()[I]);
  }
  W.nl();

  // Per-ATN-state recovery tables (follow sets + end reachability), one
  // state per line: <reachesEnd> <numIntervals> {<lo> <hi>}...
  const RecoverySets &RS = AG.recovery();
  W.word("recover");
  W.num(int64_t(RS.numStates()));
  W.nl();
  for (size_t S = 0; S < RS.numStates(); ++S) {
    W.num(RS.reachesEnd(int32_t(S)) ? 1 : 0);
    const IntervalSet &F = RS.follow(int32_t(S));
    W.num(int64_t(F.intervals().size()));
    for (const Interval &I : F.intervals()) {
      W.num(I.Lo);
      W.num(I.Hi);
    }
    W.nl();
  }

  W.word("end");
  W.nl();
  return W.Out;
}

//===----------------------------------------------------------------------===//
// Deserialization
//===----------------------------------------------------------------------===//

std::unique_ptr<AnalyzedGrammar>
llstar::deserializeGrammar(std::string_view Text, DiagnosticEngine &Diags) {
  Reader R(Text, Diags);
  if (!R.word(Magic))
    return nullptr;

  auto G = std::make_unique<Grammar>();
  G->Name = R.str();
  int32_t StartRule = int32_t(R.num());
  G->Options.Backtrack = R.num() != 0;
  G->Options.Memoize = R.num() != 0;
  G->Options.MaxRecursionDepth = int32_t(R.num());
  G->Options.MaxDfaStates = int32_t(R.num());

  if (!R.word("vocab"))
    return nullptr;
  int64_t NumTokens = R.num();
  for (int64_t I = 0; I < NumTokens && !R.failed(); ++I) {
    std::string Name = R.str();
    bool Literal = R.num() != 0;
    if (Literal && (Name.size() < 2 || Name.front() != '\'' ||
                    Name.back() != '\'')) {
      R.fail("literal token name lost its quotes");
      break;
    }
    G->vocabulary().getOrDefine(Name, Literal);
  }

  if (!R.word("rules"))
    return nullptr;
  int64_t NumRules = R.num();
  for (int64_t I = 0; I < NumRules && !R.failed(); ++I) {
    std::string Name = R.str();
    if (G->findRule(Name) >= 0) {
      R.fail("duplicate rule name");
      break;
    }
    int32_t Index = G->addRule(Name);
    G->rule(Index).IsSynPredFragment = R.num() != 0;
    G->rule(Index).IsPrecedenceRule = R.num() != 0;
  }
  if (StartRule >= 0 && StartRule < int32_t(G->numRules()))
    G->setStartRule(StartRule);

  auto M = std::make_unique<Atn>(*G);

  if (!R.word("preds"))
    return nullptr;
  int64_t NumPreds = R.num();
  for (int64_t I = 0; I < NumPreds && !R.failed(); ++I) {
    AtnPredicate P;
    P.Name = R.str();
    P.MinPrecedence = int32_t(R.num());
    M->addPredicate(std::move(P));
  }
  if (!R.word("acts"))
    return nullptr;
  int64_t NumActs = R.num();
  for (int64_t I = 0; I < NumActs && !R.failed(); ++I) {
    AtnAction A;
    A.Name = R.str();
    A.Always = R.num() != 0;
    M->addAction(std::move(A));
  }

  if (!R.word("atn"))
    return nullptr;
  int64_t NumStates = R.num();
  M->setEofState(int32_t(R.num()));
  for (int64_t S = 0; S < NumStates && !R.failed(); ++S) {
    AtnStateKind Kind = AtnStateKind(R.num());
    int32_t RuleIndex = int32_t(R.num());
    int32_t Id = M->addState(Kind, RuleIndex);
    M->state(Id).EndState = int32_t(R.num());
    int64_t NumTrans = R.num();
    for (int64_t T = 0; T < NumTrans && !R.failed(); ++T) {
      AtnTransition Tr;
      Tr.Kind = AtnTransitionKind(R.num());
      Tr.Target = int32_t(R.num());
      Tr.Label = TokenType(R.num());
      Tr.RuleIndex = int32_t(R.num());
      Tr.FollowState = int32_t(R.num());
      Tr.Precedence = int32_t(R.num());
      Tr.PredIndex = int32_t(R.num());
      Tr.ActionIndex = int32_t(R.num());
      // finalize() below indexes CallSites by the rule of every Rule
      // transition, so that field cannot wait for the post-pass checks.
      if (Tr.Kind == AtnTransitionKind::Rule &&
          (Tr.RuleIndex < 0 || Tr.RuleIndex >= int32_t(G->numRules()))) {
        R.fail("rule transition index out of range");
        break;
      }
      int64_t NumIntervals = R.num();
      for (int64_t I = 0; I < NumIntervals && !R.failed(); ++I) {
        int32_t Lo = int32_t(R.num());
        int32_t Hi = int32_t(R.num());
        Tr.Labels.add(Lo, Hi);
      }
      M->state(Id).Transitions.push_back(std::move(Tr));
    }
  }
  if (!R.word("rulestates"))
    return nullptr;
  M->ruleStarts().resize(G->numRules());
  M->ruleStops().resize(G->numRules());
  for (size_t I = 0; I < G->numRules() && !R.failed(); ++I) {
    M->ruleStarts()[I] = int32_t(R.num());
    M->ruleStops()[I] = int32_t(R.num());
  }
  if (!R.word("decisions"))
    return nullptr;
  int64_t NumDecisions = R.num();
  for (int64_t D = 0; D < NumDecisions && !R.failed(); ++D) {
    int64_t StateId = R.num();
    // addDecision writes through this index; check before, not in the
    // post-pass.
    if (StateId < 0 || StateId >= int64_t(M->numStates())) {
      R.fail("decision state out of range");
      break;
    }
    M->addDecision(int32_t(StateId));
  }
  if (R.failed())
    return nullptr;
  M->finalize();

  if (!R.word("dfas"))
    return nullptr;
  int64_t NumDfas = R.num();
  if (NumDfas != NumDecisions) {
    R.fail("decision/DFA count mismatch");
    return nullptr;
  }
  std::vector<std::unique_ptr<LookaheadDfa>> Dfas;
  for (int64_t D = 0; D < NumDfas && !R.failed(); ++D) {
    auto Dfa = std::make_unique<LookaheadDfa>(int32_t(D));
    int64_t N = R.num();
    if (R.num() != 0)
      Dfa->setUsedFallback();
    if (R.num() != 0)
      Dfa->setOverflowed();
    for (int64_t S = 0; S < N && !R.failed(); ++S) {
      int32_t Id = Dfa->addState();
      DfaState &St = Dfa->state(Id);
      St.PredictedAlt = int32_t(R.num());
      int64_t NumEdges = R.num();
      for (int64_t E = 0; E < NumEdges && !R.failed(); ++E) {
        DfaEdge Edge;
        Edge.Label = TokenType(R.num());
        Edge.Target = int32_t(R.num());
        // Checked here, not in the post-pass: finish() below walks these
        // targets, so a corrupt index must be caught before it runs.
        if (Edge.Target < 0 || int64_t(Edge.Target) >= N) {
          R.fail("DFA edge target out of range");
          break;
        }
        St.Edges.push_back(Edge);
      }
      int64_t NumPredEdges = R.num();
      for (int64_t E = 0; E < NumPredEdges && !R.failed(); ++E) {
        DfaPredEdge Edge;
        Edge.Pred.K = SemanticContext::Kind(R.num());
        Edge.Pred.A = int32_t(R.num());
        Edge.Pred.B = int32_t(R.num());
        Edge.Alt = int32_t(R.num());
        Edge.Target = int32_t(R.num());
        if (Edge.Target < -1 || int64_t(Edge.Target) >= N) {
          R.fail("DFA predicate-edge target out of range");
          break;
        }
        St.PredEdges.push_back(Edge);
      }
    }
    if (R.failed())
      break;
    Dfa->finish();
    Dfas.push_back(std::move(Dfa));
  }

  if (!R.word("lexer"))
    return nullptr;
  int64_t NumLexStates = R.num();
  std::vector<regex::CharDfaState> LexStates;
  for (int64_t S = 0; S < NumLexStates && !R.failed(); ++S) {
    regex::CharDfaState St;
    St.AcceptTag = int32_t(R.num());
    int64_t NumEdges = R.num();
    for (int64_t E = 0; E < NumEdges && !R.failed(); ++E) {
      int64_t C = R.num();
      int64_t Target = R.num();
      if (C < 0 || C > 255) {
        R.fail("lexer edge byte out of range");
        break;
      }
      St.Next[size_t(C)] = int32_t(Target);
    }
    LexStates.push_back(St);
  }
  if (!R.word("lexertags"))
    return nullptr;
  int64_t NumTags = R.num();
  std::vector<LexerAction> Actions;
  std::vector<TokenType> Types;
  for (int64_t I = 0; I < NumTags && !R.failed(); ++I) {
    int64_t Action = R.num();
    if (Action < 0 || Action > int64_t(LexerAction::Skip)) {
      R.fail("lexer action out of range");
      break;
    }
    Actions.push_back(LexerAction(Action));
    Types.push_back(TokenType(R.num()));
  }

  if (!R.word("recover"))
    return nullptr;
  int64_t NumRecStates = R.num();
  if (!R.failed() && NumRecStates != int64_t(M->numStates()))
    R.fail("recovery table size does not match the ATN");
  std::vector<IntervalSet> Follow;
  std::vector<uint8_t> ReachesEnd;
  const int64_t MaxTok = int64_t(G->vocabulary().maxTokenType());
  for (int64_t S = 0; S < NumRecStates && !R.failed(); ++S) {
    int64_t End = R.num();
    if (End != 0 && End != 1) {
      R.fail("recovery end-reachability flag out of range");
      break;
    }
    ReachesEnd.push_back(uint8_t(End));
    int64_t NumIntervals = R.num();
    IntervalSet F;
    for (int64_t I = 0; I < NumIntervals && !R.failed(); ++I) {
      int64_t Lo = R.num();
      int64_t Hi = R.num();
      if (Lo > Hi || Lo < int64_t(TokenEof) || Hi > MaxTok) {
        R.fail("recovery follow interval out of range");
        break;
      }
      F.add(int32_t(Lo), int32_t(Hi));
    }
    Follow.push_back(std::move(F));
  }

  if (!R.word("end") || R.failed())
    return nullptr;

  if (!validateTables(*G, *M, NumActs, Dfas, LexStates, Actions.size(),
                      Diags))
    return nullptr;

  return AnalyzedGrammar::fromParts(
      std::move(G), std::move(M), std::move(Dfas),
      Lexer(regex::CharDfa::fromTables(std::move(LexStates)),
            std::move(Actions), std::move(Types)),
      RecoverySets::fromTables(std::move(Follow), std::move(ReachesEnd)));
}

//===----------------------------------------------------------------------===//
// Bundle container
//===----------------------------------------------------------------------===//

namespace {
constexpr const char *BundleMagic = "llstarbundle";
/// The analysis word v3 headers carry after the payload hash.
constexpr const char *BundleAnalysis = "llstar";
} // namespace

std::string llstar::writeBundle(const AnalyzedGrammar &AG) {
  std::string Payload = serializeGrammar(AG);
  std::string Out = BundleMagic;
  Out += ' ';
  Out += std::to_string(BundleFormatVersion);
  Out += ' ';
  Out += std::to_string(Payload.size());
  Out += ' ';
  Out += std::to_string(hashBytes(Payload));
  Out += ' ';
  Out += BundleAnalysis;
  Out += '\n';
  Out += Payload;
  return Out;
}

bool llstar::looksLikeBundle(std::string_view Bytes) {
  return Bytes.substr(0, std::strlen(BundleMagic)) == BundleMagic;
}

std::unique_ptr<AnalyzedGrammar> llstar::readBundle(std::string_view Bytes,
                                                    DiagnosticEngine &Diags) {
  if (!looksLikeBundle(Bytes)) {
    Diags.error("not a grammar bundle (missing 'llstarbundle' header)");
    return nullptr;
  }
  size_t HeaderEnd = Bytes.find('\n');
  if (HeaderEnd == std::string_view::npos) {
    Diags.error("truncated bundle: header line is incomplete");
    return nullptr;
  }

  // Header fields: version, payload size, payload hash — all decimal —
  // plus, in v3, the analysis word.
  std::string_view Header = Bytes.substr(
      std::strlen(BundleMagic), HeaderEnd - std::strlen(BundleMagic));
  uint64_t Fields[3] = {0, 0, 0};
  std::string AnalysisWord;
  {
    size_t P = 0;
    for (uint64_t &F : Fields) {
      while (P < Header.size() && Header[P] == ' ')
        ++P;
      bool Any = false, Overflow = false;
      while (P < Header.size() && Header[P] >= '0' && Header[P] <= '9') {
        uint64_t Digit = uint64_t(Header[P] - '0');
        if (F > (UINT64_MAX - Digit) / 10)
          Overflow = true;
        else
          F = F * 10 + Digit;
        Any = true;
        ++P;
      }
      if (!Any || Overflow) {
        Diags.error("malformed bundle header");
        return nullptr;
      }
    }
    while (P < Header.size() && Header[P] == ' ')
      ++P;
    size_t WordEnd = P;
    while (WordEnd < Header.size() && Header[WordEnd] != ' ')
      ++WordEnd;
    AnalysisWord = std::string(Header.substr(P, WordEnd - P));
    P = WordEnd;
    while (P < Header.size() && Header[P] == ' ')
      ++P;
    if (P != Header.size()) {
      Diags.error("malformed bundle header");
      return nullptr;
    }
  }

  // v2 headers end at the hash; v3 appends the analysis word. Everything
  // else is from the future.
  if (int64_t(Fields[0]) != 2 && int64_t(Fields[0]) != BundleFormatVersion) {
    Diags.error("unsupported bundle format version " +
                std::to_string(Fields[0]) + " (this build reads versions 2-" +
                std::to_string(BundleFormatVersion) + ")");
    return nullptr;
  }
  if ((Fields[0] == 2) != AnalysisWord.empty()) {
    Diags.error("malformed bundle header");
    return nullptr;
  }
  if (AnalysisWord == "llfinite") {
    Diags.error("bundle was built by the removed 'llfinite' analysis "
                "backend; recompile it from the grammar with llstar compile");
    return nullptr;
  }
  if (!AnalysisWord.empty() && AnalysisWord != BundleAnalysis) {
    Diags.error("bundle names unknown analysis backend '" + AnalysisWord +
                "' (this build knows: " + BundleAnalysis + ")");
    return nullptr;
  }
  std::string_view Payload = Bytes.substr(HeaderEnd + 1);
  if (Payload.size() != Fields[1]) {
    Diags.error("corrupt bundle: payload is " +
                std::to_string(Payload.size()) +
                " bytes but the header declares " + std::to_string(Fields[1]));
    return nullptr;
  }
  if (hashBytes(Payload) != Fields[2]) {
    Diags.error("corrupt bundle: payload hash mismatch");
    return nullptr;
  }
  return deserializeGrammar(Payload, Diags);
}

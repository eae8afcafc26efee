#include "fuzz/SentenceGen.h"

#include "fuzz/SentenceSampler.h"
#include "runtime/ParserCore.h"

#include <deque>
#include <unordered_set>

using namespace llstar;
using namespace llstar::fuzz;

namespace {

constexpr int64_t Inf = int64_t(1) << 30;
constexpr int MaxSteps = 100000;
constexpr size_t MaxSentenceTokens = 512;

/// A readable character from \p Set: prefer 'x', then lowercase letters,
/// then digits, then any printable ASCII, then the set minimum.
char pickChar(const IntervalSet &Set) {
  if (Set.contains('x'))
    return 'x';
  for (auto [Lo, Hi] : {std::pair<int32_t, int32_t>{'a', 'z'},
                        {'0', '9'},
                        {33, 126}})
    for (const Interval &I : Set.intervals()) {
      int32_t From = std::max(I.Lo, Lo), To = std::min(I.Hi, Hi);
      if (From <= To)
        return char(From);
    }
  return char(Set.min());
}

/// Appends the shortest string \p N matches to \p Out. \p Budget bounds
/// both output length and Alt fan-out; returns false when exhausted or the
/// node cannot match anything (empty char set).
bool shortestRegexMatch(const regex::RegexNode &N, std::string &Out,
                        int Budget) {
  if (int(Out.size()) > Budget)
    return false;
  switch (N.kind()) {
  case regex::RegexKind::Epsilon:
  case regex::RegexKind::Star:
  case regex::RegexKind::Optional:
    return true; // match empty
  case regex::RegexKind::CharSet:
    if (N.set().empty())
      return false;
    Out += pickChar(N.set());
    return true;
  case regex::RegexKind::Plus:
    return shortestRegexMatch(*N.children()[0], Out, Budget);
  case regex::RegexKind::Concat:
    for (const auto &C : N.children())
      if (!shortestRegexMatch(*C, Out, Budget))
        return false;
    return true;
  case regex::RegexKind::Alt: {
    std::string Best;
    bool Found = false;
    for (const auto &C : N.children()) {
      std::string Candidate;
      if (shortestRegexMatch(*C, Candidate, Budget) &&
          (!Found || Candidate.size() < Best.size())) {
        Best = std::move(Candidate);
        Found = true;
      }
    }
    if (Found)
      Out += Best;
    return Found;
  }
  }
  return false;
}

/// Cost of traversing \p T given the current cost table: emitted tokens
/// plus the minimal remainder of whatever the transition enters.
int64_t edgeCost(const Atn &M, const AtnTransition &T,
                 const std::vector<int64_t> &Cost) {
  switch (T.Kind) {
  case AtnTransitionKind::Atom:
    return (T.Label == TokenEof ? 0 : 1) + Cost[size_t(T.Target)];
  case AtnTransitionKind::Set:
    return 1 + Cost[size_t(T.Target)];
  case AtnTransitionKind::Rule:
    return Cost[size_t(M.ruleStart(T.RuleIndex))] +
           Cost[size_t(T.FollowState)];
  default:
    return Cost[size_t(T.Target)];
  }
}

} // namespace

SentenceGen::SentenceGen(const AnalyzedGrammar &AG) : AG(AG) {
  const Atn &M = AG.atn();
  size_t N = M.numStates();

  // Fixpoint: minimal tokens from each state to its own rule stop. Costs
  // only decrease, so iteration terminates.
  StateCost.assign(N, Inf);
  for (size_t S = 0; S < N; ++S)
    if (M.state(int32_t(S)).Kind == AtnStateKind::RuleStop)
      StateCost[S] = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t S = 0; S < N; ++S) {
      const AtnState &St = M.state(int32_t(S));
      if (St.Kind == AtnStateKind::RuleStop)
        continue;
      int64_t Best = Inf;
      for (const AtnTransition &T : St.Transitions)
        Best = std::min(Best, edgeCost(M, T, StateCost));
      if (Best < StateCost[S]) {
        StateCost[S] = Best;
        Changed = true;
      }
    }
  }

  // Reverse adjacency of the call-collapsed graph. The return edge of a
  // rule transition only exists when the invoked rule can terminate.
  Rev.assign(N, {});
  for (size_t S = 0; S < N; ++S)
    for (const AtnTransition &T : M.state(int32_t(S)).Transitions) {
      if (T.Kind == AtnTransitionKind::Rule) {
        Rev[size_t(M.ruleStart(T.RuleIndex))].push_back(int32_t(S));
        if (StateCost[size_t(M.ruleStart(T.RuleIndex))] < Inf)
          Rev[size_t(T.FollowState)].push_back(int32_t(S));
      } else {
        Rev[size_t(T.Target)].push_back(int32_t(S));
      }
    }
}

std::vector<uint8_t> SentenceGen::reachable(int32_t Target) const {
  std::vector<uint8_t> Reach(Rev.size(), 0);
  std::deque<int32_t> Queue{Target};
  Reach[size_t(Target)] = 1;
  while (!Queue.empty()) {
    int32_t S = Queue.front();
    Queue.pop_front();
    for (int32_t Prev : Rev[size_t(S)])
      if (!Reach[size_t(Prev)]) {
        Reach[size_t(Prev)] = 1;
        Queue.push_back(Prev);
      }
  }
  return Reach;
}

std::string SentenceGen::tokenText(TokenType Type) const {
  const Vocabulary &V = AG.grammar().vocabulary();
  if (V.isLiteral(Type))
    return V.literalText(Type);
  // Derive a minimal witness string from the token's lexer regex; the
  // lex-back check in seeds() rejects the rare guess that a higher-priority
  // rule (e.g. a keyword literal) steals.
  for (const LexerRule &R : AG.grammar().lexerSpec().Rules)
    if (R.Type == Type && R.Pattern) {
      std::string Witness;
      if (shortestRegexMatch(*R.Pattern, Witness, /*Budget=*/64))
        return Witness;
      break;
    }
  return "x"; // last resort; dropped by the lex-back check if wrong
}

bool SentenceGen::sentenceFor(int32_t Decision, int32_t Alt,
                              std::vector<std::string> &Out) const {
  std::vector<TokenType> Types;
  return walk(Decision, Alt, Out, Types);
}

bool SentenceGen::walk(int32_t Decision, int32_t Alt,
                       std::vector<std::string> &Out,
                       std::vector<TokenType> &Types) const {
  const Atn &M = AG.atn();
  int32_t TD = M.decisionState(Decision);
  if (Alt < 1 || size_t(Alt) > M.state(TD).Transitions.size())
    return false;
  int32_t Start = M.ruleStart(AG.grammar().startRule());
  if (StateCost[size_t(Start)] >= Inf)
    return false;
  std::vector<uint8_t> Reach = reachable(TD);
  if (!Reach[size_t(Start)])
    return false;

  Out.clear();
  Types.clear();
  std::vector<int32_t> Stack;
  int32_t P = Start;
  bool Forced = false;
  for (int Steps = 0; Steps < MaxSteps; ++Steps) {
    if (Out.size() > MaxSentenceTokens)
      return false;
    const AtnState &S = M.state(P);
    if (S.Kind == AtnStateKind::RuleStop) {
      if (Stack.empty())
        return Forced; // derivation complete; demand the forced alt was hit
      P = Stack.back();
      Stack.pop_back();
      continue;
    }

    size_t Pick = 0;
    if (P == TD && !Forced) {
      Pick = size_t(Alt) - 1;
      Forced = true;
    } else if (S.Transitions.size() > 1) {
      // Steer toward the target decision while it is still ahead; once
      // forced (or when no transition leads there) take the cheapest
      // continuation. Ties prefer the last transition — the exit
      // alternative of loop decisions — so epsilon loops break.
      bool Steered = false;
      int64_t Best = Inf * 2;
      for (size_t I = 0; I < S.Transitions.size(); ++I) {
        const AtnTransition &T = S.Transitions[I];
        if (!Forced) {
          bool Leads =
              T.Kind == AtnTransitionKind::Rule
                  ? (Reach[size_t(M.ruleStart(T.RuleIndex))] ||
                     (StateCost[size_t(M.ruleStart(T.RuleIndex))] < Inf &&
                      Reach[size_t(T.FollowState)]))
                  : Reach[size_t(T.Target)] != 0;
          if (Leads && !Steered) {
            Steered = true;
            Pick = I;
          }
          if (Steered)
            continue;
        }
        int64_t C = edgeCost(M, T, StateCost);
        if (C <= Best) {
          Best = C;
          Pick = I;
        }
      }
    }

    const AtnTransition &T = S.Transitions[Pick];
    switch (T.Kind) {
    case AtnTransitionKind::Atom:
      if (T.Label != TokenEof) {
        Out.push_back(tokenText(T.Label));
        Types.push_back(T.Label);
      }
      P = T.Target;
      break;
    case AtnTransitionKind::Set: {
      TokenType Picked = firstUserToken(T.Labels);
      Out.push_back(tokenText(Picked));
      Types.push_back(Picked);
      P = T.Target;
      break;
    }
    case AtnTransitionKind::Rule:
      Stack.push_back(T.FollowState);
      P = M.ruleStart(T.RuleIndex);
      break;
    default:
      // Predicates evaluate true in the default environment; actions are
      // inert for sentence text.
      P = T.Target;
      break;
    }
  }
  return false; // step budget exhausted
}

std::vector<std::vector<std::string>>
SentenceGen::seeds(size_t MaxSeeds) const {
  std::vector<std::vector<std::string>> Out;
  std::unordered_set<std::string> Seen;
  const Atn &M = AG.atn();
  for (size_t D = 0; D < AG.numDecisions() && Out.size() < MaxSeeds; ++D) {
    const AtnState &S = M.state(M.decisionState(int32_t(D)));
    for (size_t Alt = 1;
         Alt <= S.Transitions.size() && Out.size() < MaxSeeds; ++Alt) {
      std::vector<TokenType> Witness;
      if (!AG.dfa(int32_t(D)).shortestPathToAlt(int32_t(Alt), Witness))
        continue; // the DFA never predicts this alternative
      std::vector<std::string> Sentence;
      std::vector<TokenType> Types;
      if (!walk(int32_t(D), int32_t(Alt), Sentence, Types))
        continue;
      std::string Rendered = SentenceSampler::render(Sentence);
      if (Seen.count(Rendered))
        continue;
      // Lex-back check: the guessed token texts must tokenize to exactly
      // the intended type sequence, or the sentence is no witness at all
      // (e.g. an identifier guess colliding with a keyword literal).
      DiagnosticEngine Diags;
      std::vector<Token> Lexed = AG.lexer().tokenize(Rendered, Diags);
      if (Diags.hasErrors() || Lexed.size() != Types.size() + 1)
        continue;
      bool TypesMatch = true;
      for (size_t I = 0; I < Types.size(); ++I)
        TypesMatch &= Lexed[I].Type == Types[I];
      if (!TypesMatch || Lexed.back().Type != TokenEof)
        continue;
      Seen.insert(std::move(Rendered));
      Out.push_back(std::move(Sentence));
    }
  }
  return Out;
}

#include "peg/PackratParser.h"

using namespace llstar;

PackratParser::PackratParser(const Grammar &G, TokenStream &Stream,
                             SemanticEnv *Env, DiagnosticEngine &Diags)
    : PackratParser(G, Stream, Env, Diags, Options()) {}

PackratParser::PackratParser(const Grammar &G, TokenStream &Stream,
                             SemanticEnv *Env, DiagnosticEngine &Diags,
                             Options Opts)
    : G(G), Stream(Stream), Env(Env), Diags(Diags), Opts(Opts) {}

std::unique_ptr<ParseTree> PackratParser::parse(const std::string &RuleName) {
  int32_t Rule = RuleName.empty() ? G.startRule() : G.findRule(RuleName);
  if (Rule < 0) {
    Diags.error("unknown start rule '" + RuleName + "'");
    LastParseOk = false;
    return nullptr;
  }
  Memo.clear();
  std::unique_ptr<ParseTree> Result;
  ArenaParseTree *Parent = nullptr;
  if (Opts.BuildTree) {
    Result = std::make_unique<ParseTree>(Rule, &Stream);
    NodeArena = &Result->arena();
    Parent = Result->root();
  }
  int64_t Start = Stream.index();
  bool Ok = true;
  for (const Alternative &A : G.rule(Rule).Alts) {
    Stream.seek(Start);
    ++Stats.AltAttempts;
    if (parseAlternative(A, Parent)) {
      Ok = true;
      break;
    }
    ++Stats.AltFailures;
    if (Parent)
      Parent->keepChildren(0); // roll back the failed attempt
    Ok = false;
  }
  if (!Ok) {
    // Packrat parsers detect failure only after trying everything; report
    // at the farthest point reached as the best available approximation.
    const Token &T = Stream.at(Stats.TokensTouched > 0
                                   ? Stats.TokensTouched - 1
                                   : Stream.index());
    Diags.error(T.Loc, "PEG parse failed near '" + std::string(T.Text) + "'");
  }
  LastParseOk = Ok;
  return Result;
}

bool PackratParser::parseRule(int32_t RuleIndex, ArenaParseTree *Parent) {
  ++Stats.RuleInvocations;
  if (budgetExceeded())
    return false;

  int64_t Start = Stream.index();
  uint64_t Key = packratKey(RuleIndex, Start);
  if (Opts.Memoize) {
    auto It = Memo.find(Key);
    if (It != Memo.end()) {
      // With tree building on, successful extents cannot be replayed (the
      // memo has no tree); re-parse those. Failures are always reusable.
      if (It->second < 0) {
        ++Stats.MemoHits;
        return false;
      }
      if (!Opts.BuildTree || !Parent) {
        ++Stats.MemoHits;
        Stream.seek(It->second);
        return true;
      }
    }
    ++Stats.MemoMisses;
  }

  ArenaParseTree *Node = nullptr;
  size_t ParentArity = 0;
  if (Parent) {
    ParentArity = Parent->numChildren();
    Node = Parent->addChild(ArenaParseTree::ruleNode(*NodeArena, RuleIndex));
  }

  bool Ok = false;
  for (const Alternative &A : G.rule(RuleIndex).Alts) {
    Stream.seek(Start);
    ++Stats.AltAttempts;
    if (parseAlternative(A, Node)) {
      Ok = true;
      break;
    }
    ++Stats.AltFailures;
    // Roll back any children the failed attempt produced.
    if (Node)
      Node->keepChildren(0);
  }

  if (!Ok && Parent)
    Parent->keepChildren(ParentArity); // drop the failed rule node

  if (Opts.Memoize)
    Memo[Key] = Ok ? Stream.index() : -1;
  return Ok;
}

bool PackratParser::parseAlternative(const Alternative &A,
                                     ArenaParseTree *Parent) {
  for (const Element &E : A.Elements)
    if (!parseElement(E, Parent))
      return false;
  return true;
}

bool PackratParser::parseElement(const Element &E, ArenaParseTree *Parent) {
  if (budgetExceeded())
    return false;
  switch (E.Kind) {
  case ElementKind::TokenRef: {
    touch();
    if (Stream.LA(1) != E.TokType)
      return false;
    if (Parent)
      Parent->addChild(ArenaParseTree::tokenNode(*NodeArena, Stream.index()));
    Stream.consume();
    return true;
  }
  case ElementKind::TokenSet: {
    touch();
    TokenType T = Stream.LA(1);
    bool InSet = E.TokSet.contains(T);
    if (T == TokenEof || (E.Negated ? InSet : !InSet))
      return false;
    if (Parent)
      Parent->addChild(ArenaParseTree::tokenNode(*NodeArena, Stream.index()));
    Stream.consume();
    return true;
  }
  case ElementKind::RuleRef:
    return parseRule(E.RuleIndex, Parent);
  case ElementKind::SemPred: {
    if (E.MinPrecedence >= 0)
      return true; // precedence predicates are meaningless without rewrite
    if (Env)
      if (const SemanticEnv::Predicate *Fn = Env->findPredicate(E.Name))
        return (*Fn)();
    return true;
  }
  case ElementKind::SynPred: {
    // PEG and-predicate: match the fragment, consume nothing.
    int64_t Mark = Stream.index();
    bool Ok = parseRule(E.SynPredRule, nullptr);
    Stream.seek(Mark);
    return Ok;
  }
  case ElementKind::Action:
    if (E.AlwaysAction && Env)
      if (const SemanticEnv::Action *Fn = Env->findAction(E.Name))
        (*Fn)();
    return true;
  case ElementKind::Block: {
    auto TryAlts = [&](ArenaParseTree *Node) -> bool {
      int64_t Start = Stream.index();
      for (const Alternative &A : E.Alts) {
        Stream.seek(Start);
        ++Stats.AltAttempts;
        if (parseAlternative(A, Node))
          return true;
        ++Stats.AltFailures;
        if (Node)
          Node->keepChildren(0);
      }
      return false;
    };
    auto NewScratch = [&]() -> ArenaParseTree * {
      return Parent ? ArenaParseTree::ruleNode(*NodeArena, -1) : nullptr;
    };
    // NOTE: like any PEG, sub-alternative attempts that partially built
    // tree children must roll back; we parse block bodies into a scratch
    // node and splice on success.
    switch (E.Repeat) {
    case BlockRepeat::None: {
      if (!Parent)
        return TryAlts(nullptr);
      ArenaParseTree *Scratch = NewScratch();
      if (!TryAlts(Scratch))
        return false;
      Parent->adoptChildren(*Scratch);
      return true;
    }
    case BlockRepeat::Optional: {
      int64_t Mark = Stream.index();
      ArenaParseTree *Scratch = NewScratch();
      if (TryAlts(Scratch)) {
        if (Parent)
          Parent->adoptChildren(*Scratch);
        return true;
      }
      Stream.seek(Mark);
      return true;
    }
    case BlockRepeat::Star:
    case BlockRepeat::Plus: {
      int64_t Iterations = 0;
      while (true) {
        int64_t Mark = Stream.index();
        ArenaParseTree *Scratch = NewScratch();
        if (!TryAlts(Scratch)) {
          Stream.seek(Mark);
          break;
        }
        if (Stream.index() == Mark)
          break; // epsilon body: stop (possessive loops must progress)
        if (Parent)
          Parent->adoptChildren(*Scratch);
        ++Iterations;
      }
      return E.Repeat == BlockRepeat::Star || Iterations > 0;
    }
    }
    return false;
  }
  }
  return false;
}

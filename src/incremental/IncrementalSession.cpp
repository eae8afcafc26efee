#include "incremental/IncrementalSession.h"

#include "compiled/CompiledParser.h"
#include "runtime/LLStarParser.h"

#include <chrono>

using namespace llstar;
using namespace llstar::incremental;

IncrementalSession::IncrementalSession(
    std::shared_ptr<const GrammarBundle> Bundle, SessionOptions Opts)
    : Bundle(std::move(Bundle)), Opts(std::move(Opts)),
      IncLex(this->Bundle->analyzed().lexer()) {}

IncrementalSession::~IncrementalSession() = default;

ParserStats IncrementalSession::takeStatsDelta() {
  ParserStats Out = std::move(Delta);
  Delta = ParserStats();
  return Out;
}

std::string IncrementalSession::treeText() const {
  if (Root && Stream)
    return Root->str(Bundle->grammar(), *Stream);
  return "";
}

EditOutcome IncrementalSession::reset(std::string NewText) {
  auto StartTime = std::chrono::steady_clock::now();
  Text = std::move(NewText);
  IncLex.lexAll(Text);
  IncrementalLexer::Damage D;
  D.InvalidLo = 0;
  D.OldInvalidHi = 0;
  D.NewInvalidHi = int64_t(IncLex.tokens().size());
  D.TokenDelta = 0;
  D.Relexed = int64_t(IncLex.lexemes().size());
  Record.clear();
  return parseCurrent(D, /*Incremental=*/false, StartTime);
}

EditOutcome IncrementalSession::applyEdit(const Edit &E) {
  auto StartTime = std::chrono::steady_clock::now();
  if (EditScriptError VE = validateEdit(E, Text.size());
      VE != EditScriptError::None) {
    EditOutcome O;
    O.Error = VE;
    return O;
  }
  Text.replace(size_t(E.Offset), size_t(E.OldLen), E.NewText);
  if (!Opts.Reuse) {
    // Baseline mode: behave like an editor without this subsystem —
    // tokenize and parse the whole new text every time.
    return reset(std::move(Text));
  }
  IncrementalLexer::Damage D =
      IncLex.relex(Text, E.Offset, E.OldLen, int64_t(E.NewText.size()));
  return parseCurrent(D, /*Incremental=*/true, StartTime);
}

EditOutcome IncrementalSession::applyBatch(const std::vector<Edit> &Batch) {
  EditOutcome Sum;
  bool FirstOutcome = true;
  for (size_t I = Batch.size(); I-- > 0;) {
    EditOutcome O = applyEdit(Batch[I]);
    if (O.Error != EditScriptError::None)
      return O;
    O.Millis += Sum.Millis;
    O.NodesReused += Sum.NodesReused;
    O.TokensRelexed += Sum.TokensRelexed;
    O.DecisionsReparsed += Sum.DecisionsReparsed;
    Sum = O;
    FirstOutcome = false;
  }
  if (FirstOutcome) {
    // An empty batch is a no-op; report the current state.
    Sum.ParseOk = LastOk;
    Sum.NumTokens = int64_t(IncLex.tokens().size());
    Sum.NumErrors = Diags.errorCount();
  }
  return Sum;
}

EditOutcome IncrementalSession::parseCurrent(
    const IncrementalLexer::Damage &D, bool Incremental,
    std::chrono::steady_clock::time_point StartTime) {
  Diags.clear();
  IncLex.emitLexDiagnostics(Text, Diags);

  // The stream is a view over the master token vector — IncrementalLexer
  // splices that vector in place between parses, so copying it here would
  // put an O(tokens) tax on every edit. Nothing reads the previous stream
  // during the parse (renderings happen between edits, against the
  // committed stream).
  auto NewStream =
      std::make_unique<TokenStream>(IncLex.tokens(), TokenStream::Borrow{});

  Arena *BuildArena = LiveIsA ? &ArenaB : &ArenaA;

  const bool UseHooks = Opts.Reuse;
  ReuseRecorder::Config RC;
  if (Incremental && Opts.Reuse && Root) {
    RC.Prev = &Record;
    RC.InvalidLo = D.InvalidLo;
    RC.OldInvalidHi = D.OldInvalidHi;
    RC.NewInvalidHi = D.NewInvalidHi;
    RC.TokenDelta = D.TokenDelta;
  }
  RC.NewTokens = &IncLex.tokens();
  RC.NewArena = BuildArena;
  ReuseRecorder Rec(RC);

  ParserOptions PO;
  PO.BuildTree = true;
  PO.CollectStats = true;
  PO.Recover = Opts.Recover;
  PO.TreeArena = BuildArena;
  if (UseHooks) {
    PO.Hooks = &Rec;
    // Memo hits replay speculative sub-parses without re-reporting their
    // lookahead, which would under-record reach; trees and diagnostics
    // are memoization-independent, so recording parses just turn it off.
    PO.Memoize = false;
  }

  const AnalyzedGrammar &AG = Bundle->analyzed();
  const ArenaParseTree *NewRoot = nullptr;
  ParserStats S;
  EditOutcome O;
  auto Finish = [&](auto &P) {
    P.parse(Opts.StartRule);
    NewRoot = P.arenaTree();
    O.ParseOk = P.ok();
    O.TreeNodes = int64_t(P.treeNodes());
    O.ErrorLeaves = int64_t(P.errorLeaves());
    S = std::move(P.stats());
  };
  if (Opts.UseCompiled) {
    const compiled::CompiledResolution &CT = Bundle->compiledTables();
    compiled::CompiledParser P(AG, CT.View, *NewStream, /*Env=*/nullptr, Diags,
                               PO, CT.Native, CT.Rules);
    Finish(P);
  } else {
    LLStarParser P(AG, *NewStream, /*Env=*/nullptr, Diags, PO);
    Finish(P);
  }

  // Commit: the new tree replaces the old, the old arena is recycled.
  Root = NewRoot;
  Stream = std::move(NewStream);
  if (UseHooks)
    Record = Rec.take();
  else
    Record.clear();
  (LiveIsA ? ArenaA : ArenaB).reset();
  LiveIsA = !LiveIsA;
  LastOk = O.ParseOk;

  S.TokensRelexed = D.Relexed;
  S.DecisionsReparsed = S.totalEvents();
  Cumulative.merge(S);
  Delta.merge(S);

  O.NumTokens = int64_t(IncLex.tokens().size());
  O.NodesReused = S.NodesReused;
  O.TokensRelexed = S.TokensRelexed;
  O.DecisionsReparsed = S.DecisionsReparsed;
  O.NumErrors = Diags.errorCount();
  // The whole call, commit included: the engine counted the tree's nodes
  // and error leaves as it built them, so nothing here walks the tree.
  O.Millis = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - StartTime)
                 .count();
  return O;
}

ScratchResult llstar::incremental::scratchParse(const GrammarBundle &Bundle,
                                               std::string_view Text,
                                               const SessionOptions &Opts) {
  ScratchResult R;
  DiagnosticEngine Diags;
  TokenStream Stream(Bundle.tokenize(Text, Diags));
  R.Tokens = Stream.tokens();

  Arena A;
  ParserOptions PO;
  PO.BuildTree = true;
  PO.CollectStats = true;
  PO.Recover = Opts.Recover;
  PO.TreeArena = &A;

  const AnalyzedGrammar &AG = Bundle.analyzed();
  auto Finish = [&](auto &P) {
    P.parse(Opts.StartRule);
    R.ParseOk = P.ok();
    if (const ArenaParseTree *Root = P.arenaTree()) {
      R.TreeText = Root->str(AG.grammar(), Stream);
      R.TreeNodes = int64_t(Root->size());
      R.ErrorLeaves = int64_t(Root->numErrorNodes());
    }
  };
  if (Opts.UseCompiled) {
    const compiled::CompiledResolution &CT = Bundle.compiledTables();
    compiled::CompiledParser P(AG, CT.View, Stream, /*Env=*/nullptr, Diags, PO,
                               CT.Native, CT.Rules);
    Finish(P);
  } else {
    LLStarParser P(AG, Stream, /*Env=*/nullptr, Diags, PO);
    Finish(P);
  }
  R.DiagText = Diags.str();
  return R;
}

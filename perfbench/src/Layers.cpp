//===- perfbench/src/Layers.cpp - Bundles, oracles, traced layer pass -----===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//

#include "Engine.h"

#include "compiled/CompiledParser.h"
#include "net/WireFormat.h"
#include "peg/PackratParser.h"
#include "runtime/LLStarParser.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace llstar;

namespace perfbench {

double buildBundles(GrammarSet &G, bool ResolveCompiled) {
  auto T0 = Clock::now();
  G.Bundles.clear();
  for (const GrammarSource &S : G.Sources) {
    DiagnosticEngine Diags;
    BundlePtr B = makeGrammarBundle(S.Text, Diags);
    if (!B || Diags.hasErrors()) {
      std::fprintf(stderr, "perfbench: grammar %s does not load:\n%s",
                   S.Name.c_str(), Diags.str().c_str());
      std::exit(2);
    }
    if (ResolveCompiled)
      B->compiledTables();
    G.Bundles.push_back(std::move(B));
  }
  return secondsSince(T0);
}

namespace {
ParserOptions requestOptions(const AnalyzedGrammar &AG) {
  // The options ParseService::runJob uses for a WantTree request without
  // recovery and without a deadline.
  ParserOptions O;
  O.Memoize = AG.grammar().Options.Memoize;
  O.CollectStats = true;
  O.Recover = false;
  return O;
}
} // namespace

Reference referenceParse(const GrammarSet &G, const Item &It) {
  const GrammarBundle &B = *G.Bundles[size_t(It.Grammar)];
  Reference Ref;
  DiagnosticEngine Diags;
  std::vector<Token> Toks = B.tokenize(It.Text, Diags);
  if (Diags.hasErrors())
    return Ref;
  TokenStream Stream(std::move(Toks));
  ParserOptions O = requestOptions(B.analyzed());
  O.CollectStats = false;
  LLStarParser P(B.analyzed(), Stream, nullptr, Diags, O);
  std::unique_ptr<ParseTree> Tree =
      P.parse(G.Sources[size_t(It.Grammar)].StartRule);
  Ref.Ok = P.ok() && Tree;
  if (Ref.Ok)
    Ref.TreeHash = hashText(Tree->str(B.grammar()));
  return Ref;
}

PackratCheck packratParse(const GrammarSet &G, const Item &It) {
  const GrammarBundle &B = *G.Bundles[size_t(It.Grammar)];
  PackratCheck C;
  DiagnosticEngine Diags;
  std::vector<Token> Toks = B.tokenize(It.Text, Diags);
  if (Diags.hasErrors())
    return C;
  TokenStream Stream(std::move(Toks));
  PackratParser::Options O;
  O.BuildTree = true;
  PackratParser P(B.grammar(), Stream, nullptr, Diags, O);
  std::unique_ptr<ParseTree> Tree =
      P.parse(G.Sources[size_t(It.Grammar)].StartRule);
  C.Ok = P.ok() && Tree;
  C.TreeCompared = true;
  for (const Rule &Ru : B.grammar().rules())
    if (Ru.IsPrecedenceRule)
      C.TreeCompared = false;
  if (C.Ok && C.TreeCompared)
    C.TreeHash = hashText(Tree->str(B.grammar()));
  return C;
}

void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I < std::max(1u, Threads); ++I)
    Pool.emplace_back([&] {
      for (size_t J; (J = Next.fetch_add(1)) < N;)
        Fn(J);
    });
  for (std::thread &Th : Pool)
    Th.join();
}

void checkParse(Result &R, const char *What, size_t Index, bool StatusOk,
                uint64_t TreeHash, const Reference &Ref) {
  ++R.Attempted;
  if (!StatusOk || TreeHash != Ref.TreeHash)
    R.fail(std::string(What) + " #" + std::to_string(Index) +
           (StatusOk ? ": tree differs from the reference"
                     : ": status is not ok"));
}

//===----------------------------------------------------------------------===//
// Layer pass
//===----------------------------------------------------------------------===//

LayerPass runLayerPass(const GrammarSet &G, const std::vector<Item> &Items,
                       const std::vector<Reference> &Refs, LayerConfig C,
                       Result &R, Tracer &T) {
  LayerPass L;
  // One arena recycled across items, as each ParseService worker recycles
  // its own: a fresh arena per item would charge block zeroing and page
  // faults to the tree layer that the service does not pay.
  Arena TreeArena;
  for (size_t I = 0; I < Items.size(); ++I) {
    const Item &It = Items[I];
    const GrammarBundle &B = *G.Bundles[size_t(It.Grammar)];
    const AnalyzedGrammar &AG = B.analyzed();
    const std::string &Start = G.Sources[size_t(It.Grammar)].StartRule;
    const compiled::CompiledResolution &CT = B.compiledTables();
    int64_t Req = int64_t(I);
    Scope Root(T, "request", Req);

    DiagnosticEngine Diags;
    std::vector<Token> Toks;
    auto T0 = Clock::now();
    {
      Scope S(T, "lexer", Req, Root.id());
      Toks = B.tokenize(It.Text, Diags);
    }
    double LexMs = msBetween(T0, Clock::now());
    L.LexMs += LexMs;
    L.Bytes += int64_t(It.Text.size());
    L.Tokens += int64_t(Toks.size()) - 1;

    ParserOptions Tree = requestOptions(AG), NoTree = requestOptions(AG);
    NoTree.BuildTree = false;

    // Tree-less parses with both engines.
    double CompiledMs, RuntimeMs;
    {
      TokenStream Stream(Toks, TokenStream::Borrow{});
      DiagnosticEngine D;
      auto P0 = Clock::now();
      {
        Scope S(T, "compiled", Req, Root.id());
        compiled::CompiledParser P(AG, CT.View, Stream, nullptr, D, NoTree,
                                   CT.Native, CT.Rules);
        P.parse(Start);
        const std::vector<DecisionStats> &Ds = P.stats().Decisions;
        for (size_t Dn = 0; Dn < Ds.size(); ++Dn) {
          L.CompiledEvents += Ds[Dn].Events;
          if (CT.Native && CT.Native[Dn])
            L.NativeEvents += Ds[Dn].Events;
        }
      }
      CompiledMs = msBetween(P0, Clock::now());
    }
    {
      TokenStream Stream(Toks, TokenStream::Borrow{});
      DiagnosticEngine D;
      auto P0 = Clock::now();
      {
        Scope S(T, "runtime", Req, Root.id());
        LLStarParser P(AG, Stream, nullptr, D, NoTree);
        P.parse(Start);
        L.RuntimeStats.merge(P.stats());
      }
      RuntimeMs = msBetween(P0, Clock::now());
    }
    L.CompiledMs += CompiledMs;
    L.RuntimeMs += RuntimeMs;

    // The workload's own engine, building its own tree kind, then render.
    std::string Text;
    bool Ok = false;
    int64_t Nodes = 0;
    double TreeMs = 0, RenderMs = 0, ParseOnlyMs = 0;
    uint64_t TreeAllocs = 0;
    {
      TokenStream Stream(Toks, TokenStream::Borrow{});
      DiagnosticEngine D;
      if (C.Arena)
        Tree.TreeArena = &TreeArena;
      std::unique_ptr<ParseTree> Heap;
      const ArenaParseTree *InArena = nullptr;
      uint64_t A0 = threadAllocations();
      auto P0 = Clock::now();
      {
        Scope S(T, "tree", Req, Root.id());
        if (C.Compiled) {
          compiled::CompiledParser P(AG, CT.View, Stream, nullptr, D, Tree,
                                     CT.Native, CT.Rules);
          Heap = P.parse(Start);
          InArena = P.arenaTree();
          Ok = P.ok();
        } else {
          LLStarParser P(AG, Stream, nullptr, D, Tree);
          Heap = P.parse(Start);
          InArena = P.arenaTree();
          Ok = P.ok();
        }
      }
      TreeMs = ParseOnlyMs = msBetween(P0, Clock::now());
      TreeAllocs = threadAllocations() - A0;
      auto R0 = Clock::now();
      {
        Scope S(T, "render", Req, Root.id());
        if (InArena)
          Text = InArena->str(AG.grammar(), Stream);
        else if (Heap)
          Text = Heap->str(AG.grammar());
      }
      RenderMs = msBetween(R0, Clock::now());
      Nodes = InArena ? int64_t(InArena->size())
              : Heap  ? int64_t(Heap->size())
                      : 0;
      // Releasing the tree is part of the tree layer's cost; it falls
      // outside the interval ParseMillis times.
      auto F0 = Clock::now();
      {
        Scope S(T, "tree", Req, Root.id());
        Heap.reset();
        TreeArena.reset();
      }
      TreeMs += msBetween(F0, Clock::now());
    }
    double Treeless = C.Compiled ? CompiledMs : RuntimeMs;
    L.TreeParseMs += TreeMs;
    L.TreeBuildMs += TreeMs - Treeless;
    L.TreeAllocs += int64_t(TreeAllocs);
    L.Nodes += Nodes;
    L.RenderMs += RenderMs;
    L.RenderBytes += int64_t(Text.size());
    L.ParseMillisLayersMs.push_back(ParseOnlyMs);
    checkParse(R, "layer pass", I, Ok, hashText(Text), Refs[I]);

    // The wire round trip of the same request and its reply.
    wire::ParseArgs Args;
    Args.WantTree = true;
    Args.StartRule = Start;
    Args.Input = It.Text;
    std::string Framed;
    auto E0 = Clock::now();
    {
      Scope S(T, "net.encode", Req, Root.id());
      wire::frameRecord(Framed,
                        wire::encodeParseArgs(uint64_t(I) + 1, Args, false));
    }
    L.EncodeMs += msBetween(E0, Clock::now());
    L.ReqBytes += int64_t(Framed.size());

    ParseResult Res;
    Res.Status = ParseStatus::Ok;
    Res.TreeText = std::move(Text);
    Res.NumTokens = int64_t(Toks.size()) - 1;
    Res.TreeNodes = Nodes;
    Res.ParseMillis = TreeMs + RenderMs;
    std::string Reply;
    {
      Scope S(T, "net.server", Req, Root.id());
      wire::ParseReply Wire = wire::makeParseReply(Res);
      wire::frameRecord(Reply,
                        wire::encodeParseReply(uint64_t(I) + 1, Wire, false));
    }
    L.ReplyBytes += int64_t(Reply.size());
    auto D0 = Clock::now();
    {
      Scope S(T, "net.decode", Req, Root.id());
      wire::RecordReassembler Ra;
      Ra.feed(Reply);
      std::string Record;
      wire::Message M;
      std::string Err;
      if (Ra.next(Record) != wire::RecordReassembler::Status::Record ||
          !wire::decodeReply(Record, M, Err) ||
          M.Parse.TreeText.size() != Res.TreeText.size())
        R.fail("layer pass #" + std::to_string(I) + ": reply does not decode");
    }
    L.DecodeMs += msBetween(D0, Clock::now());
    ++L.Items;
  }
  return L;
}

AnalysisFigures measureAnalysis(const std::vector<GrammarSource> &Sources,
                                Tracer &T) {
  AnalysisFigures F;
  for (size_t I = 0; I < Sources.size(); ++I) {
    DiagnosticEngine Diags;
    auto T0 = Clock::now();
    BundlePtr B;
    {
      Scope S(T, "analysis", int64_t(I));
      B = makeGrammarBundle(Sources[I].Text, Diags);
    }
    F.AnalyzeMs += msBetween(T0, Clock::now());
    if (!B) {
      std::fprintf(stderr, "perfbench: grammar %s does not load\n",
                   Sources[I].Name.c_str());
      std::exit(2);
    }
    auto R0 = Clock::now();
    {
      Scope S(T, "compiled.resolve", int64_t(I));
      B->compiledTables();
    }
    F.ResolveMs += msBetween(R0, Clock::now());
    F.DfaStates += B->analyzed().stats().TotalDfaStates;
    F.BacktrackDecisions += B->analyzed().stats().NumBacktrack;
  }
  return F;
}

} // namespace perfbench

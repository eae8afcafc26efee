//===- perfbench/src/Workloads.cpp - The three workloads ------------------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
//
// Every run follows the same order: generate the seeded inputs, compute the
// references in a forked child (outside set-up and outside the timed
// region, and outside this process's peak RSS), set up the program several
// times and keep the median, then measure. A traced run (--trace 1) adds
// the layer pass over the same inputs and puts them through the other
// workloads' loops, so that every per-layer metric is measured.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Engine.h"

#include "runtime/LLStarParser.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <cstdio>
#include <thread>

using namespace llstar;

namespace perfbench {

namespace {

unsigned hostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Set-up repetitions; set-up time is reported as their median.
constexpr int SetupReps = 5;

//===----------------------------------------------------------------------===//
// References
//===----------------------------------------------------------------------===//

void packRefs(std::vector<uint64_t> &Out, const std::vector<Reference> &Refs) {
  for (const Reference &R : Refs) {
    Out.push_back(R.Ok);
    Out.push_back(R.TreeHash);
  }
}

/// Reads back what \ref packRefs wrote; a reference that rejects its
/// generated input is itself a failure (the inputs are all valid).
std::vector<Reference> unpackRefs(const std::vector<uint64_t> &W, size_t &At,
                                  size_t N, Result &R) {
  std::vector<Reference> Refs(N);
  for (size_t I = 0; I < N; ++I, At += 2) {
    Refs[I] = {W[At] != 0, W[At + 1]};
    if (!Refs[I].Ok) {
      ++R.Attempted;
      R.fail("reference parse rejects generated input #" + std::to_string(I));
    }
  }
  return Refs;
}

void packEditRefs(std::vector<uint64_t> &Out,
                  const std::vector<EditDoc> &Docs) {
  for (const EditDoc &D : Docs) {
    Out.insert(Out.end(), D.RefTree.begin(), D.RefTree.end());
    Out.insert(Out.end(), D.RefDiags.begin(), D.RefDiags.end());
  }
}

void unpackEditRefs(const std::vector<uint64_t> &W, size_t &At,
                    std::vector<EditDoc> &Docs) {
  for (EditDoc &D : Docs) {
    size_t N = D.Script.size();
    D.RefTree.assign(W.begin() + long(At), W.begin() + long(At + N));
    At += N;
    D.RefDiags.assign(W.begin() + long(At), W.begin() + long(At + N));
    At += N;
  }
}

void corrupt(std::vector<Reference> &Refs) {
  for (Reference &R : Refs)
    R.TreeHash ^= 1;
}
void corrupt(std::vector<EditDoc> &Docs) {
  for (EditDoc &D : Docs)
    for (uint64_t &H : D.RefTree)
      H ^= 1;
}

/// Edit documents for the incremental probe of a non-edit workload: the
/// chosen items, each with a short round-tripping script.
std::vector<EditDoc> probeEditDocs(const std::vector<Item> &Items,
                                   const std::vector<size_t> &Pick,
                                   uint64_t Seed) {
  std::vector<EditDoc> Docs;
  for (size_t I : Pick) {
    EditDoc D;
    D.Grammar = Items[I].Grammar;
    D.Base = Items[I].Text;
    D.Script = editScript(D.Base, 6, Seed + I);
    Docs.push_back(std::move(D));
  }
  return Docs;
}

//===----------------------------------------------------------------------===//
// Metric helpers
//===----------------------------------------------------------------------===//

double ratio(double A, double B) { return B != 0 ? A / B : 0; }

/// Splits \p V into \p Chunks consecutive runs and applies \p F to each.
template <typename Fn>
std::vector<double> perChunk(const std::vector<double> &V, size_t Chunks,
                             Fn F) {
  std::vector<double> Out;
  size_t Per = std::max<size_t>(1, V.size() / Chunks);
  for (size_t I = 0; I + Per <= V.size(); I += Per)
    Out.push_back(F(std::vector<double>(V.begin() + long(I),
                                        V.begin() + long(I + Per))));
  return Out;
}

/// p99 needs at least ten samples beyond it.
std::string tailNote(const std::vector<double> &V) {
  size_t Beyond = V.size() / 100;
  return "n=" + std::to_string(V.size()) + ", " + std::to_string(Beyond) +
         " beyond p99" + (Beyond < 10 ? " (too few!)" : "");
}

void addLatency(Result &R, const std::vector<double> &Ms) {
  R.add("p50_ms", quantile(Ms, 0.5), "ms", Ms, tailNote(Ms));
  R.add("p99_ms", quantile(Ms, 0.99), "ms", Ms, tailNote(Ms));
}

void addSetup(Result &R, const std::vector<double> &Setup) {
  R.add("setup_s", median(Setup), "s", Setup, "median of set-ups");
}

//===----------------------------------------------------------------------===//
// Per-layer metrics (traced runs)
//===----------------------------------------------------------------------===//

/// What a traced run gathered from the loops; assembled into the
/// per-layer metrics in one place so every workload emits the same names.
struct TracedFigures {
  LayerPass L;
  LayerConfig Config;
  AnalysisFigures A;
  std::vector<double> QueueWaitMs, ServiceParseMs;
  double ServiceRejectedFrac = 0;
  OpenLoopRun Net;          ///< over the daemon
  double NetAddedP50Ms = 0; ///< daemon p50 minus in-process service p50
  EditLoopRun Edits;
  std::vector<double> ScratchMs;
  double FullParseEvents = 0; ///< decision events of one full parse
  double OverheadFrac = 0;
  double CoveredShare = 0;
  std::map<std::string, double> SelfMs;
};

void addLayerMetrics(Result &R, const TracedFigures &F) {
  const LayerPass &L = F.L;
  double Mb = double(L.Bytes) / 1e6;
  double Tok = double(L.Tokens);
  R.add("lexer.tok_s", ratio(Tok, L.LexMs / 1e3), "tok/s");
  R.add("lexer.bytes_per_tok", ratio(double(L.Bytes), Tok), "B/tok");
  R.add("lexer.share", ratio(L.LexMs, L.LexMs + L.TreeParseMs + L.RenderMs),
        "ratio");
  R.add("compiled.parse_tok_s", ratio(Tok, L.CompiledMs / 1e3), "tok/s");
  R.add("compiled.native_decision_frac",
        ratio(double(L.NativeEvents), double(L.CompiledEvents)), "ratio");
  R.add("compiled.resolve_ms", F.A.ResolveMs, "ms");
  const ParserStats &S = L.RuntimeStats;
  R.add("runtime.parse_tok_s", ratio(Tok, L.RuntimeMs / 1e3), "tok/s");
  R.add("runtime.avg_lookahead", S.avgLookahead(), "tokens");
  R.add("runtime.backtrack_event_frac", S.backtrackEventFraction(), "ratio");
  R.add("runtime.synpred_evals", double(S.SynPredEvals), "count");
  R.add("runtime.memo_hit_frac",
        ratio(double(S.MemoHits), double(S.MemoHits + S.MemoMisses)), "ratio");
  R.add("tree.build_ms_per_mb", ratio(L.TreeBuildMs, Mb), "ms/MB", {},
        F.Config.Arena ? "arena" : "heap");
  R.add("tree.allocs_per_node", ratio(double(L.TreeAllocs), double(L.Nodes)),
        "count", {}, F.Config.Arena ? "arena" : "heap");
  R.add("tree.nodes_per_tok", ratio(double(L.Nodes), Tok), "ratio");
  R.add("render.mb_s", ratio(double(L.RenderBytes) / 1e6, L.RenderMs / 1e3),
        "MB/s");
  R.add("render.out_bytes_per_in_byte",
        ratio(double(L.RenderBytes), double(L.Bytes)), "ratio");
  R.add("service.queue_wait_p50_ms", quantile(F.QueueWaitMs, 0.5), "ms",
        F.QueueWaitMs, tailNote(F.QueueWaitMs));
  R.add("service.queue_wait_p99_ms", quantile(F.QueueWaitMs, 0.99), "ms",
        F.QueueWaitMs, tailNote(F.QueueWaitMs));
  R.add("service.parse_ms_p50", quantile(F.ServiceParseMs, 0.5), "ms",
        F.ServiceParseMs);
  R.add("service.parse_ms_p99", quantile(F.ServiceParseMs, 0.99), "ms",
        F.ServiceParseMs);
  R.add("service.rejected_frac", F.ServiceRejectedFrac, "ratio");
  R.add("net.client_overhead_p50_ms", quantile(F.Net.ClientMs, 0.5), "ms",
        F.Net.ClientMs);
  R.add("net.client_overhead_p99_ms", quantile(F.Net.ClientMs, 0.99), "ms",
        F.Net.ClientMs, tailNote(F.Net.ClientMs));
  R.add("net.encode_us_per_req", ratio(L.EncodeMs * 1e3, double(L.Items)),
        "us");
  R.add("net.decode_us_per_reply", ratio(L.DecodeMs * 1e3, double(L.Items)),
        "us");
  R.add("net.bytes_per_req", ratio(double(L.ReqBytes), double(L.Items)), "B");
  R.add("net.bytes_per_reply", ratio(double(L.ReplyBytes), double(L.Items)),
        "B");
  R.add("net.added_p50_ms", F.NetAddedP50Ms, "ms");
  R.add("loadgen.late_p99_ms", quantile(F.Net.LateMs, 0.99), "ms",
        F.Net.LateMs);
  const EditLoopRun &E = F.Edits;
  double EditP50 = quantile(E.EditMs, 0.5);
  R.add("incremental.relexed_tok_per_edit",
        ratio(double(E.TokensRelexed), double(E.Edits)), "count");
  R.add("incremental.reparse_frac",
        ratio(ratio(double(E.DecisionsReparsed), double(E.Edits)),
              F.FullParseEvents),
        "ratio");
  R.add("incremental.scratch_ms_p50", quantile(F.ScratchMs, 0.5), "ms",
        F.ScratchMs);
  R.add("incremental.speedup", ratio(quantile(F.ScratchMs, 0.5), EditP50),
        "ratio");
  R.add("recover.repairs_per_edit",
        ratio(double(E.Repairs), double(E.Edits)), "count");
  R.add("analysis.analyze_ms", F.A.AnalyzeMs, "ms");
  R.add("analysis.dfa_states", double(F.A.DfaStates), "count");
  R.add("analysis.backtrack_decisions", double(F.A.BacktrackDecisions),
        "count");
  for (const char *Layer : {"lexer", "compiled", "runtime", "tree", "render",
                            "net", "incremental", "analysis"}) {
    double Ms = 0;
    for (const auto &[Name, V] : F.SelfMs)
      if (Name == Layer || Name.rfind(std::string(Layer) + ".", 0) == 0)
        Ms += V;
    R.add(std::string(Layer) + ".self_ms", Ms, "ms", {},
          "summed span self time in this traced run");
  }
  R.add("trace.overhead_frac", F.OverheadFrac, "ratio", {},
        "traced vs untraced end-to-end, same run");
  R.add("trace.covered_share", F.CoveredShare, "ratio", {},
        "layer self times over the end-to-end time they decompose");
}

/// Self-time table for the report.
void noteSelfTimes(Result &R, const std::map<std::string, double> &Self) {
  std::string Line = "span self ms:";
  for (const auto &[Name, Ms] : Self) {
    char Buf[96];
    std::snprintf(Buf, sizeof Buf, " %s=%.1f", Name.c_str(), Ms);
    Line += Buf;
  }
  R.Notes.push_back(Line);
}

void writeTrace(const Options &O, const Tracer &T) {
  std::string Path = O.OutDir + "/" + O.Workload + "-seed" +
                     std::to_string(O.Seed) + ".trace.json";
  std::string Meta = "{\"workload\": \"" + O.Workload +
                     "\", \"seed\": " + std::to_string(O.Seed) + "}";
  if (!T.write(Path, Meta))
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
}

/// From-scratch parse times of every eighth script state: the cost an
/// edit would have without the incremental subsystem.
std::vector<double> scratchSamples(const GrammarSet &G,
                                   const std::vector<EditDoc> &Docs,
                                   Tracer &T) {
  std::vector<double> Ms;
  for (const EditDoc &D : Docs) {
    std::string Text = D.Base;
    incremental::SessionOptions SO;
    SO.StartRule = G.Sources[size_t(D.Grammar)].StartRule;
    for (size_t K = 0; K < D.Script.size(); ++K) {
      applyEditTo(Text, D.Script[K]);
      if (K % 8)
        continue;
      auto S0 = Clock::now();
      incremental::scratchParse(*G.Bundles[size_t(D.Grammar)], Text, SO);
      auto S1 = Clock::now();
      Ms.push_back(msBetween(S0, S1));
      T.record("incremental.scratch", int64_t(K), S0, S1);
    }
  }
  return Ms;
}

/// The interpreter's decision events for one full parse of each document.
double fullParseEvents(const GrammarSet &G, const std::vector<EditDoc> &Docs) {
  double Events = 0;
  for (const EditDoc &D : Docs) {
    const GrammarBundle &B = *G.Bundles[size_t(D.Grammar)];
    DiagnosticEngine Diags;
    TokenStream Stream(B.tokenize(D.Base, Diags));
    ParserOptions PO;
    PO.BuildTree = false;
    PO.Memoize = B.grammar().Options.Memoize;
    LLStarParser P(B.analyzed(), Stream, nullptr, Diags, PO);
    P.parse(G.Sources[size_t(D.Grammar)].StartRule);
    Events += double(P.stats().totalEvents());
  }
  return Docs.empty() ? 0 : Events / double(Docs.size());
}

/// Net and service probe for bulk and edit: the workload's documents over
/// loopback to a daemon, then the same schedule into a ParseService.
void netProbe(const GrammarSet &G, const std::vector<Item> &Items,
              const std::vector<Reference> &Refs, bool Compiled,
              double MeanServiceMs, Result &R, Tracer &T, TracedFigures &F,
              bool TakeService) {
  double Rate = std::clamp(
      0.25 * hostThreads() * 1e3 / std::max(MeanServiceMs, 0.01), 2.0, 2000.0);
  double Seconds = std::clamp(100.0 / Rate, 1.5, 4.0);
  OpenLoopRun ViaService;
  {
    DaemonHost D(G, Compiled);
    F.Net = runOpenLoopDaemon(D, G, Items, Refs, Rate, Seconds,
                              std::max(1u, hostThreads() / 2), 0, true, R, &T);
  }
  {
    ServiceConfig SC;
    SC.UseCompiled = Compiled;
    ParseService S(SC);
    ViaService = runOpenLoopService(S, G, Items, Refs, Rate, Seconds, 0, R);
  }
  F.NetAddedP50Ms = quantile(F.Net.LatencyMs, 0.5) -
                    quantile(ViaService.LatencyMs, 0.5);
  if (TakeService) {
    F.QueueWaitMs = ViaService.QueueWaitMs;
    F.ServiceParseMs = ViaService.ParseMs;
    F.ServiceRejectedFrac =
        ratio(double(ViaService.Rejected), double(ViaService.Sent));
  }
  R.Notes.push_back("net probe: " + std::to_string(F.Net.Sent) +
                    " requests at " + std::to_string(int(Rate)) + " req/s");
}

} // namespace

//===----------------------------------------------------------------------===//
// bulk
//===----------------------------------------------------------------------===//

Result runBulk(const Options &O) {
  Result R;
  GrammarSet G;
  G.Sources = shippedGrammars(O.Root);
  std::vector<Item> Corpus = bulkCorpus(G.Sources, O.Seed);
  int64_t CorpusBytes = 0;
  for (const Item &It : Corpus)
    CorpusBytes += int64_t(It.Text.size());
  R.Notes.push_back("corpus: " + std::to_string(Corpus.size()) +
                    " documents, " + std::to_string(CorpusBytes) +
                    " bytes over " + std::to_string(G.Sources.size()) +
                    " grammars");

  // The packrat sample: one seeded document of at most 256 KiB per grammar.
  std::vector<size_t> Sample;
  for (size_t GI = 0; GI < G.Sources.size(); ++GI)
    Sample.push_back(bulkIndex(G.Sources.size(), GI, (O.Seed + GI) % 2));
  // The incremental probe (traced only): each grammar's 64 KiB document.
  std::vector<EditDoc> ProbeDocs;
  if (O.Trace) {
    std::vector<size_t> Pick;
    for (size_t GI = 0; GI < G.Sources.size(); ++GI)
      Pick.push_back(bulkIndex(G.Sources.size(), GI, 0));
    ProbeDocs = probeEditDocs(Corpus, Pick, O.Seed);
  }

  std::vector<uint64_t> W = runInChild([&] {
    GrammarSet C;
    C.Sources = G.Sources;
    buildBundles(C, false);
    std::vector<Reference> Refs(Corpus.size());
    parallelFor(Corpus.size(), hostThreads(),
                [&](size_t I) { Refs[I] = referenceParse(C, Corpus[I]); });
    std::vector<uint64_t> Out;
    packRefs(Out, Refs);
    for (size_t I : Sample) {
      PackratCheck P = packratParse(C, Corpus[I]);
      Out.push_back(P.Ok == Refs[I].Ok &&
                    (!P.TreeCompared || P.TreeHash == Refs[I].TreeHash));
      Out.push_back(P.TreeCompared);
    }
    editReferences(C, ProbeDocs, hostThreads());
    packEditRefs(Out, ProbeDocs);
    return Out;
  });
  size_t At = 0;
  std::vector<Reference> Refs = unpackRefs(W, At, Corpus.size(), R);
  int TreesCompared = 0;
  for (size_t I : Sample) {
    ++R.Attempted;
    if (!W[At])
      R.fail("packrat disagrees with LL(*) on bulk document #" +
             std::to_string(I));
    TreesCompared += int(W[At + 1]);
    At += 2;
  }
  unpackEditRefs(W, At, ProbeDocs);
  R.Notes.push_back("packrat sample: " + std::to_string(Sample.size()) +
                    " documents, verdict checked on all, tree on " +
                    std::to_string(TreesCompared));
  if (O.CorruptReference)
    corrupt(Refs), corrupt(ProbeDocs);

  // Set-up: bundles built and compiled tables resolved, workers started.
  ServiceConfig SC;
  SC.UseCompiled = true;
  SC.Threads = int(hostThreads());
  std::vector<double> Setup;
  std::unique_ptr<ParseService> Service;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Service.reset();
    auto T0 = Clock::now();
    buildBundles(G, true);
    Service = std::make_unique<ParseService>(SC);
    Setup.push_back(secondsSince(T0));
  }
  size_t InFlight = 2 * hostThreads();

  // Warm-up: worker arenas and allocator caches reach steady state.
  runClosedLoop(*Service, G, Corpus, Refs, InFlight, 1.0, R, nullptr);
  if (!O.Trace) {
    ClosedLoopRun Run = runClosedLoop(*Service, G, Corpus, Refs, InFlight,
                                      O.Seconds, R, nullptr);
    addSetup(R, Setup);
    R.add("peak_rss_mb", peakRssMb(), "MB");
    R.add("mb_s", median(Run.CycleMbS), "MB/s", Run.CycleMbS,
          "median over cycles through the " + std::to_string(CorpusBytes) +
              "-byte corpus");
    addLatency(R, Run.LatencyMs);
    return R;
  }

  Tracer T;
  TracedFigures F;
  F.Config = {true, true};
  F.A = measureAnalysis(G.Sources, T);
  ClosedLoopRun Plain = runClosedLoop(*Service, G, Corpus, Refs, InFlight,
                                      O.Seconds / 3, R, nullptr);
  ClosedLoopRun Traced = runClosedLoop(*Service, G, Corpus, Refs, InFlight,
                                       O.Seconds / 3, R, &T);
  Service.reset();
  F.OverheadFrac = 1 - ratio(median(Traced.CycleMbS), median(Plain.CycleMbS));
  F.QueueWaitMs = Traced.QueueWaitMs;
  F.ServiceParseMs = Traced.ParseMs;
  F.ServiceRejectedFrac =
      ratio(double(Traced.Rejected), double(Traced.LatencyMs.size()));
  F.L = runLayerPass(G, Corpus, Refs, F.Config, R, T);
  // Reconciliation: the layers ParseMillis covers (the parse that builds
  // the tree), timed alone, against the service's ParseMillis for the same
  // documents.
  double Layers = 0, Service_ = 0;
  for (const auto &[Index, Ms] : Traced.Completed) {
    Layers += F.L.ParseMillisLayersMs[Index];
    Service_ += Ms;
  }
  F.CoveredShare = ratio(Layers, Service_);
  R.Notes.push_back("reconciliation: layer self times cover " +
                    std::to_string(int(100 * F.CoveredShare + 0.5)) +
                    "% of ParseMillis over " +
                    std::to_string(Traced.Completed.size()) + " documents");
  netProbe(G, Corpus, Refs, true,
           (F.L.LexMs + F.L.TreeParseMs + F.L.RenderMs) / double(F.L.Items), R,
           T, F, false);
  F.FullParseEvents = fullParseEvents(G, ProbeDocs);
  F.Edits = runEditLoop(G, ProbeDocs, 2.0, R, &T);
  F.ScratchMs = scratchSamples(G, ProbeDocs, T);
  F.SelfMs = T.selfMs();
  noteSelfTimes(R, F.SelfMs);
  addLayerMetrics(R, F);
  writeTrace(O, T);
  return R;
}

//===----------------------------------------------------------------------===//
// daemon
//===----------------------------------------------------------------------===//

namespace {

/// The nominal offered rate (one ladder step) and the latency limit the
/// ladder holds p99 to.
constexpr double NominalRate = 1000;
constexpr double LatencyLimitMs = 50;
/// The ladder: 250 * 2^(k/16) req/s, k = 0, 1, ... (4.4% apart).
double ladderRate(int K) { return 250.0 * std::pow(2.0, K / 16.0); }
constexpr int NominalStep = 32; // 250 * 2^2 = 1000
constexpr int LadderTop = 160;  // 256000 req/s

bool stepPasses(const OpenLoopRun &Run) {
  return Run.Rejected == 0 && Run.Mismatched == 0 &&
         Run.Answered == Run.Sent &&
         quantile(Run.LatencyMs, 0.99) <= LatencyLimitMs &&
         double(Run.BacklogAtEnd) <= Run.Rate * LatencyLimitMs / 1e3 + 1;
}

} // namespace

Result runDaemon(const Options &O) {
  Result R;
  GrammarSet G;
  G.Sources = shippedGrammars(O.Root);
  for (GrammarSource &S : analogGrammars())
    G.Sources.push_back(std::move(S));
  std::vector<Item> Pool = daemonPool(G.Sources, 3000, O.Seed);
  int64_t PoolBytes = 0;
  for (const Item &It : Pool)
    PoolBytes += int64_t(It.Text.size());
  R.Notes.push_back("request pool: " + std::to_string(Pool.size()) +
                    " requests, " + std::to_string(PoolBytes) + " bytes over " +
                    std::to_string(G.Sources.size()) + " grammars");

  std::vector<EditDoc> ProbeDocs;
  if (O.Trace) {
    // The incremental probe: the four largest requests.
    std::vector<size_t> Order(Pool.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Pool[A].Text.size() > Pool[B].Text.size();
    });
    Order.resize(4);
    ProbeDocs = probeEditDocs(Pool, Order, O.Seed);
  }
  std::vector<uint64_t> W = runInChild([&] {
    GrammarSet C;
    C.Sources = G.Sources;
    buildBundles(C, false);
    std::vector<Reference> Refs(Pool.size());
    parallelFor(Pool.size(), hostThreads(),
                [&](size_t I) { Refs[I] = referenceParse(C, Pool[I]); });
    std::vector<uint64_t> Out;
    packRefs(Out, Refs);
    editReferences(C, ProbeDocs, hostThreads());
    packEditRefs(Out, ProbeDocs);
    return Out;
  });
  size_t At = 0;
  std::vector<Reference> Refs = unpackRefs(W, At, Pool.size(), R);
  unpackEditRefs(W, At, ProbeDocs);
  if (O.CorruptReference)
    corrupt(Refs), corrupt(ProbeDocs);

  // Set-up: daemon started and every LoadBundle answered.
  std::vector<double> Setup;
  std::unique_ptr<DaemonHost> D;
  for (int Rep = 0; Rep < 3; ++Rep) {
    D.reset();
    auto T0 = Clock::now();
    D = std::make_unique<DaemonHost>(G, false);
    Setup.push_back(secondsSince(T0));
  }
  unsigned Conns = std::max(1u, hostThreads() / 2);
  // Warm-up at the nominal rate.
  runOpenLoopDaemon(*D, G, Pool, Refs, NominalRate, 1.0, Conns, 0, true, R,
                    nullptr);

  if (!O.Trace) {
    OpenLoopRun Nominal =
        runOpenLoopDaemon(*D, G, Pool, Refs, NominalRate, 0.4 * O.Seconds,
                          Conns, 0, true, R, nullptr);
    // Ladder search: climb from the nominal step until a step fails, then
    // bisect between the last pass and the first failure.
    double Budget = 0.6 * O.Seconds;
    auto Probe = [&](int K) {
      double Rate = ladderRate(K);
      double Secs = std::max(Budget / 12, 2000.0 / Rate);
      OpenLoopRun Run = runOpenLoopDaemon(*D, G, Pool, Refs, Rate, Secs, Conns,
                                          size_t(K) * 977, false, R, nullptr);
      bool Pass = stepPasses(Run);
      char Buf[160];
      std::snprintf(Buf, sizeof Buf,
                    "ladder %.0f req/s: p99 %.2f ms, backlog %lld, rejected "
                    "%lld -> %s",
                    Rate, quantile(Run.LatencyMs, 0.99),
                    (long long)Run.BacklogAtEnd, (long long)Run.Rejected,
                    Pass ? "pass" : "fail");
      R.Notes.push_back(Buf);
      return Pass;
    };
    int Lo = -1, Hi = -1; // highest pass, lowest fail
    if (stepPasses(Nominal)) {
      Lo = NominalStep;
      for (int Jump = 8;; Jump *= 2) {
        int K = Lo + Jump;
        if (K > LadderTop || !Probe(K)) {
          Hi = std::min(K, LadderTop + 1);
          break;
        }
        Lo = K;
      }
    } else {
      Hi = NominalStep;
      for (int K = NominalStep - 16; K >= 0; K -= 16)
        if (Probe(K)) {
          Lo = K;
          break;
        } else {
          Hi = K;
        }
    }
    while (Lo >= 0 && Hi - Lo > 1) {
      int Mid = (Lo + Hi) / 2;
      if (Probe(Mid))
        Lo = Mid;
      else
        Hi = Mid;
    }
    addSetup(R, Setup);
    R.add("peak_rss_mb", peakRssMb(), "MB");
    R.add("mb_s",
          Lo >= 0 ? ladderRate(Lo) * double(PoolBytes) /
                        double(Pool.size()) / 1e6
                  : 0,
          "MB/s", {}, "request bytes/s at max_rps");
    R.add("max_rps", Lo >= 0 ? ladderRate(Lo) : 0, "req/s", {},
          "highest ladder step with p99 <= " +
              std::to_string(int(LatencyLimitMs)) + " ms");
    addLatency(R, Nominal.LatencyMs);
    R.Notes.push_back("nominal " + std::to_string(int(NominalRate)) +
                      " req/s over " + std::to_string(Conns) +
                      " connections; generator late p99 " +
                      std::to_string(quantile(Nominal.LateMs, 0.99)) + " ms");
    return R;
  }

  Tracer T;
  TracedFigures F;
  F.Config = {false, true};
  F.A = measureAnalysis(G.Sources, T);
  double Secs = O.Seconds / 3;
  OpenLoopRun Plain = runOpenLoopDaemon(*D, G, Pool, Refs, NominalRate, Secs,
                                        Conns, 0, true, R, nullptr);
  F.Net = runOpenLoopDaemon(*D, G, Pool, Refs, NominalRate, Secs, Conns, 0,
                            true, R, &T);
  D.reset();
  F.OverheadFrac = ratio(quantile(F.Net.LatencyMs, 0.5),
                         quantile(Plain.LatencyMs, 0.5)) - 1;
  buildBundles(G, false);
  OpenLoopRun Direct;
  {
    ParseService S;
    Direct = runOpenLoopService(S, G, Pool, Refs, NominalRate, Secs, 0, R);
  }
  F.QueueWaitMs = Direct.QueueWaitMs;
  F.ServiceParseMs = Direct.ParseMs;
  F.ServiceRejectedFrac = ratio(double(Direct.Rejected), double(Direct.Sent));
  F.NetAddedP50Ms =
      quantile(F.Net.LatencyMs, 0.5) - quantile(Direct.LatencyMs, 0.5);
  F.L = runLayerPass(G, Pool, Refs, F.Config, R, T);
  // Reconciliation of the client-seen latency (mean, from the due time):
  // generator lateness + client encode + queue wait + ParseMillis + server
  // encode + client decode.
  double Items = double(F.L.Items);
  double ServerMs = 0;
  for (const auto &[Name, Ms] : T.selfMs())
    if (Name == "net.server")
      ServerMs = Ms / Items;
  double Parts = mean(F.Net.LateMs) + F.L.EncodeMs / Items +
                 mean(Direct.QueueWaitMs) + mean(F.Net.ParseMs) + ServerMs +
                 F.L.DecodeMs / Items;
  F.CoveredShare = ratio(Parts, mean(F.Net.LatencyMs));
  R.Notes.push_back(
      "reconciliation: late + encode + queue wait + ParseMillis + server "
      "encode + decode cover " +
      std::to_string(int(100 * F.CoveredShare + 0.5)) +
      "% of the mean client latency; the rest is socket and thread hand-off");
  F.FullParseEvents = fullParseEvents(G, ProbeDocs);
  F.Edits = runEditLoop(G, ProbeDocs, 2.0, R, &T);
  F.ScratchMs = scratchSamples(G, ProbeDocs, T);
  F.SelfMs = T.selfMs();
  noteSelfTimes(R, F.SelfMs);
  addLayerMetrics(R, F);
  writeTrace(O, T);
  return R;
}

//===----------------------------------------------------------------------===//
// edit
//===----------------------------------------------------------------------===//

Result runEdit(const Options &O) {
  Result R;
  GrammarSet G;
  for (GrammarSource &S : shippedGrammars(O.Root))
    if (S.Name == "Lua" || S.Name == "Json")
      G.Sources.push_back(std::move(S));
  std::vector<EditDoc> Docs;
  for (size_t GI = 0; GI < G.Sources.size(); ++GI) {
    EditDoc D;
    D.Grammar = int(GI);
    D.Base = generateBytes(G.Sources[GI], size_t(100) << 10, O.Seed * 7 + GI);
    D.Script = editScript(D.Base, 96, O.Seed * 13 + GI);
    Docs.push_back(std::move(D));
  }
  size_t Steps = 0, Bytes = 0;
  for (const EditDoc &D : Docs)
    Steps += D.Script.size(), Bytes += D.Base.size();
  R.Notes.push_back("documents: one Lua and one Json, " +
                    std::to_string(Bytes) + " bytes; " +
                    std::to_string(Steps) + " script steps");
  std::vector<Item> Bases;
  for (const EditDoc &D : Docs)
    Bases.push_back({D.Grammar, D.Base});

  std::vector<uint64_t> W = runInChild([&] {
    GrammarSet C;
    C.Sources = G.Sources;
    buildBundles(C, false);
    editReferences(C, Docs, hostThreads());
    std::vector<uint64_t> Out;
    packEditRefs(Out, Docs);
    std::vector<Reference> Refs;
    for (const Item &It : Bases)
      Refs.push_back(referenceParse(C, It));
    packRefs(Out, Refs);
    return Out;
  });
  size_t At = 0;
  unpackEditRefs(W, At, Docs);
  std::vector<Reference> BaseRefs = unpackRefs(W, At, Bases.size(), R);
  if (O.CorruptReference)
    corrupt(Docs), corrupt(BaseRefs);

  // Set-up: bundles built plus the first reset() of every document.
  std::vector<double> Setup;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    auto T0 = Clock::now();
    buildBundles(G, false);
    for (const EditDoc &D : Docs) {
      incremental::SessionOptions SO;
      SO.StartRule = G.Sources[size_t(D.Grammar)].StartRule;
      incremental::IncrementalSession S(G.Bundles[size_t(D.Grammar)], SO);
      S.reset(D.Base);
    }
    Setup.push_back(secondsSince(T0));
  }

  runEditLoop(G, Docs, 1.0, R, nullptr); // warm-up
  if (!O.Trace) {
    EditLoopRun Run = runEditLoop(G, Docs, O.Seconds, R, nullptr);
    addSetup(R, Setup);
    R.add("peak_rss_mb", peakRssMb(), "MB");
    // Throughput of the edit path alone: document bytes kept parsed per
    // second of edit time, per tenth of the run, median of the tenths.
    std::vector<double> MbS =
        perChunk(Run.EditMs, 10, [&](const std::vector<double> &Ms) {
          return Run.DocBytes / 1e6 / (std::max(mean(Ms), 1e-9) / 1e3);
        });
    R.add("mb_s", median(MbS), "MB/s", MbS,
          "document bytes kept parsed per second of edit time");
    addLatency(R, Run.EditMs);
    for (size_t Di = 0; Di < Docs.size(); ++Di)
      R.Notes.push_back(G.Sources[size_t(Docs[Di].Grammar)].Name +
                        " edits: p50 " +
                        std::to_string(quantile(Run.DocEditMs[Di], 0.5)) +
                        " ms, p99 " +
                        std::to_string(quantile(Run.DocEditMs[Di], 0.99)) +
                        " ms");
    return R;
  }

  Tracer T;
  TracedFigures F;
  F.Config = {false, false};
  F.A = measureAnalysis(G.Sources, T);
  EditLoopRun Plain = runEditLoop(G, Docs, O.Seconds / 3, R, nullptr);
  F.Edits = runEditLoop(G, Docs, O.Seconds / 3, R, &T);
  F.OverheadFrac =
      ratio(quantile(F.Edits.EditMs, 0.5), quantile(Plain.EditMs, 0.5)) - 1;
  F.L = runLayerPass(G, Bases, BaseRefs, F.Config, R, T);
  F.FullParseEvents = fullParseEvents(G, Docs);
  F.ScratchMs = scratchSamples(G, Docs, T);
  // Reconciliation: applyEdit cannot be split from outside, so the layer
  // pass is reconciled against the from-scratch parse it stands in for.
  double LayerMs =
      (F.L.LexMs + F.L.TreeParseMs + F.L.RenderMs) / double(F.L.Items);
  F.CoveredShare = ratio(LayerMs, mean(F.ScratchMs));
  R.Notes.push_back("reconciliation: lex + tree parse + render of the base "
                    "documents cover " +
                    std::to_string(int(100 * F.CoveredShare + 0.5)) +
                    "% of a mean scratchParse");
  netProbe(G, Bases, BaseRefs, false,
           (F.L.LexMs + F.L.TreeParseMs + F.L.RenderMs) / double(F.L.Items), R,
           T, F, true);
  F.SelfMs = T.selfMs();
  noteSelfTimes(R, F.SelfMs);
  addLayerMetrics(R, F);
  writeTrace(O, T);
  return R;
}

} // namespace perfbench

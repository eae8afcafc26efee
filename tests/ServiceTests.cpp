//===- tests/ServiceTests.cpp - Batch parsing service ---------------------===//
//
// Coverage for the src/service/ subsystem: the bump-pointer arena and
// arena parse trees, the shared grammar-bundle cache, and the
// multi-threaded ParseService — determinism across thread counts,
// graceful deadline/queue-full/token-limit rejection, and merged
// statistics. These tests are also the workload of the ThreadSanitizer CI
// job; keep them free of intentional races.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "codegen/Serializer.h"
#include "fuzz/SentenceSampler.h"
#include "runtime/Arena.h"
#include "runtime/ArenaParseTree.h"
#include "service/ParseService.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>

using namespace llstar;
using namespace llstar::test;

namespace {

const char *ExprGrammar = R"(
grammar Expr;
s    : expr EOF ;
expr : term (('+' | '-') term)* ;
term : atom ('*' atom)* ;
atom : INT | '(' expr ')' ;
INT  : [0-9]+ ;
WS   : [ \t\r\n]+ -> skip ;
)";

std::shared_ptr<const GrammarBundle> bundleOrFail(GrammarBundleCache &Cache,
                                                  std::string_view Text) {
  DiagnosticEngine Diags;
  auto Bundle = Cache.get(Text, Diags);
  EXPECT_TRUE(Bundle) << Diags.str();
  return Bundle;
}

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena A(/*BlockBytes=*/64); // tiny blocks force growth
  std::vector<char *> Ptrs;
  for (int I = 0; I < 100; ++I) {
    char *P = static_cast<char *>(A.allocate(24, 8));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 8, 0u);
    std::memset(P, I, 24); // ASan-visible if regions overlap
    Ptrs.push_back(P);
  }
  for (int I = 0; I < 100; ++I)
    for (int B = 0; B < 24; ++B)
      ASSERT_EQ(Ptrs[I][B], char(I));
  EXPECT_EQ(A.bytesUsed(), 100u * 24);
  EXPECT_GE(A.bytesReserved(), A.bytesUsed());
}

TEST(ArenaTest, ResetRecyclesTheLargestBlock) {
  Arena A(/*BlockBytes=*/64);
  for (int I = 0; I < 1000; ++I)
    A.allocate(32, 8);
  size_t Reserved = A.bytesReserved();
  A.reset();
  EXPECT_EQ(A.bytesUsed(), 0u);
  EXPECT_LE(A.bytesReserved(), Reserved);
  // A same-sized second round must not grow the arena further: the kept
  // block already fits the peak.
  for (int Round = 0; Round < 3; ++Round) {
    for (int I = 0; I < 1000; ++I)
      A.allocate(32, 8);
    size_t After = A.bytesReserved();
    A.reset();
    EXPECT_LE(A.bytesReserved(), After);
  }
}

TEST(ArenaTest, CreateConstructsInPlace) {
  struct Node {
    int A;
    double B;
  };
  Arena Arena;
  Node *N = Arena.create<Node>(7, 2.5);
  EXPECT_EQ(N->A, 7);
  EXPECT_EQ(N->B, 2.5);
}

TEST(ArenaParseTreeTest, BuildsAndRendersLikeHeapTrees) {
  auto AG = analyzeOrFail(ExprGrammar);
  ASSERT_TRUE(AG);
  std::string Input = "1 + 2 * (3 - 4)";

  // Owned result.
  TokenStream S1 = lexOrFail(*AG, Input);
  DiagnosticEngine D1;
  LLStarParser P1(*AG, S1, nullptr, D1);
  auto OwnedTree = P1.parse("");
  ASSERT_TRUE(P1.ok()) << D1.str();

  // Caller arena.
  Arena A;
  TokenStream S2 = lexOrFail(*AG, Input);
  DiagnosticEngine D2;
  ParserOptions Opts;
  Opts.TreeArena = &A;
  LLStarParser P2(*AG, S2, nullptr, D2, Opts);
  auto NoOwnedTree = P2.parse("");
  ASSERT_TRUE(P2.ok()) << D2.str();
  EXPECT_EQ(NoOwnedTree, nullptr); // a caller arena gets no owned tree
  ASSERT_NE(P2.arenaTree(), nullptr);

  EXPECT_EQ(OwnedTree->str(AG->grammar()),
            P2.arenaTree()->str(AG->grammar(), S2));
  EXPECT_GT(A.bytesUsed(), 0u);
  EXPECT_GT(P2.arenaTree()->size(), 1u);
}

//===----------------------------------------------------------------------===//
// GrammarBundleCache
//===----------------------------------------------------------------------===//

TEST(GrammarBundleCacheTest, IdenticalContentSharesOneBundle) {
  GrammarBundleCache Cache;
  auto B1 = bundleOrFail(Cache, ExprGrammar);
  auto B2 = bundleOrFail(Cache, ExprGrammar);
  ASSERT_TRUE(B1 && B2);
  EXPECT_EQ(B1.get(), B2.get()); // the same shared instance
  EXPECT_EQ(B1->contentHash(), B2->contentHash());

  auto Stats = Cache.stats();
  EXPECT_EQ(Stats.Misses, 1);
  EXPECT_EQ(Stats.Hits, 1);
  EXPECT_EQ(Stats.Entries, 1u);
}

TEST(GrammarBundleCacheTest, RejectsCorruptBundlesWithoutCaching) {
  GrammarBundleCache Cache;
  DiagnosticEngine Diags;
  EXPECT_EQ(Cache.get("llstarbundle 1 4 123\nXYZ", Diags), nullptr);
  EXPECT_TRUE(Diags.hasErrors());
  auto Stats = Cache.stats();
  EXPECT_EQ(Stats.LoadFailures, 1);
  EXPECT_EQ(Stats.Entries, 0u);
}

TEST(GrammarBundleCacheTest, LoadsSerializedBundles) {
  auto AG = analyzeOrFail(ExprGrammar);
  ASSERT_TRUE(AG);
  std::string Bytes = writeBundle(*AG);
  ASSERT_TRUE(looksLikeBundle(Bytes));

  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, Bytes);
  ASSERT_TRUE(Bundle);
  EXPECT_EQ(Bundle->name(), "Expr");

  // The loaded tables parse exactly like the source grammar.
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = Bundle->tokenize("2 * 3 + 4", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  TokenStream Stream(std::move(Tokens));
  LLStarParser P(Bundle->analyzed(), Stream, nullptr, Diags);
  auto Tree = P.parse("");
  ASSERT_TRUE(P.ok()) << Diags.str();
  EXPECT_EQ(Tree->str(Bundle->grammar()),
            parseToString(*AG, "2 * 3 + 4"));
}

TEST(GrammarBundleCacheTest, ConcurrentGetsProduceOneEntry) {
  GrammarBundleCache Cache;
  std::vector<std::thread> Threads;
  std::vector<std::shared_ptr<const GrammarBundle>> Bundles(8);
  for (int I = 0; I < 8; ++I)
    Threads.emplace_back([&Cache, &Bundles, I] {
      DiagnosticEngine Diags;
      Bundles[size_t(I)] = Cache.get(ExprGrammar, Diags);
    });
  for (std::thread &T : Threads)
    T.join();
  for (const auto &B : Bundles) {
    ASSERT_TRUE(B);
    EXPECT_EQ(B.get(), Bundles[0].get());
  }
  EXPECT_EQ(Cache.stats().Entries, 1u);
}

//===----------------------------------------------------------------------===//
// ParseService
//===----------------------------------------------------------------------===//

ParseRequest makeReq(std::shared_ptr<const GrammarBundle> Bundle,
                     std::string Id, std::string Input,
                     bool WantTree = true) {
  ParseRequest Req;
  Req.Bundle = std::move(Bundle);
  Req.Id = std::move(Id);
  Req.Input = std::move(Input);
  Req.WantTree = WantTree;
  return Req;
}

TEST(ParseServiceTest, ParsesAndClassifiesResults) {
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  ServiceConfig Config;
  Config.Threads = 2;
  ParseService Service(Config);

  auto FOk = Service.submit(makeReq(Bundle, "ok", "1 + 2 * 3"));
  auto FSyntax = Service.submit(makeReq(Bundle, "syn", "1 + + 2"));
  auto FLex = Service.submit(makeReq(Bundle, "lex", "1 + @"));
  auto FBadRule = [&] {
    ParseRequest Req = makeReq(Bundle, "rule", "1");
    Req.StartRule = "nosuchrule";
    return Service.submit(std::move(Req));
  }();
  auto FNoBundle = Service.submit(makeReq(nullptr, "nobundle", "1"));

  ParseResult ROk = FOk.get();
  EXPECT_EQ(ROk.Status, ParseStatus::Ok);
  // The arena-built service tree renders byte-identically to a plain
  // single-threaded one-shot parse.
  auto AG = analyzeOrFail(ExprGrammar);
  ASSERT_TRUE(AG);
  EXPECT_EQ(ROk.TreeText, parseToString(*AG, "1 + 2 * 3"));
  EXPECT_EQ(ROk.NumTokens, 5);
  EXPECT_GT(ROk.TreeNodes, 0);

  EXPECT_EQ(FSyntax.get().Status, ParseStatus::SyntaxError);
  EXPECT_EQ(FLex.get().Status, ParseStatus::LexError);
  EXPECT_EQ(FBadRule.get().Status, ParseStatus::BadRequest);
  EXPECT_EQ(FNoBundle.get().Status, ParseStatus::BadRequest);

  Service.shutdown();
  ServiceMetrics M = Service.metrics();
  EXPECT_EQ(M.Submitted, 5);
  EXPECT_EQ(M.Ok, 1);
  EXPECT_EQ(M.SyntaxErrors, 1);
  EXPECT_EQ(M.LexErrors, 1);
  EXPECT_EQ(M.Completed, 3);
}

TEST(ParseServiceTest, TokenLimitRejectsGracefully) {
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  ServiceConfig Config;
  Config.Threads = 1;
  Config.MaxTokens = 3;
  ParseService Service(Config);

  EXPECT_EQ(Service.submit(makeReq(Bundle, "small", "1 + 2")).get().Status,
            ParseStatus::Ok);
  ParseResult Big = Service.submit(makeReq(Bundle, "big", "1 + 2 + 3")).get();
  EXPECT_EQ(Big.Status, ParseStatus::TooManyTokens);
  EXPECT_NE(Big.DiagText.find("limit is 3"), std::string::npos);
  EXPECT_EQ(Service.metrics().RejectedTooManyTokens, 1);
}

TEST(ParseServiceTest, QueueFullRejectsInsteadOfBlocking) {
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  ServiceConfig Config;
  Config.Threads = 1;
  Config.QueueCapacity = 2;
  Config.AutoStart = false; // nothing drains: the queue fills predictably
  ParseService Service(Config);

  auto F1 = Service.submit(makeReq(Bundle, "a", "1"));
  auto F2 = Service.submit(makeReq(Bundle, "b", "2"));
  auto F3 = Service.submit(makeReq(Bundle, "c", "3"));
  EXPECT_EQ(Service.queueDepth(), 2u);
  // The overflow future is already resolved — no blocking, no exception.
  EXPECT_EQ(F3.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(F3.get().Status, ParseStatus::QueueFull);

  Service.start();
  EXPECT_EQ(F1.get().Status, ParseStatus::Ok);
  EXPECT_EQ(F2.get().Status, ParseStatus::Ok);
  EXPECT_EQ(Service.metrics().RejectedQueueFull, 1);
}

TEST(ParseServiceTest, DeadlineExpiredWhileQueued) {
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  ServiceConfig Config;
  Config.Threads = 1;
  Config.AutoStart = false;
  ParseService Service(Config);

  ParseRequest Req = makeReq(Bundle, "stale", "1 + 2");
  Req.Deadline = std::chrono::milliseconds(1);
  auto F = Service.submit(std::move(Req));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Service.start();
  ParseResult R = F.get();
  EXPECT_EQ(R.Status, ParseStatus::DeadlineExceeded);
  EXPECT_NE(R.DiagText.find("while queued"), std::string::npos);
  EXPECT_EQ(Service.metrics().DeadlineExceeded, 1);
}

TEST(ParseServiceTest, DeadlineInterruptsARunningParse) {
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  // A long but trivial input: tokenization alone outlasts the 1ms
  // deadline, so expiry is detected by the parser's poll, mid-parse.
  std::string Input = "1";
  for (int I = 0; I < 200000; ++I)
    Input += " + 1";
  ServiceConfig Config;
  Config.Threads = 1;
  ParseService Service(Config);
  ParseRequest Req = makeReq(Bundle, "slow", std::move(Input));
  Req.Deadline = std::chrono::milliseconds(1);
  ParseResult R = Service.submit(std::move(Req)).get();
  EXPECT_EQ(R.Status, ParseStatus::DeadlineExceeded);
  EXPECT_NE(R.DiagText.find("deadline"), std::string::npos);
}

TEST(ParseServiceTest, ShutdownDrainsQueuedWorkAndRejectsLateSubmits) {
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  ServiceConfig Config;
  Config.Threads = 1;
  Config.AutoStart = false;
  ParseService Service(Config);

  auto F1 = Service.submit(makeReq(Bundle, "q1", "1"));
  Service.shutdown(); // workers never started; queued futures must resolve
  EXPECT_EQ(F1.get().Status, ParseStatus::ShuttingDown);
  EXPECT_EQ(Service.submit(makeReq(Bundle, "late", "1")).get().Status,
            ParseStatus::ShuttingDown);
  EXPECT_EQ(Service.metrics().RejectedShutdown, 2);
}

//===----------------------------------------------------------------------===//
// submitAsync and drain
//===----------------------------------------------------------------------===//

TEST(ParseServiceTest, SubmitAsyncRejectionsRunTheCallbackInline) {
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  ServiceConfig Config;
  Config.Threads = 1;
  Config.QueueCapacity = 1;
  Config.AutoStart = false; // nothing drains: overflow is deterministic
  ParseService Service(Config);

  bool FirstDone = false, SecondDone = false;
  ParseResult Overflow;
  Service.submitAsync(makeReq(Bundle, "a", "1"),
                      [&](ParseResult) { FirstDone = true; });
  Service.submitAsync(makeReq(Bundle, "b", "2"), [&](ParseResult R) {
    SecondDone = true;
    Overflow = std::move(R);
  });
  // The queue-full rejection resolved before submitAsync returned; the
  // accepted request has not run (no workers yet).
  EXPECT_FALSE(FirstDone);
  EXPECT_TRUE(SecondDone);
  EXPECT_EQ(Overflow.Status, ParseStatus::QueueFull);

  Service.drain(); // starts the pool and waits for "a"
  EXPECT_TRUE(FirstDone);
}

TEST(ParseServiceTest, DrainWaitsForQueuedAndInFlightCallbacks) {
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  ServiceConfig Config;
  Config.Threads = 2;
  Config.AutoStart = false; // queue everything first, then drain
  ParseService Service(Config);

  std::atomic<int> Done{0};
  for (int I = 0; I < 16; ++I)
    Service.submitAsync(makeReq(Bundle, std::to_string(I), "1 + 2 * 3"),
                        [&](ParseResult R) {
                          EXPECT_EQ(R.Status, ParseStatus::Ok);
                          ++Done;
                        });
  EXPECT_EQ(Done.load(), 0);
  Service.drain();
  // Quiescence means *callbacks ran*, not merely "queue empty": every
  // result was delivered before drain returned.
  EXPECT_EQ(Done.load(), 16);

  // Unlike shutdown, the service stays usable afterwards.
  EXPECT_EQ(Service.submit(makeReq(Bundle, "after", "4 * 5")).get().Status,
            ParseStatus::Ok);
  Service.drain(); // idempotent on an idle service
  EXPECT_EQ(Service.metrics().Ok, 17);
}

TEST(ParseServiceTest, DrainOnAnIdleOrFreshServiceReturnsImmediately) {
  ParseService Service(ServiceConfig{.Threads = 1, .AutoStart = false});
  Service.drain(); // never started, nothing queued: must not hang
  Service.drain();
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  EXPECT_EQ(Service.submit(makeReq(Bundle, "x", "1")).get().Status,
            ParseStatus::Ok);
}

//===----------------------------------------------------------------------===//
// Determinism and merged statistics across thread counts
//===----------------------------------------------------------------------===//

struct Outcome {
  ParseStatus Status;
  std::string Tree, Diags;
  int64_t Tokens;
  bool operator==(const Outcome &O) const {
    return Status == O.Status && Tree == O.Tree && Diags == O.Diags &&
           Tokens == O.Tokens;
  }
};

/// Runs \p Workload through a fresh service with \p Threads workers and
/// returns per-id outcomes plus the metrics snapshot.
std::map<std::string, Outcome>
runWorkload(const std::vector<ParseRequest> &Workload, int Threads,
            ServiceMetrics &MetricsOut) {
  ServiceConfig Config;
  Config.Threads = Threads;
  ParseService Service(Config);
  std::vector<std::future<ParseResult>> Futures;
  for (const ParseRequest &Req : Workload)
    Futures.push_back(Service.submit(ParseRequest(Req)));
  std::map<std::string, Outcome> Out;
  for (auto &F : Futures) {
    ParseResult R = F.get();
    Out[R.Id] = {R.Status, R.TreeText, R.DiagText, R.NumTokens};
  }
  Service.shutdown();
  MetricsOut = Service.metrics();
  return Out;
}

TEST(ParseServiceTest, CorpusIsByteIdenticalAcrossThreadCounts) {
  namespace fs = std::filesystem;
  std::string CorpusDir = std::string(LLSTAR_SOURCE_DIR) + "/tests/corpus";
  GrammarBundleCache Cache;
  std::vector<ParseRequest> Workload;

  std::vector<std::string> Paths;
  for (const auto &Entry : fs::directory_iterator(CorpusDir))
    if (Entry.path().extension() == ".g")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  ASSERT_FALSE(Paths.empty());

  for (const std::string &Path : Paths) {
    DiagnosticEngine Diags;
    auto Bundle = Cache.getFile(Path, Diags);
    ASSERT_TRUE(Bundle) << Path << "\n" << Diags.str();
    fuzz::SentenceSampler Sampler(Bundle->grammar(), /*Seed=*/2026);
    for (int I = 0; I < 8; ++I)
      Workload.push_back(
          makeReq(Bundle, Path + "#" + std::to_string(I),
                  fuzz::SentenceSampler::render(Sampler.sample())));
  }

  ServiceMetrics M1, M8;
  auto Single = runWorkload(Workload, 1, M1);
  auto Parallel = runWorkload(Workload, 8, M8);
  ASSERT_EQ(Single.size(), Parallel.size());
  for (const auto &[Id, Expected] : Single) {
    const Outcome &Got = Parallel.at(Id);
    EXPECT_TRUE(Expected == Got)
        << Id << ": 1-thread vs 8-thread results diverge\n"
        << "  status " << statusName(Expected.Status) << " vs "
        << statusName(Got.Status) << "\n  tree   " << Expected.Tree
        << "\n  vs     " << Got.Tree;
  }

  // The merged statistics are thread-count invariant: per-worker stats
  // merged via ParserStats::merge must equal the single-thread totals.
  EXPECT_EQ(M1.Ok, M8.Ok);
  EXPECT_EQ(M1.SyntaxErrors, M8.SyntaxErrors);
  EXPECT_EQ(M1.TokensParsed, M8.TokensParsed);
  EXPECT_EQ(M1.Parser.json(/*IncludeDecisions=*/true),
            M8.Parser.json(/*IncludeDecisions=*/true));
}

//===----------------------------------------------------------------------===//
// Error-recovering requests
//===----------------------------------------------------------------------===//

TEST(ParseServiceTest, RecoveredRequestsReturnPartialTreesAndErrors) {
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  ServiceConfig Config;
  Config.Threads = 2;
  ParseService Service(Config);

  ParseRequest Req = makeReq(Bundle, "rec", "1 + + 2");
  Req.Recover = true;
  ParseResult R = Service.submit(std::move(Req)).get();
  EXPECT_EQ(R.Status, ParseStatus::Recovered);
  // A partial tree with error leaves came back, not an empty failure.
  EXPECT_NE(R.TreeText.find("(error"), std::string::npos) << R.TreeText;
  ASSERT_FALSE(R.Errors.empty());
  for (const Diagnostic &D : R.Errors)
    EXPECT_EQ(D.Severity, DiagSeverity::Error);
  // Structured errors come sorted by source position.
  for (size_t I = 1; I < R.Errors.size(); ++I) {
    const SourceLocation &A = R.Errors[I - 1].Loc, &B = R.Errors[I].Loc;
    EXPECT_TRUE(A.Line < B.Line || (A.Line == B.Line && A.Column <= B.Column));
  }

  // The identical input without Recover stays a plain failure.
  ParseResult Strict = Service.submit(makeReq(Bundle, "syn", "1 + + 2")).get();
  EXPECT_EQ(Strict.Status, ParseStatus::SyntaxError);

  Service.shutdown();
  ServiceMetrics M = Service.metrics();
  EXPECT_EQ(M.Recovered, 1);
  EXPECT_EQ(M.SyntaxErrors, 1);
  EXPECT_EQ(M.Completed, 2);
  EXPECT_NE(M.json().find("\"recovered\":1"), std::string::npos);
}

TEST(ParseServiceTest, TreeNodesMatchTheTreeWalk) {
  // The engines count nodes as they build them; the count reported per
  // request must equal a walk of a one-shot parse of the same input.
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  const AnalyzedGrammar &AG = Bundle->analyzed();
  for (bool Compiled : {false, true}) {
    ServiceConfig Config;
    Config.Threads = 1;
    Config.UseCompiled = Compiled;
    ParseService Service(Config);
    for (auto [Input, Status] :
         {std::pair{"(1 + 2) * 3 + 4", ParseStatus::Ok},
          std::pair{"1 + + (2 * ) 3", ParseStatus::Recovered}}) {
      SCOPED_TRACE(std::string(Compiled ? "compiled" : "interp") + " <" +
                   Input + ">");
      ParseRequest Req = makeReq(Bundle, Input, Input);
      Req.Recover = true;
      ParseResult R = Service.submit(std::move(Req)).get();

      TokenStream Stream = lexOrFail(AG, Input);
      DiagnosticEngine Diags;
      LLStarParser P(AG, Stream, /*Env=*/nullptr, Diags);
      auto Tree = P.parse();
      ASSERT_TRUE(Tree);
      EXPECT_EQ(R.Status, Status);
      EXPECT_EQ(R.TreeText, Tree->str(AG.grammar()));
      EXPECT_EQ(R.TreeNodes, int64_t(Tree->size()));
    }
  }
}

TEST(ParseServiceTest, RepairCountersMergeAcrossWorkers) {
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);

  // Ground truth: one single-threaded recovering parse per input, merged
  // by hand with ParserStats::merge.
  const char *Inputs[] = {"1 + + 2", "1 2",     "( 1",  "1 + 2 +",
                          "* 3",     "1 + 2",   ") ) )", "( ( 1",
                          "2 * * 2", "1 1 1 1", "(",     "3 - - 3"};
  auto AG = analyzeOrFail(ExprGrammar);
  ASSERT_TRUE(AG);
  ParserStats Expected;
  for (const char *Input : Inputs) {
    TokenStream Stream = lexOrFail(*AG, Input);
    DiagnosticEngine Diags;
    ParserOptions Opts;
    Opts.Memoize = AG->grammar().Options.Memoize;
    Opts.Recover = true;
    LLStarParser P(*AG, Stream, nullptr, Diags, Opts);
    P.parse();
    Expected.merge(P.stats());
  }

  // 8 workers chew the same inputs; merged repair counters must match the
  // single-threaded totals exactly, whatever the scheduling.
  ServiceConfig Config;
  Config.Threads = 8;
  ParseService Service(Config);
  std::vector<std::future<ParseResult>> Futures;
  for (const char *Input : Inputs) {
    ParseRequest Req = makeReq(Bundle, Input, Input, /*WantTree=*/false);
    Req.Recover = true;
    Futures.push_back(Service.submit(std::move(Req)));
  }
  for (auto &F : Futures)
    F.get();
  Service.shutdown();

  ServiceMetrics M = Service.metrics();
  EXPECT_EQ(M.Parser.TokensDeleted, Expected.TokensDeleted);
  EXPECT_EQ(M.Parser.TokensInserted, Expected.TokensInserted);
  EXPECT_EQ(M.Parser.PanicSyncs, Expected.PanicSyncs);
  EXPECT_EQ(M.Parser.SyntaxErrors, Expected.SyntaxErrors);
  EXPECT_GT(Expected.TokensDeleted + Expected.TokensInserted +
                Expected.PanicSyncs,
            0);
}

TEST(ParseServiceTest, MetricsJsonIsWellFormed) {
  GrammarBundleCache Cache;
  auto Bundle = bundleOrFail(Cache, ExprGrammar);
  ParseService Service(ServiceConfig{.Threads = 2});
  Service.submit(makeReq(Bundle, "a", "1 + 2")).get();
  Service.shutdown();
  std::string Json = Service.metrics().json(/*IncludeDecisions=*/true);
  EXPECT_EQ(Json.front(), '{');
  EXPECT_EQ(Json.back(), '}');
  for (const char *Key :
       {"\"threads\"", "\"submitted\"", "\"ok\"", "\"tokensParsed\"",
        "\"parser\"", "\"decisionEvents\"", "\"decisions\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key << " missing";
}

} // namespace

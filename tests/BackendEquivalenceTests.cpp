//===- tests/BackendEquivalenceTests.cpp - llstar vs llfinite -------------===//
//
// The two prediction-analysis backends (analysis/backend/) lower into the
// same LookaheadDfa runtime representation, so every observable of a parse
// must be backend-independent: verdicts, diagnostics, heap and arena
// trees, error-node counts, and the committed recovery goldens. This suite
// enforces that corpus-wide:
//
//   - every fuzz-corpus and shipped grammar analyzes under both backends
//     (llfinite totality: the finite construction never aborts),
//   - sampled sentences + mutants parse identically through the
//     interpreter under both backends, with and without recovery, heap
//     and arena trees both,
//   - the compiled fast path over llfinite-derived tables matches the
//     llstar interpreter (the conformance contract is per-representation,
//     not per-backend),
//   - the recovery golden snapshots of the shipped grammars reproduce
//     byte for byte under llfinite.
//
// ParserStats are intentionally *not* compared across backends: the DFAs
// legitimately differ in shape, so lookahead depths and k histograms may
// differ while trees do not.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "analysis/backend/AnalysisBackend.h"
#include "compiled/CompiledParser.h"
#include "fuzz/SentenceGen.h"
#include "fuzz/SentenceSampler.h"
#include "runtime/Arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace llstar;
using namespace llstar::test;

namespace {

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

// Every grammar the repo ships or fuzzes: tests/corpus/*.g + grammars/*.g.
std::vector<std::filesystem::path> allGrammarFiles() {
  std::vector<std::filesystem::path> Files;
  for (const char *Dir : {"tests/corpus", "grammars"}) {
    auto Root = std::filesystem::path(LLSTAR_SOURCE_DIR) / Dir;
    for (const auto &Entry : std::filesystem::directory_iterator(Root))
      if (Entry.path().extension() == ".g")
        Files.push_back(Entry.path());
  }
  std::sort(Files.begin(), Files.end());
  return Files;
}

// Deterministic per-file sampler seed (same scheme as the fuzz and
// compiled-conformance suites so the sentence sets are comparable).
uint64_t fileSeed(const std::filesystem::path &Path) {
  uint64_t H = 0xcbf29ce484222325ull; // FNV-1a
  for (char C : Path.filename().string())
    H = (H ^ uint64_t(uint8_t(C))) * 0x100000001b3ull;
  return H;
}

std::unique_ptr<AnalyzedGrammar> analyzeBackend(const std::string &Text,
                                                BackendKind Backend) {
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(Text, Diags, Backend);
  if (!AG || Diags.hasErrors()) {
    ADD_FAILURE() << "grammar failed to analyze under "
                  << backendName(Backend) << ":\n"
                  << Diags.str();
    return nullptr;
  }
  return AG;
}

std::vector<Token> lex(const AnalyzedGrammar &AG, const std::string &Input) {
  DiagnosticEngine Diags;
  Lexer L(AG.grammar().lexerSpec(), Diags);
  return L.tokenize(Input, Diags);
}
std::vector<Token> lex(const AnalyzedGrammar &, std::string &&) = delete;

/// Everything a parse may observe that must be backend-independent.
/// (ParserStats excluded: DFA shapes legitimately differ.)
struct Capture {
  bool Ok = false;
  bool DeadlineHit = false;
  std::string DiagText;
  std::string HeapTree;
  std::string ArenaTree;
  size_t HeapErrorNodes = 0;
};

ParserOptions baseOptions(const AnalyzedGrammar &AG, bool Recover) {
  ParserOptions Opts;
  Opts.Memoize = AG.grammar().Options.Memoize;
  Opts.Recover = Recover;
  return Opts;
}

Capture runInterpreted(const AnalyzedGrammar &AG, const std::string &Input,
                       bool Recover) {
  Capture C;
  {
    TokenStream Stream(lex(AG, Input));
    DiagnosticEngine Diags;
    LLStarParser P(AG, Stream, nullptr, Diags, baseOptions(AG, Recover));
    auto Tree = P.parse();
    C.Ok = P.ok();
    C.DeadlineHit = P.deadlineExpired();
    C.DiagText = Diags.str();
    if (Tree) {
      C.HeapTree = Tree->str(AG.grammar());
      C.HeapErrorNodes = Tree->numErrorNodes();
    }
  }
  {
    TokenStream Stream(lex(AG, Input));
    DiagnosticEngine Diags;
    Arena TreeArena;
    ParserOptions Opts = baseOptions(AG, Recover);
    Opts.TreeArena = &TreeArena;
    LLStarParser P(AG, Stream, nullptr, Diags, Opts);
    P.parse();
    if (P.arenaTree())
      C.ArenaTree = P.arenaTree()->str(AG.grammar(), Stream);
  }
  return C;
}

Capture runCompiled(const AnalyzedGrammar &AG,
                    const compiled::TablesView &View,
                    const std::string &Input, bool Recover) {
  Capture C;
  {
    TokenStream Stream(lex(AG, Input));
    DiagnosticEngine Diags;
    compiled::CompiledParser P(AG, View, Stream, nullptr, Diags,
                               baseOptions(AG, Recover));
    auto Tree = P.parse();
    C.Ok = P.ok();
    C.DeadlineHit = P.deadlineExpired();
    C.DiagText = Diags.str();
    if (Tree) {
      C.HeapTree = Tree->str(AG.grammar());
      C.HeapErrorNodes = Tree->numErrorNodes();
    }
  }
  {
    TokenStream Stream(lex(AG, Input));
    DiagnosticEngine Diags;
    Arena TreeArena;
    ParserOptions Opts = baseOptions(AG, Recover);
    Opts.TreeArena = &TreeArena;
    compiled::CompiledParser P(AG, View, Stream, nullptr, Diags, Opts);
    P.parse();
    if (P.arenaTree())
      C.ArenaTree = P.arenaTree()->str(AG.grammar(), Stream);
  }
  return C;
}

void expectIdentical(const Capture &Star, const Capture &Fin,
                     const std::string &Context) {
  EXPECT_EQ(Star.Ok, Fin.Ok) << Context;
  EXPECT_EQ(Star.DeadlineHit, Fin.DeadlineHit) << Context;
  EXPECT_EQ(Star.DiagText, Fin.DiagText) << Context;
  EXPECT_EQ(Star.HeapTree, Fin.HeapTree) << Context;
  EXPECT_EQ(Star.ArenaTree, Fin.ArenaTree) << Context;
  EXPECT_EQ(Star.HeapErrorNodes, Fin.HeapErrorNodes) << Context;
}

//===----------------------------------------------------------------------===//
// Corpus-wide differential replay
//===----------------------------------------------------------------------===//

class BackendEquivalence
    : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(BackendEquivalence, ParsesIdenticallyUnderBothBackends) {
  const std::filesystem::path &Path = GetParam();
  std::string Text = slurp(Path);
  ASSERT_FALSE(Text.empty());

  auto Star = analyzeBackend(Text, BackendKind::LLStar);
  auto Fin = analyzeBackend(Text, BackendKind::LLFinite);
  ASSERT_TRUE(Star);
  ASSERT_TRUE(Fin); // llfinite totality: must analyze anything llstar does
  EXPECT_STREQ(Star->backendName(), "llstar");
  EXPECT_STREQ(Fin->backendName(), "llfinite");

  // The compiled fast path over llfinite-derived tables rides along: same
  // flattening, different DFA contents.
  compiled::CompiledTables FinTables = compiled::CompiledTables::build(*Fin);

  fuzz::SentenceSampler Sampler(Star->grammar(), fileSeed(Path));
  for (int S = 0; S < 6; ++S) {
    std::vector<std::string> Tokens = Sampler.sample();
    std::vector<std::string> Inputs{fuzz::SentenceSampler::render(Tokens)};
    for (int M = 0; M < 2; ++M)
      Inputs.push_back(
          fuzz::SentenceSampler::render(Sampler.mutate(Tokens)));
    for (const std::string &Input : Inputs) {
      for (bool Recover : {false, true}) {
        std::string Context = Path.filename().string() +
                              (Recover ? " [recover] <" : " <") + Input + ">";
        Capture IntStar = runInterpreted(*Star, Input, Recover);
        Capture IntFin = runInterpreted(*Fin, Input, Recover);
        expectIdentical(IntStar, IntFin, "interpreter " + Context);
        Capture CmpFin = runCompiled(*Fin, FinTables.view(), Input, Recover);
        expectIdentical(IntStar, CmpFin, "compiled " + Context);
      }
    }
  }
}

std::string grammarTestName(
    const ::testing::TestParamInfo<std::filesystem::path> &Info) {
  std::string Name = Info.param.stem().string();
  for (char &C : Name)
    if (!std::isalnum(uint8_t(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(AllGrammars, BackendEquivalence,
                         ::testing::ValuesIn(allGrammarFiles()),
                         grammarTestName);

//===----------------------------------------------------------------------===//
// Recovery goldens and decision-covering seeds under llfinite
//===----------------------------------------------------------------------===//

struct GoldenCase {
  const char *Grammar;
  const char *Input;
};

// Same broken inputs RecoveryTests and CompiledConformanceTests pin; the
// llfinite tables must reproduce the committed snapshots byte for byte.
const GoldenCase GoldenCases[] = {
    {"csv", "a,b\n\"x\" y,c\n"},
    {"dot", "digraph g { a -> -> b ; x = ; }"},
    {"ini", "[a]\nx 1\n[b\ny = 2\n"},
    {"json", "{\"a\": 1 \"b\": 2,}"},
    {"lambda", "lambda x (x"},
    {"lua", "x = = 1"},
    {"sexpr", "(a b)) (c"},
};

TEST(BackendEquivalenceGolden, RecoveredTreesMatchSnapshotsUnderLLFinite) {
  for (const GoldenCase &C : GoldenCases) {
    SCOPED_TRACE(C.Grammar);
    std::string Text = slurp(std::filesystem::path(LLSTAR_SOURCE_DIR) /
                             "grammars" / (std::string(C.Grammar) + ".g"));
    ASSERT_FALSE(Text.empty());
    auto Fin = analyzeBackend(Text, BackendKind::LLFinite);
    ASSERT_TRUE(Fin);

    Capture Cap = runInterpreted(*Fin, C.Input, /*Recover=*/true);
    EXPECT_FALSE(Cap.Ok);
    EXPECT_GE(Cap.HeapErrorNodes, 1u) << Cap.HeapTree;
    EXPECT_EQ(Cap.ArenaTree, Cap.HeapTree);

    std::string Expected =
        slurp(std::filesystem::path(LLSTAR_SOURCE_DIR) / "tests" / "golden" /
              "recovery" / (std::string(C.Grammar) + ".txt"));
    ASSERT_FALSE(Expected.empty());
    EXPECT_EQ(std::string(C.Input) + "\n" + Cap.HeapTree + "\n", Expected)
        << "llfinite recovery diverges from the committed golden snapshot";
  }
}

TEST(BackendEquivalenceGolden, DecisionCoveringSeedsAgree) {
  // SentenceGen's decision-covering minimal sentences are guaranteed
  // valid, so every prediction in the grammar runs hot through both
  // backends' tables.
  for (const GoldenCase &C : GoldenCases) {
    SCOPED_TRACE(C.Grammar);
    std::string Text = slurp(std::filesystem::path(LLSTAR_SOURCE_DIR) /
                             "grammars" / (std::string(C.Grammar) + ".g"));
    auto Star = analyzeBackend(Text, BackendKind::LLStar);
    auto Fin = analyzeBackend(Text, BackendKind::LLFinite);
    ASSERT_TRUE(Star);
    ASSERT_TRUE(Fin);

    fuzz::SentenceGen Gen(*Star);
    std::vector<std::string> Inputs;
    for (const auto &Seed : Gen.seeds())
      Inputs.push_back(fuzz::SentenceSampler::render(Seed));
    ASSERT_FALSE(Inputs.empty());
    if (Inputs.size() > 8)
      Inputs.resize(8);
    for (const std::string &Input : Inputs) {
      Capture IntStar = runInterpreted(*Star, Input, /*Recover=*/false);
      EXPECT_TRUE(IntStar.Ok) << Input;
      Capture IntFin = runInterpreted(*Fin, Input, /*Recover=*/false);
      expectIdentical(IntStar, IntFin,
                      std::string(C.Grammar) + " <" + Input + ">");
    }
  }
}

} // namespace

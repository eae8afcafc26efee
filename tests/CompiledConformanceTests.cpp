//===- tests/CompiledConformanceTests.cpp - Compiled-path conformance -----===//
//
// The compiled fast path (compiled/CompiledParser.h) is contractually
// identical to the interpreting runtime: same verdicts, byte-identical
// trees and diagnostics, identical ParserStats. This suite enforces the
// contract three ways:
//
//   - differentially over the whole fuzz corpus (tests/corpus/*.g, the
//     same sampled sentences + mutants FuzzRegressionTests replays),
//     with and without error recovery,
//   - against the recovery golden snapshots of the shipped grammars
//     (tests/golden/recovery/*.txt trees, owned and caller arena both, and
//     *.diag diagnostics text plus repair counters),
//   - through the checked-in compiled modules: every shipped grammar must
//     hash-match its registered module (stale modules fail here *and* in
//     the CI regen-diff gate), the module lexer must tokenize identically
//     to the spec-compiled lexer, and parses through the module's static
//     tables + native predictors must match the interpreter.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "codegen/Serializer.h"
#include "compiled/CompiledParser.h"
#include "compiled/CompiledRegistry.h"
#include "fuzz/SentenceGen.h"
#include "fuzz/SentenceSampler.h"
#include "runtime/Arena.h"

#include "CompiledManifest.h"

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

std::vector<std::filesystem::path> corpusFiles() {
  std::vector<std::filesystem::path> Files;
  auto Dir = std::filesystem::path(LLSTAR_SOURCE_DIR) / "tests" / "corpus";
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".g")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

// Deterministic per-file sampler seed, independent of directory order
// (same scheme as FuzzRegressionTests so the suites replay comparable
// sentence sets).
uint64_t fileSeed(const std::filesystem::path &Path) {
  uint64_t H = 0xcbf29ce484222325ull; // FNV-1a
  for (char C : Path.filename().string())
    H = (H ^ uint64_t(uint8_t(C))) * 0x100000001b3ull;
  return H;
}

std::vector<Token> lex(const AnalyzedGrammar &AG, const std::string &Input) {
  DiagnosticEngine Diags;
  return AG.lexer().tokenize(Input, Diags);
}
std::vector<Token> lex(const AnalyzedGrammar &, std::string &&) = delete;

/// Everything observable from one parse, for differential comparison.
struct Capture {
  bool Ok = false;
  bool DeadlineHit = false;
  std::string DiagText;
  std::string OwnedTree;
  std::string ArenaTree;
  size_t OwnedErrorNodes = 0;
  std::string StatsJson; ///< full per-decision stats, serialized
  std::string DiagSnapshot; ///< diagnostics + repair counters (.diag form)
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
    C.StatsJson = P.stats().json(/*IncludeDecisions=*/true);
    C.DiagSnapshot = recoveryDiagSnapshot(C.DiagText, P.stats());
    if (Tree) {
      C.OwnedTree = Tree->str(AG.grammar());
      C.OwnedErrorNodes = Tree->numErrorNodes();
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
                    const compiled::NativePredictFn *Native,
                    const std::string &Input, bool Recover,
                    const compiled::NativeRuleFn *Rules = nullptr) {
  Capture C;
  {
    TokenStream Stream(lex(AG, Input));
    DiagnosticEngine Diags;
    compiled::CompiledParser P(AG, View, Stream, nullptr, Diags,
                               baseOptions(AG, Recover), Native, Rules);
    auto Tree = P.parse();
    C.Ok = P.ok();
    C.DeadlineHit = P.deadlineExpired();
    C.DiagText = Diags.str();
    C.StatsJson = P.stats().json(/*IncludeDecisions=*/true);
    C.DiagSnapshot = recoveryDiagSnapshot(C.DiagText, P.stats());
    if (Tree) {
      C.OwnedTree = Tree->str(AG.grammar());
      C.OwnedErrorNodes = Tree->numErrorNodes();
    }
  }
  {
    TokenStream Stream(lex(AG, Input));
    DiagnosticEngine Diags;
    Arena TreeArena;
    ParserOptions Opts = baseOptions(AG, Recover);
    Opts.TreeArena = &TreeArena;
    compiled::CompiledParser P(AG, View, Stream, nullptr, Diags, Opts,
                               Native, Rules);
    P.parse();
    if (P.arenaTree())
      C.ArenaTree = P.arenaTree()->str(AG.grammar(), Stream);
  }
  return C;
}

void expectIdentical(const Capture &Int, const Capture &Cmp,
                     const std::string &Context) {
  EXPECT_EQ(Int.Ok, Cmp.Ok) << Context;
  EXPECT_EQ(Int.DeadlineHit, Cmp.DeadlineHit) << Context;
  EXPECT_EQ(Int.DiagText, Cmp.DiagText) << Context;
  EXPECT_EQ(Int.OwnedTree, Cmp.OwnedTree) << Context;
  EXPECT_EQ(Int.ArenaTree, Cmp.ArenaTree) << Context;
  EXPECT_EQ(Int.OwnedErrorNodes, Cmp.OwnedErrorNodes) << Context;
  EXPECT_EQ(Int.StatsJson, Cmp.StatsJson) << Context;
}

//===----------------------------------------------------------------------===//
// Differential replay over the fuzz corpus
//===----------------------------------------------------------------------===//

class CompiledCorpusConformance
    : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(CompiledCorpusConformance, MatchesInterpreterOnSampledSentences) {
  const std::filesystem::path &Path = GetParam();
  auto AG = analyzeOrFail(slurp(Path));
  ASSERT_TRUE(AG);
  compiled::CompiledTables Tables = compiled::CompiledTables::build(*AG);

  fuzz::SentenceSampler Sampler(AG->grammar(), fileSeed(Path));
  for (int S = 0; S < 8; ++S) {
    std::vector<std::string> Tokens = Sampler.sample();
    std::vector<std::string> Inputs{fuzz::SentenceSampler::render(Tokens)};
    for (int M = 0; M < 2; ++M)
      Inputs.push_back(
          fuzz::SentenceSampler::render(Sampler.mutate(Tokens)));
    for (const std::string &Input : Inputs) {
      for (bool Recover : {false, true}) {
        Capture Int = runInterpreted(*AG, Input, Recover);
        Capture Cmp = runCompiled(*AG, Tables.view(), nullptr, Input, Recover);
        expectIdentical(Int, Cmp,
                        Path.filename().string() + (Recover ? " [recover] <"
                                                            : " <") +
                            Input + ">");
      }
    }
  }
}

std::string corpusTestName(
    const ::testing::TestParamInfo<std::filesystem::path> &Info) {
  std::string Name = Info.param.stem().string();
  for (char &C : Name)
    if (!std::isalnum(uint8_t(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CompiledCorpusConformance,
                         ::testing::ValuesIn(corpusFiles()), corpusTestName);

//===----------------------------------------------------------------------===//
// Golden recovered-tree snapshots (shipped grammars)
//===----------------------------------------------------------------------===//

struct GoldenCase {
  const char *Grammar;
  const char *Input;
};

// Same cases RecoveryTests pins for the interpreter; the compiled path
// must reproduce the committed snapshots byte for byte.
const GoldenCase GoldenCases[] = {
    {"csv", "a,b\n\"x\" y,c\n"},
    {"dot", "digraph g { a -> -> b ; x = ; }"},
    {"ini", "[a]\nx 1\n[b\ny = 2\n"},
    {"json", "{\"a\": 1 \"b\": 2,}"},
    {"lambda", "lambda x (x"},
    {"lua", "x = = 1"},
    {"sexpr", "(a b)) (c"},
};

TEST(CompiledConformance, GoldenRecoveredTreesMatchSnapshots) {
  for (const GoldenCase &C : GoldenCases) {
    SCOPED_TRACE(C.Grammar);
    std::string Text = slurp(std::filesystem::path(LLSTAR_SOURCE_DIR) /
                             "grammars" / (std::string(C.Grammar) + ".g"));
    ASSERT_FALSE(Text.empty());
    auto AG = analyzeOrFail(Text);
    ASSERT_TRUE(AG);
    compiled::CompiledTables Tables = compiled::CompiledTables::build(*AG);

    Capture Cmp =
        runCompiled(*AG, Tables.view(), nullptr, C.Input, /*Recover=*/true);
    EXPECT_FALSE(Cmp.Ok);
    EXPECT_GE(Cmp.OwnedErrorNodes, 1u) << Cmp.OwnedTree;
    EXPECT_EQ(Cmp.ArenaTree, Cmp.OwnedTree);

    std::string Expected =
        slurp(std::filesystem::path(LLSTAR_SOURCE_DIR) / "tests" / "golden" /
              "recovery" / (std::string(C.Grammar) + ".txt"));
    ASSERT_FALSE(Expected.empty());
    EXPECT_EQ(std::string(C.Input) + "\n" + Cmp.OwnedTree + "\n", Expected)
        << "compiled recovery diverges from the committed golden snapshot";
    std::string ExpectedDiag =
        slurp(std::filesystem::path(LLSTAR_SOURCE_DIR) / "tests" / "golden" /
              "recovery" / (std::string(C.Grammar) + ".diag"));
    ASSERT_FALSE(ExpectedDiag.empty());
    EXPECT_EQ(Cmp.DiagSnapshot, ExpectedDiag)
        << "compiled diagnostics diverge from the committed golden snapshot";

    Capture Int = runInterpreted(*AG, C.Input, /*Recover=*/true);
    expectIdentical(Int, Cmp, C.Grammar);
  }
}

//===----------------------------------------------------------------------===//
// Checked-in module registry
//===----------------------------------------------------------------------===//

TEST(CompiledConformance, ShippedModulesHashMatchAndAgree) {
  compiled::registerShippedGrammars();
  for (const GoldenCase &C : GoldenCases) { // one entry per shipped grammar
    SCOPED_TRACE(C.Grammar);
    std::string Text = slurp(std::filesystem::path(LLSTAR_SOURCE_DIR) /
                             "grammars" / (std::string(C.Grammar) + ".g"));
    auto AG = analyzeOrFail(Text);
    ASSERT_TRUE(AG);

    compiled::CompiledResolution Res =
        compiled::resolveCompiledTables(*AG, serializeGrammar(*AG));
    ASSERT_TRUE(Res.fromModule())
        << "stale compiled module for " << C.Grammar
        << "; regenerate with: llstar compile grammars/" << C.Grammar
        << ".g --emit-cpp -o grammars/compiled/" << C.Grammar
        << "_compiled.cpp";
    EXPECT_NE(Res.Native, nullptr);
    EXPECT_NE(Res.Rules, nullptr);

    // Decision-covering minimal sentences (guaranteed valid, so the
    // generated predictors all run hot).
    fuzz::SentenceGen Gen(*AG);
    std::vector<std::string> Inputs;
    for (const auto &Seed : Gen.seeds())
      Inputs.push_back(fuzz::SentenceSampler::render(Seed));
    ASSERT_FALSE(Inputs.empty());
    if (Inputs.size() > 6)
      Inputs.resize(6);
    for (const std::string &Input : Inputs) {
      // Module tables + native predictors + generated rule bodies must
      // match the interpreter.
      for (bool Recover : {false, true}) {
        Capture Int = runInterpreted(*AG, Input, Recover);
        Capture Cmp = runCompiled(*AG, Res.View, Res.Native, Input, Recover,
                                  Res.Rules);
        expectIdentical(Int, Cmp,
                        std::string(C.Grammar) + " <" + Input + ">");
      }
    }
    // The recovery golden input again, now through the module's static
    // tables (predicated decisions exercise the fallback walk).
    Capture Int = runInterpreted(*AG, C.Input, /*Recover=*/true);
    Capture Cmp = runCompiled(*AG, Res.View, Res.Native, C.Input,
                              /*Recover=*/true, Res.Rules);
    expectIdentical(Int, Cmp, std::string(C.Grammar) + " golden");
  }
}

TEST(CompiledConformance, HashGateRejectsStaleModules) {
  compiled::registerShippedGrammars();
  std::string Text = slurp(std::filesystem::path(LLSTAR_SOURCE_DIR) /
                           "grammars" / "json.g");
  auto AG = analyzeOrFail(Text);
  ASSERT_TRUE(AG);
  std::string Payload = serializeGrammar(*AG);

  const compiled::CompiledGrammarModule *M =
      compiled::findCompiledModule(AG->grammar().Name);
  ASSERT_NE(M, nullptr);

  // A module whose payload hash disagrees (a grammar edited after its last
  // --emit-cpp run) must fall back to load-time flattening.
  static compiled::CompiledGrammarModule Stale;
  Stale = *M;
  Stale.PayloadHash ^= 1;
  compiled::registerCompiledModule(Stale);
  compiled::CompiledResolution Res =
      compiled::resolveCompiledTables(*AG, Payload);
  EXPECT_FALSE(Res.fromModule());
  EXPECT_NE(Res.Owned, nullptr);
  EXPECT_EQ(Res.Native, nullptr);

  // Restore the genuine module and confirm the gate opens again.
  compiled::registerShippedGrammars();
  Res = compiled::resolveCompiledTables(*AG, Payload);
  EXPECT_TRUE(Res.fromModule());

  // An empty payload skips the registry entirely (explicit flatten).
  Res = compiled::resolveCompiledTables(*AG, "");
  EXPECT_FALSE(Res.fromModule());
}

} // namespace

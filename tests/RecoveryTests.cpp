//===- tests/RecoveryTests.cpp - Error-recovering runtime -----------------===//
//
// Coverage for the src/recover/ subsystem and its runtime integration:
// the analysis-time follow/recovery tables, the pluggable repair strategy
// (single-token deletion, single-token insertion, sync-and-return panic
// mode), error leaves with exact source spans in both owned and
// caller-arena trees, termination on pathological input, repair counters,
// the bundle `recover` payload section, and golden recovered-tree
// snapshots for every shipped grammar.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "codegen/Serializer.h"
#include "fuzz/SentenceGen.h"
#include "fuzz/SentenceSampler.h"
#include "recover/RecoverySets.h"
#include "runtime/Arena.h"
#include "runtime/ArenaParseTree.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

using namespace llstar;
using namespace llstar::test;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// One recovering parse built both ways — into the owned result and into a
/// caller arena — plus everything the tests assert on. The two parses run
/// back to back on copies of the same token stream; they must agree
/// exactly.
struct RecoveredParse {
  bool Ok = false;
  size_t Errors = 0;
  size_t ErrorNodes = 0;
  std::string OwnedTree;
  std::string ArenaTree;
  std::string DiagText;
  ParserStats Stats;
};

RecoveredParse parseRecovering(const AnalyzedGrammar &AG,
                               const std::string &Input,
                               const std::string &Start = "") {
  RecoveredParse R;
  {
    TokenStream Stream = lexOrFail(AG, Input);
    DiagnosticEngine Diags;
    ParserOptions Opts;
    Opts.Recover = true;
    LLStarParser P(AG, Stream, nullptr, Diags, Opts);
    auto Tree = P.parse(Start);
    R.Ok = P.ok();
    R.Errors = Diags.errorCount();
    R.DiagText = Diags.str();
    R.Stats = P.stats();
    if (Tree) {
      R.OwnedTree = Tree->str(AG.grammar());
      R.ErrorNodes = Tree->numErrorNodes();
    }
  }
  {
    TokenStream Stream = lexOrFail(AG, Input);
    DiagnosticEngine Diags;
    Arena TreeArena;
    ParserOptions Opts;
    Opts.Recover = true;
    Opts.TreeArena = &TreeArena;
    LLStarParser P(AG, Stream, nullptr, Diags, Opts);
    P.parse(Start);
    EXPECT_EQ(P.ok(), R.Ok);
    EXPECT_EQ(Diags.errorCount(), R.Errors);
    if (P.arenaTree()) {
      R.ArenaTree = P.arenaTree()->str(AG.grammar(), Stream);
      EXPECT_EQ(P.arenaTree()->numErrorNodes(), R.ErrorNodes);
    }
  }
  return R;
}

std::string readFileOrEmpty(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return "";
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

//===----------------------------------------------------------------------===//
// RecoverySets tables
//===----------------------------------------------------------------------===//

TEST(RecoverySets, FollowAtRuleStartIsFirstOfTheRule) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : a C ;
a : A B? ;
A:'a'; B:'b'; C:'c';
)");
  ASSERT_TRUE(AG);
  const RecoverySets &RS = AG->recovery();
  EXPECT_EQ(RS.numStates(), AG->atn().numStates());

  // follow(ruleStart) is the rule's FIRST set (within-rule terminals).
  int32_t AStart = AG->atn().ruleStart(AG->grammar().findRule("a"));
  EXPECT_TRUE(RS.follow(AStart).contains(tokType(*AG, "A")));
  EXPECT_FALSE(RS.follow(AStart).contains(tokType(*AG, "C")));
  // 'a' must consume an A: its suffix is not nullable.
  EXPECT_FALSE(RS.reachesEnd(AStart));
}

TEST(RecoverySets, RuleStopsReachEndWithEmptyFollow) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : a A ;
a : B | ;
A:'a'; B:'b';
)");
  ASSERT_TRUE(AG);
  const RecoverySets &RS = AG->recovery();
  for (size_t R = 0; R < AG->grammar().numRules(); ++R) {
    int32_t Stop = AG->atn().ruleStop(int32_t(R));
    EXPECT_TRUE(RS.reachesEnd(Stop));
    EXPECT_TRUE(RS.follow(Stop).empty());
  }
  // Rule a has an empty alternative, so its start reaches the end too.
  int32_t AStart = AG->atn().ruleStart(AG->grammar().findRule("a"));
  EXPECT_TRUE(RS.reachesEnd(AStart));
}

TEST(RecoverySets, ComputeIsDeterministicAndRoundTripsTables) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : (a | b)* EOF ;
a : A ('+' A)* ;
b : B c? ;
c : C ;
A:'a'; B:'b'; C:'c';
)");
  ASSERT_TRUE(AG);
  auto First = RecoverySets::compute(AG->atn());
  auto Second = RecoverySets::compute(AG->atn());
  ASSERT_TRUE(First && Second);
  EXPECT_TRUE(*First == *Second);
  EXPECT_TRUE(*First == AG->recovery());

  std::vector<IntervalSet> Follow;
  std::vector<uint8_t> Ends;
  for (size_t S = 0; S < First->numStates(); ++S) {
    Follow.push_back(First->follow(int32_t(S)));
    Ends.push_back(First->reachesEnd(int32_t(S)) ? 1 : 0);
  }
  auto Rebuilt = RecoverySets::fromTables(std::move(Follow), std::move(Ends));
  EXPECT_TRUE(*Rebuilt == *First);
}

//===----------------------------------------------------------------------===//
// Repairs
//===----------------------------------------------------------------------===//

TEST(Recovery, SingleTokenDeletionKeepsSpanAndCounts) {
  auto AG = analyzeOrFail(R"(
grammar T;
a : A B C ;
A:'a'; B:'b'; C:'c'; D:'d';
)");
  ASSERT_TRUE(AG);
  RecoveredParse R = parseRecovering(*AG, "adbc", "a");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Errors, 1u) << R.DiagText;
  EXPECT_EQ(R.ErrorNodes, 1u);
  EXPECT_EQ(R.OwnedTree, "(a a (error d) b c)");
  EXPECT_EQ(R.ArenaTree, R.OwnedTree);
  EXPECT_EQ(R.Stats.TokensDeleted, 1);
  EXPECT_EQ(R.Stats.TokensInserted, 0);
  EXPECT_TRUE(R.DiagText.find("deleted 'd' to recover") != std::string::npos)
      << R.DiagText;
}

TEST(Recovery, SingleTokenInsertionConjuresTheMissingToken) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : 'if' '(' ID ')' ;
ID : [a-z]+ ;
WS : [ ]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  RecoveredParse R = parseRecovering(*AG, "if x )", "s");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Errors, 1u) << R.DiagText;
  EXPECT_EQ(R.ErrorNodes, 1u);
  EXPECT_EQ(R.OwnedTree, "(s if (error <missing '('>) x ))");
  EXPECT_EQ(R.ArenaTree, R.OwnedTree);
  EXPECT_EQ(R.Stats.TokensInserted, 1);
  EXPECT_EQ(R.Stats.TokensDeleted, 0);
}

TEST(Recovery, PanicModeSyncsToTheFollowSet) {
  auto AG = analyzeOrFail(R"(
grammar T;
prog : stmt* EOF ;
stmt : ID '=' INT ';' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  // The junk run "1 2 3" can be neither deleted (the next token is also
  // junk) nor bridged by one insertion; panic mode must swallow the run
  // and pick up at the next statement.
  RecoveredParse R = parseRecovering(*AG, "a = 1 ; 1 2 3 b = 2 ;", "prog");
  EXPECT_FALSE(R.Ok);
  EXPECT_GE(R.Errors, 1u) << R.DiagText;
  EXPECT_GE(R.ErrorNodes, 1u);
  EXPECT_EQ(R.ArenaTree, R.OwnedTree);
  // Both intact statements survive in the partial tree.
  EXPECT_TRUE(R.OwnedTree.find("(stmt a = 1 ;)") != std::string::npos)
      << R.OwnedTree;
  EXPECT_TRUE(R.OwnedTree.find("(stmt b = 2 ;)") != std::string::npos)
      << R.OwnedTree;
  EXPECT_GE(R.Stats.PanicSyncs, 1);
}

TEST(Recovery, EveryErrorLeavesAtLeastOneErrorNode) {
  auto AG = analyzeOrFail(R"(
grammar T;
prog : stmt* EOF ;
stmt : ID '=' INT ';' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  const char *Broken[] = {
      "a = ;",             // missing INT
      "a = 1",             // missing ';'
      "= 1 ;",             // leading junk
      "a = 1 ; ; b = 2 ;", // stray ';'
      "a b c d e",         // no structure at all
  };
  for (const char *Input : Broken) {
    RecoveredParse R = parseRecovering(*AG, Input, "prog");
    EXPECT_FALSE(R.Ok) << Input;
    EXPECT_GE(R.Errors, 1u) << Input;
    EXPECT_GE(R.ErrorNodes, 1u) << Input << "\n" << R.OwnedTree;
    EXPECT_EQ(R.ArenaTree, R.OwnedTree) << Input;
  }
}

TEST(Recovery, TerminatesOnPathologicalInput) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : A B ;
A:'a'; B:'b'; D:'d';
)");
  ASSERT_TRUE(AG);
  // 2k junk tokens after a valid prefix: recovery must chew through all
  // of them and stop at EOF, never loop.
  std::string Input = "a";
  for (int I = 0; I < 2000; ++I)
    Input += "d";
  RecoveredParse R = parseRecovering(*AG, Input, "s");
  EXPECT_FALSE(R.Ok);
  EXPECT_GE(R.Errors, 1u);
  EXPECT_GE(R.ErrorNodes, 1u);
  EXPECT_EQ(R.ArenaTree, R.OwnedTree);
}

TEST(Recovery, InsertionCapForcesProgress) {
  // Every repair point prefers insertion here (the next expected token is
  // always viable); the per-consume insertion cap must still force the
  // parse forward instead of conjuring tokens forever.
  auto AG = analyzeOrFail(R"(
grammar T;
s : (A B)* EOF ;
A:'a'; B:'b';
)");
  ASSERT_TRUE(AG);
  RecoveredParse R = parseRecovering(*AG, "aaaa", "s");
  EXPECT_FALSE(R.Ok);
  EXPECT_GE(R.Errors, 1u);
  EXPECT_EQ(R.ArenaTree, R.OwnedTree);
}

TEST(Recovery, NotesStaySilentDuringSpeculation) {
  auto AG = analyzeOrFail(R"(
grammar T;
options { backtrack=true; }
s : p '.' | p '!' ;
p : '(' p ')' | ID ;
ID : [a-z]+ ;
WS : [ ]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  RecoveredParse R = parseRecovering(*AG, "((x))!", "s");
  // Valid input: speculation fails internally, but recovery must not
  // fabricate repairs (or diagnostics) inside failed speculation.
  EXPECT_TRUE(R.Ok) << R.DiagText;
  EXPECT_EQ(R.Errors, 0u);
  EXPECT_EQ(R.ErrorNodes, 0u);
  EXPECT_EQ(R.Stats.TokensDeleted + R.Stats.TokensInserted, 0);
}

//===----------------------------------------------------------------------===//
// Repair counters
//===----------------------------------------------------------------------===//

TEST(Recovery, StatsCountersMergeAndSerialize) {
  ParserStats A, B;
  A.TokensDeleted = 2;
  A.TokensInserted = 1;
  A.PanicSyncs = 3;
  A.SyntaxErrors = 4;
  B.TokensDeleted = 1;
  B.PanicSyncs = 2;
  A.merge(B);
  EXPECT_EQ(A.TokensDeleted, 3);
  EXPECT_EQ(A.TokensInserted, 1);
  EXPECT_EQ(A.PanicSyncs, 5);

  std::string Json = A.json();
  EXPECT_TRUE(Json.find("\"tokensDeleted\":3") != std::string::npos) << Json;
  EXPECT_TRUE(Json.find("\"tokensInserted\":1") != std::string::npos) << Json;
  EXPECT_TRUE(Json.find("\"panicSyncs\":5") != std::string::npos) << Json;
  EXPECT_TRUE(Json.find("\"syntaxErrors\":4") != std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// Bundle serialization of recovery tables
//===----------------------------------------------------------------------===//

const char *BundleGrammar = R"(
grammar T;
prog : stmt* EOF ;
stmt : ID '=' INT ';' ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \n]+ -> skip ;
)";

TEST(RecoveryBundle, RoundTripPreservesRecoveryTables) {
  auto AG = analyzeOrFail(BundleGrammar);
  ASSERT_TRUE(AG);
  std::string Payload = serializeGrammar(*AG);
  ASSERT_TRUE(Payload.find("\nrecover ") != std::string::npos);

  DiagnosticEngine Diags;
  auto Loaded = deserializeGrammar(Payload, Diags);
  ASSERT_TRUE(Loaded) << Diags.str();
  EXPECT_TRUE(Loaded->recovery() == AG->recovery());

  // And the deserialized grammar recovers identically. Compiled grammars
  // tokenize through their precompiled lexer tables, not a lexer spec.
  RecoveredParse Orig = parseRecovering(*AG, "a = 1 ; b 2 ;", "prog");
  DiagnosticEngine LexDiags;
  TokenStream Stream(Loaded->lexer().tokenize("a = 1 ; b 2 ;", LexDiags));
  ASSERT_FALSE(LexDiags.hasErrors()) << LexDiags.str();
  DiagnosticEngine ParseDiags;
  ParserOptions Opts;
  Opts.Recover = true;
  LLStarParser P(*Loaded, Stream, nullptr, ParseDiags, Opts);
  auto Tree = P.parse("prog");
  ASSERT_TRUE(Tree);
  EXPECT_EQ(Tree->str(Loaded->grammar()), Orig.OwnedTree);
  EXPECT_EQ(ParseDiags.errorCount(), Orig.Errors);
}

TEST(RecoveryBundle, RejectsMangledRecoverSections) {
  auto AG = analyzeOrFail(BundleGrammar);
  ASSERT_TRUE(AG);
  std::string Payload = serializeGrammar(*AG);
  size_t Rec = Payload.find("\nrecover ");
  ASSERT_NE(Rec, std::string::npos);
  size_t CountAt = Rec + std::string("\nrecover ").size();

  // State-count mismatch: the table no longer covers the ATN.
  {
    std::string Mangled = Payload;
    Mangled.insert(CountAt, "9");
    DiagnosticEngine Diags;
    EXPECT_EQ(deserializeGrammar(Mangled, Diags), nullptr);
    EXPECT_TRUE(Diags.hasErrors());
  }
  // Out-of-range follow interval: token types beyond the vocabulary.
  {
    std::string Mangled = Payload;
    size_t Eol = Mangled.find('\n', CountAt);
    ASSERT_NE(Eol, std::string::npos);
    // First per-state line: "<reachesEnd> <numIntervals> ..." — rewrite it
    // to declare one wildly out-of-range interval.
    size_t LineEnd = Mangled.find('\n', Eol + 1);
    ASSERT_NE(LineEnd, std::string::npos);
    Mangled.replace(Eol + 1, LineEnd - Eol - 1, "0 1 999999 999999");
    DiagnosticEngine Diags;
    EXPECT_EQ(deserializeGrammar(Mangled, Diags), nullptr);
    EXPECT_TRUE(Diags.hasErrors());
  }
  // Non-boolean reachesEnd flag.
  {
    std::string Mangled = Payload;
    size_t Eol = Mangled.find('\n', CountAt);
    ASSERT_NE(Eol, std::string::npos);
    size_t LineEnd = Mangled.find('\n', Eol + 1);
    ASSERT_NE(LineEnd, std::string::npos);
    Mangled.replace(Eol + 1, LineEnd - Eol - 1, "7 0");
    DiagnosticEngine Diags;
    EXPECT_EQ(deserializeGrammar(Mangled, Diags), nullptr);
    EXPECT_TRUE(Diags.hasErrors());
  }
}

//===----------------------------------------------------------------------===//
// SentenceGen (decision-guided minimal sentences)
//===----------------------------------------------------------------------===//

TEST(SentenceGen, SeedsCoverDecisionsAndParseCleanly) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : stmt* EOF ;
stmt : 'if' ID 'then' stmt
     | ID '=' INT ';'
     | '{' stmt* '}'
     ;
ID : [a-z]+ ;
INT : [0-9]+ ;
WS : [ \n]+ -> skip ;
)");
  ASSERT_TRUE(AG);
  fuzz::SentenceGen Gen(*AG);
  auto Seeds = Gen.seeds();
  ASSERT_FALSE(Seeds.empty());
  for (const auto &Seed : Seeds) {
    std::string Input = fuzz::SentenceSampler::render(Seed);
    EXPECT_TRUE(parses(*AG, Input, "s")) << "seed does not parse: " << Input;
  }
}

TEST(SentenceGen, SentenceForReachesTheRequestedAlternative) {
  auto AG = analyzeOrFail(R"(
grammar T;
s : a EOF ;
a : 'x' B | 'y' C ;
B:'b'; C:'c';
)");
  ASSERT_TRUE(AG);
  fuzz::SentenceGen Gen(*AG);
  int32_t D = decisionOf(*AG, "a");
  ASSERT_GE(D, 0);
  std::vector<std::string> S1, S2;
  ASSERT_TRUE(Gen.sentenceFor(D, 1, S1));
  ASSERT_TRUE(Gen.sentenceFor(D, 2, S2));
  EXPECT_EQ(fuzz::SentenceSampler::render(S1), "x b");
  EXPECT_EQ(fuzz::SentenceSampler::render(S2), "y c");
}

TEST(SentenceGen, ShippedGrammarSeedsParseCleanly) {
  for (const char *Name :
       {"csv", "dot", "ini", "json", "lambda", "lua", "sexpr"}) {
    SCOPED_TRACE(Name);
    std::string Text = readFileOrEmpty(std::string(LLSTAR_SOURCE_DIR) +
                                       "/grammars/" + Name + ".g");
    ASSERT_FALSE(Text.empty());
    auto AG = analyzeOrFail(Text);
    ASSERT_TRUE(AG);
    fuzz::SentenceGen Gen(*AG);
    auto Seeds = Gen.seeds();
    ASSERT_FALSE(Seeds.empty());
    for (const auto &Seed : Seeds)
      EXPECT_TRUE(parses(*AG, fuzz::SentenceSampler::render(Seed)))
          << fuzz::SentenceSampler::render(Seed);
  }
}

//===----------------------------------------------------------------------===//
// Golden recovered-tree snapshots (shipped grammars)
//===----------------------------------------------------------------------===//

struct GoldenCase {
  const char *Grammar; ///< grammars/<name>.g
  const char *Input;   ///< 1-3 injected errors
};

// Regenerate both snapshot files (<g>.txt and <g>.diag) with
//   LLSTAR_REGEN_GOLDEN=1 ./llstar_tests
//   --gtest_filter='Recovery.GoldenTreesForShippedGrammars'
const GoldenCase GoldenCases[] = {
    {"csv", "a,b\n\"x\" y,c\n"},              // junk after a quoted field
    {"dot", "digraph g { a -> -> b ; x = ; }"}, // doubled edge op, no value
    {"ini", "[a]\nx 1\n[b\ny = 2\n"},         // missing '=', unclosed section
    {"json", "{\"a\": 1 \"b\": 2,}"},         // missing comma, trailing comma
    {"lambda", "lambda x (x"},                // missing '.', unclosed paren
    {"lua", "x = = 1"},                       // doubled assignment op
    {"sexpr", "(a b)) (c"},                   // stray ')', unclosed '('
};

TEST(Recovery, GoldenTreesForShippedGrammars) {
  bool Regen = std::getenv("LLSTAR_REGEN_GOLDEN") != nullptr;
  for (const GoldenCase &C : GoldenCases) {
    SCOPED_TRACE(C.Grammar);
    std::string Text = readFileOrEmpty(std::string(LLSTAR_SOURCE_DIR) +
                                       "/grammars/" + C.Grammar + ".g");
    ASSERT_FALSE(Text.empty());
    auto AG = analyzeOrFail(Text);
    ASSERT_TRUE(AG);
    RecoveredParse R = parseRecovering(*AG, C.Input);
    EXPECT_FALSE(R.Ok) << C.Input;
    EXPECT_GE(R.Errors, 1u) << R.DiagText;
    EXPECT_GE(R.ErrorNodes, 1u) << R.OwnedTree;
    EXPECT_EQ(R.ArenaTree, R.OwnedTree);

    // <g>.txt pins the recovered tree; <g>.diag pins the diagnostics text
    // and repair counters that produced it.
    std::string Base =
        std::string(LLSTAR_SOURCE_DIR) + "/tests/golden/recovery/" + C.Grammar;
    const std::pair<std::string, std::string> Snapshots[] = {
        {".txt", std::string(C.Input) + "\n" + R.OwnedTree + "\n"},
        {".diag", recoveryDiagSnapshot(R.DiagText, R.Stats)}};
    for (const auto &[Ext, Actual] : Snapshots) {
      std::string GoldenPath = Base + Ext;
      if (Regen) {
        std::ofstream Out(GoldenPath, std::ios::binary);
        ASSERT_TRUE(Out.good()) << GoldenPath;
        Out << Actual;
        continue;
      }
      EXPECT_EQ(Actual, readFileOrEmpty(GoldenPath))
          << "golden mismatch for " << C.Grammar << Ext
          << "; regenerate with LLSTAR_REGEN_GOLDEN=1 after reviewing";
    }
  }
}

} // namespace

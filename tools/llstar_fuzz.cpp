//===- tools/llstar_fuzz.cpp - Differential grammar fuzzer ----------------===//
//
// The `llstar-fuzz` driver: generates random predicated grammars, samples
// in-language sentences and out-of-language mutation candidates, and
// cross-checks the LL(*) predictor-driven parser against the packrat/PEG
// baseline, analysis determinism, and the serializer round-trip. Failures
// are minimized and printed (and optionally written out) as replayable
// reproducers.
//
//   llstar-fuzz [--seed N] [--iters K] [--sentences S] [--mutations M]
//               [--max-rules R] [--no-minimize] [--no-grammar-checks]
//               [--no-leftrec] [--no-preds] [--no-blocks]
//               [--dump-dir DIR] [--emit-corpus DIR COUNT]
//               [--lint-smoke] [--recover-smoke]
//               [--edit-smoke] [--corpus DIR] [--edits N] [--quiet]
//
// Exit status: 0 when every check passed, 1 on any oracle failure, 2 on
// errors (e.g. no loadable grammars under --corpus), 3 on usage errors.
// Runs are deterministic: the same flags and seed replay bit-identically.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "fuzz/SentenceGen.h"
#include "fuzz/SentenceSampler.h"
#include "incremental/IncrementalSession.h"
#include "lexer/TokenStream.h"
#include "lint/Lint.h"
#include "lint/SarifWriter.h"
#include "peg/PackratParser.h"
#include "runtime/LLStarParser.h"
#include "service/GrammarBundleCache.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace llstar;
using namespace llstar::fuzz;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: llstar-fuzz [options]\n"
      "  --seed N            master seed (default 0)\n"
      "  --iters K           grammars to generate (default 1000)\n"
      "  --sentences S       in-language samples per grammar (default 4)\n"
      "  --mutations M       mutation candidates per sample (default 2)\n"
      "  --max-rules R       parser rules per grammar (default 6)\n"
      "  --no-minimize       report failures unshrunk\n"
      "  --no-grammar-checks skip determinism + serializer oracles\n"
      "  --no-leftrec        drop left-recursive rules from the envelope\n"
      "  --no-preds          drop syntactic/semantic predicates\n"
      "  --no-blocks         drop EBNF blocks\n"
      "  --dump-dir DIR      write each failure as DIR/fail-N.g + .input\n"
      "  --emit-corpus DIR COUNT\n"
      "                      generate COUNT valid grammars into DIR and "
      "exit\n"
      "  --lint-smoke        lint each generated grammar instead of the\n"
      "                      differential checks: asserts the lint engine\n"
      "                      never crashes and is run-to-run deterministic\n"
      "  --recover-smoke     mutate valid sentences and parse the mutants\n"
      "                      with error recovery on: asserts recovery\n"
      "                      terminates, reports >=1 error per rejected\n"
      "                      mutant, keeps error spans sorted, and renders\n"
      "                      owned and caller-arena trees identically\n"
      "  --edit-smoke        drive an incremental session through random\n"
      "                      insert/delete/replace edit scripts (including\n"
      "                      token-splitting and trivia-spanning edits) and\n"
      "                      assert that tokens, tree, and diagnostics stay\n"
      "                      byte-identical to a from-scratch parse after\n"
      "                      every edit, rotating through interpreted|\n"
      "                      compiled x recovery on|off\n"
      "  --corpus DIR        edit-smoke only: take grammars from DIR/*.g\n"
      "                      instead of generating them\n"
      "  --edits N           edit-smoke: edits per session (default 8)\n"
      "  --quiet             suppress progress output\n");
  return 3;
}

bool writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << Contents;
  return true;
}

int emitCorpus(const FuzzConfig &Config, const std::string &Dir, int Count) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  int Written = 0;
  // Probe sub-seeds until Count grammars pass full analysis; any skip is a
  // generator bug, but the corpus emitter should not wedge on one.
  for (uint64_t Probe = 0; Written < Count && Probe < uint64_t(Count) * 4;
       ++Probe) {
    uint64_t SubSeed = FuzzRng::mix(Config.Seed, Probe);
    GrammarGenerator Gen(Config.Envelope, SubSeed);
    GeneratedGrammar G = Gen.generate();
    DifferentialOracle Oracle(G.text());
    if (!Oracle.valid()) {
      std::fprintf(stderr, "warning: seed %llu generated invalid grammar\n",
                   (unsigned long long)SubSeed);
      continue;
    }
    char Name[64];
    std::snprintf(Name, sizeof(Name), "fuzz_%03d.g", Written);
    std::string Header =
        "// fuzz corpus grammar " + std::to_string(Written) + " (seed " +
        std::to_string(SubSeed) + ", master seed " +
        std::to_string(Config.Seed) + ")\n";
    if (!writeFile(Dir + "/" + Name, Header + G.text())) {
      std::fprintf(stderr, "error: cannot write %s/%s\n", Dir.c_str(), Name);
      return 1;
    }
    ++Written;
  }
  std::printf("wrote %d corpus grammars to %s\n", Written, Dir.c_str());
  return Written == Count ? 0 : 1;
}

// --lint-smoke: generate grammars and push each through the full lint
// pipeline (all passes + all three renderers) twice, asserting the two
// runs render identically. Crashes surface as a nonzero exit from the
// harness; nondeterminism fails here.
int lintSmoke(const FuzzConfig &Config, bool Quiet) {
  int Failures = 0;
  int Linted = 0;
  for (int I = 0; I < Config.Iterations; ++I) {
    uint64_t SubSeed = FuzzRng::mix(Config.Seed, uint64_t(I));
    GrammarGenerator Gen(Config.Envelope, SubSeed);
    GeneratedGrammar G = Gen.generate();
    std::string Text = G.text();
    DiagnosticEngine Diags;
    auto AG = analyzeGrammarText(Text, Diags);
    if (!AG || Diags.hasErrors())
      continue; // generator emitted an invalid grammar; other modes report it
    ++Linted;
    LintOptions Opts;
    Opts.Profile = true;       // exercise every pass
    Opts.LookaheadBudget = 1;  // and both budget checks
    Opts.DfaStateBudget = 4;
    LintEngine Engine(Opts);
    auto RenderAll = [&](const LintResult &R) {
      return renderLintText(R, "fuzz.g") + renderLintJson(R, "fuzz.g") +
             renderSarif(R, "fuzz.g");
    };
    std::string First = RenderAll(Engine.run(*AG, Text));
    std::string Second = RenderAll(Engine.run(*AG, Text));
    if (First != Second) {
      ++Failures;
      std::printf("=== lint nondeterminism (seed %llu) ===\n--- grammar "
                  "---\n%s--- first ---\n%s--- second ---\n%s\n",
                  (unsigned long long)SubSeed, Text.c_str(), First.c_str(),
                  Second.c_str());
    }
    if (!Quiet && Config.Iterations >= 20 &&
        (I + 1) % (Config.Iterations / 10) == 0)
      std::printf("[%d/%d] linted %d grammars, %d failures\n", I + 1,
                  Config.Iterations, Linted, Failures);
  }
  std::printf("lint smoke done: seed %llu, %d/%d grammars linted, "
              "%d failure%s\n",
              (unsigned long long)Config.Seed, Linted, Config.Iterations,
              Failures, Failures == 1 ? "" : "s");
  return Failures ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// --recover-smoke
//===----------------------------------------------------------------------===//

/// One mutant pushed through the error-recovering parser. Returns a
/// non-empty failure detail when any recovery invariant breaks.
std::string checkRecoverOnce(const AnalyzedGrammar &AG,
                             const std::string &Input) {
  // Lex once up front; a mutation cannot produce unlexable text (token
  // texts are drawn from the grammar), but stay defensive.
  DiagnosticEngine LexDiags;
  std::vector<Token> Tokens = AG.lexer().tokenize(Input, LexDiags);
  if (LexDiags.hasErrors())
    return "";

  // Label the mutant with the packrat baseline: mutations may stay inside
  // the language, in which case recovery must report nothing.
  bool InLanguage;
  {
    TokenStream Stream{std::vector<Token>(Tokens)};
    DiagnosticEngine Diags;
    PackratParser::Options Opts;
    PackratParser P(AG.grammar(), Stream, nullptr, Diags, Opts);
    P.parse();
    InLanguage = P.ok();
  }

  // Recovering parse into an owned tree (tokens copied).
  std::string OwnedTree;
  size_t OwnedErrorNodes = 0;
  size_t NumErrors = 0;
  {
    TokenStream Stream{std::vector<Token>(Tokens)};
    DiagnosticEngine Diags;
    ParserOptions Opts;
    Opts.BuildTree = true;
    Opts.Recover = true;
    LLStarParser P(AG, Stream, nullptr, Diags, Opts);
    auto Tree = P.parse();
    NumErrors = Diags.errorCount();
    if (!InLanguage && NumErrors == 0)
      return "packrat rejects the mutant but the recovering parse "
             "reported no syntax error";
    if (InLanguage && NumErrors > 0)
      return "packrat accepts the mutant but the recovering parse "
             "reported " +
             std::to_string(NumErrors) + " error(s)";
    if (!Tree)
      return "recovering parse returned no tree";
    if (NumErrors > 0 && Tree->numErrorNodes() == 0)
      return "syntax errors were reported but the partial tree has no "
             "error nodes";
    OwnedTree = Tree->str(AG.grammar());
    OwnedErrorNodes = Tree->numErrorNodes();

    // Error spans must come back sorted by source position.
    SourceLocation Prev;
    bool HavePrev = false;
    for (const Diagnostic &D : Diags.sorted()) {
      if (D.Severity != DiagSeverity::Error)
        continue;
      if (HavePrev && (D.Loc.Line < Prev.Line ||
                       (D.Loc.Line == Prev.Line &&
                        D.Loc.Column < Prev.Column)))
        return "sorted error list is out of source order";
      Prev = D.Loc;
      HavePrev = true;
    }
  }

  // Recovering parse into a caller arena: byte-identical rendering, same
  // repairs.
  {
    TokenStream Stream{std::vector<Token>(Tokens)};
    DiagnosticEngine Diags;
    Arena TreeArena;
    ParserOptions Opts;
    Opts.BuildTree = true;
    Opts.Recover = true;
    Opts.TreeArena = &TreeArena;
    LLStarParser P(AG, Stream, nullptr, Diags, Opts);
    P.parse();
    if (!P.arenaTree())
      return "arena recovering parse returned no tree";
    if (Diags.errorCount() != NumErrors)
      return "owned and arena parses disagree on the error count";
    if (P.arenaTree()->numErrorNodes() != OwnedErrorNodes)
      return "owned and arena trees disagree on error-node count";
    std::string ArenaTree = P.arenaTree()->str(AG.grammar(), Stream);
    if (ArenaTree != OwnedTree)
      return "owned tree <" + OwnedTree + "> != arena tree <" + ArenaTree +
             ">";
  }
  return "";
}

// --recover-smoke: derive minimal valid sentences per decision (SentenceGen
// seeds, sampler fallback), mutate each 1-3 times, and parse every mutant
// with recovery enabled, into an owned tree and into a caller arena.
// Crashes and hangs surface through the harness; invariant breaks fail
// here.
int recoverSmoke(const FuzzConfig &Config, bool Quiet) {
  int Failures = 0;
  int Tested = 0;
  long long Mutants = 0;
  for (int I = 0; I < Config.Iterations; ++I) {
    uint64_t SubSeed = FuzzRng::mix(Config.Seed, uint64_t(I));
    GrammarGenerator Gen(Config.Envelope, SubSeed);
    GeneratedGrammar G = Gen.generate();
    std::string Text = G.text();
    DiagnosticEngine Diags;
    auto AG = analyzeGrammarText(Text, Diags);
    if (!AG || Diags.hasErrors())
      continue; // generator emitted an invalid grammar; other modes report it
    ++Tested;

    SentenceGen SeedGen(*AG);
    std::vector<std::vector<std::string>> Seeds =
        SeedGen.seeds(size_t(std::max(Config.SentencesPerGrammar, 1)));
    SentenceSampler Sampler(AG->grammar(), SubSeed);
    while (Seeds.size() < size_t(std::max(Config.SentencesPerGrammar, 1)))
      Seeds.push_back(Sampler.sample());

    FuzzRng Rng(FuzzRng::mix(SubSeed, 0x5eed));
    for (const std::vector<std::string> &Seed : Seeds) {
      for (int M = 0; M < std::max(Config.MutationsPerSentence, 1); ++M) {
        std::vector<std::string> Mutant = Seed;
        int Edits = 1 + int(Rng.below(3));
        for (int E = 0; E < Edits; ++E)
          Mutant = Sampler.mutate(Mutant);
        ++Mutants;
        std::string Input = SentenceSampler::render(Mutant);
        std::string Detail = checkRecoverOnce(*AG, Input);
        if (!Detail.empty()) {
          ++Failures;
          std::printf("=== recover failure (seed %llu) ===\n%s\n"
                      "--- grammar ---\n%s--- input ---\n%s\n",
                      (unsigned long long)SubSeed, Detail.c_str(),
                      Text.c_str(), Input.c_str());
        }
      }
    }
    if (!Quiet && Config.Iterations >= 20 &&
        (I + 1) % (Config.Iterations / 10) == 0)
      std::printf("[%d/%d] %d grammars, %lld mutants, %d failures\n", I + 1,
                  Config.Iterations, Tested, Mutants, Failures);
  }
  std::printf("recover smoke done: seed %llu, %d/%d grammars, %lld mutants "
              "recovered, %d failure%s\n",
              (unsigned long long)Config.Seed, Tested, Config.Iterations,
              Mutants, Failures, Failures == 1 ? "" : "s");
  return Failures ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// --edit-smoke
//===----------------------------------------------------------------------===//

/// Generates one random edit against \p Text. Insertions draw from whole
/// token texts, token *fragments* (splitting or extending a token under
/// the cursor and flipping maximal-munch winners at the boundary), slices
/// of the input itself (which can span comments/strings and duplicate
/// trivia), bare separators, and bytes the lexer may reject.
incremental::Edit randomEdit(FuzzRng &Rng, const std::string &Text,
                             const std::vector<std::string> &TokenTexts) {
  incremental::Edit E;
  const size_t N = Text.size();
  const uint64_t Op = Rng.below(3); // 0 insert, 1 delete, 2 replace
  if (Op == 0 || N == 0) {
    E.Offset = int64_t(Rng.below(N + 1));
  } else {
    E.Offset = int64_t(Rng.below(N));
    E.OldLen = int64_t(
        1 + Rng.below(std::min<uint64_t>(8, N - uint64_t(E.Offset))));
  }
  if (Op != 1) {
    switch (Rng.below(5)) {
    case 0:
      if (!TokenTexts.empty()) {
        E.NewText = TokenTexts[Rng.below(TokenTexts.size())];
        break;
      }
      [[fallthrough]];
    case 1: {
      if (!TokenTexts.empty()) {
        const std::string &T = TokenTexts[Rng.below(TokenTexts.size())];
        if (!T.empty()) {
          E.NewText = T.substr(0, 1 + Rng.below(T.size()));
          break;
        }
      }
      E.NewText = "x";
      break;
    }
    case 2: {
      if (N > 0) {
        size_t F = Rng.below(N);
        E.NewText = Text.substr(F, 1 + Rng.below(std::min<uint64_t>(6, N - F)));
      } else {
        E.NewText = " ";
      }
      break;
    }
    case 3:
      E.NewText = Rng.below(2) ? "\n" : " ";
      break;
    case 4:
      // Bytes most grammars cannot lex, to exercise error-lexeme
      // retention and diagnostic re-emission.
      E.NewText = std::string(1, "~@#\x01"[Rng.below(4)]);
      break;
    }
  }
  return E;
}

/// One session: reset to \p Base, apply random edits, compare the session
/// against a from-scratch parse after the reset and after every edit.
/// Returns a non-empty failure detail (with the replayable edit history)
/// on the first divergence.
std::string checkEditSessionOnce(std::shared_ptr<const GrammarBundle> Bundle,
                                 const std::string &Base, FuzzRng &Rng,
                                 const incremental::SessionOptions &SO,
                                 int EditsPerSession, long long &EditsRun,
                                 long long &NodesReused) {
  incremental::IncrementalSession S(Bundle, SO);
  std::string History;
  auto Mode = [&]() {
    std::string M = SO.UseCompiled ? "compiled" : "interp";
    M += SO.Recover ? "+recover" : "+strict";
    return M;
  };
  auto Compare = [&](const char *When) -> std::string {
    incremental::ScratchResult R =
        incremental::scratchParse(*Bundle, S.text(), SO);
    std::string Why;
    const std::vector<Token> &T = S.tokens();
    if (S.ok() != R.ParseOk) {
      Why = "ok() diverged";
    } else if (T.size() != R.Tokens.size()) {
      Why = "token count " + std::to_string(T.size()) + " vs scratch " +
            std::to_string(R.Tokens.size());
    } else {
      for (size_t I = 0; I < T.size() && Why.empty(); ++I) {
        const Token &A = T[I];
        const Token &B = R.Tokens[I];
        if (A.Type != B.Type || A.Text != B.Text || A.Offset != B.Offset ||
            A.Loc.Line != B.Loc.Line || A.Loc.Column != B.Loc.Column ||
            A.Index != B.Index)
          Why = "token " + std::to_string(I) + " diverged: <" +
                escapeString(A.Text) + "> type " + std::to_string(A.Type) +
                " off " + std::to_string(A.Offset) + " at " + A.Loc.str() +
                " idx " + std::to_string(A.Index) + " vs scratch <" +
                escapeString(B.Text) + "> type " + std::to_string(B.Type) +
                " off " + std::to_string(B.Offset) + " at " + B.Loc.str() +
                " idx " + std::to_string(B.Index);
      }
      if (Why.empty() && S.treeText() != R.TreeText)
        Why = "tree <" + S.treeText() + "> vs scratch <" + R.TreeText + ">";
      if (Why.empty() && S.diags().str() != R.DiagText)
        Why = "diagnostics <" + S.diags().str() + "> vs scratch <" +
              R.DiagText + ">";
    }
    if (Why.empty())
      return "";
    return std::string(When) + " [" + Mode() + "]: " + Why +
           "\n--- text ---\n" + escapeString(S.text()) +
           "\n--- edit history ---\n" + History;
  };

  incremental::EditOutcome O = S.reset(Base);
  (void)O;
  if (std::string F = Compare("after reset"); !F.empty())
    return F;

  // Token texts feed the edit generator; take them from the base parse.
  std::vector<std::string> TokenTexts;
  for (const Token &T : S.tokens())
    if (!T.isEof())
      TokenTexts.emplace_back(T.Text);

  for (int K = 0; K < EditsPerSession; ++K) {
    incremental::Edit E = randomEdit(Rng, S.text(), TokenTexts);
    History += "edit " + std::to_string(K) + ": offset " +
               std::to_string(E.Offset) + " oldLen " +
               std::to_string(E.OldLen) + " newText \"" +
               escapeString(E.NewText) + "\"\n";
    O = S.applyEdit(E);
    if (O.Error != incremental::EditScriptError::None)
      return std::string("generated edit was rejected (") +
             incremental::editScriptErrorName(O.Error) + ")\n--- edit "
             "history ---\n" + History;
    ++EditsRun;
    NodesReused += O.NodesReused;
    // The outcome's structural counters must agree with the oracle too.
    incremental::ScratchResult R =
        incremental::scratchParse(*Bundle, S.text(), SO);
    if (O.TreeNodes != R.TreeNodes || O.ErrorLeaves != R.ErrorLeaves)
      return "outcome counters diverged [" + Mode() + "]: nodes " +
             std::to_string(O.TreeNodes) + "/" + std::to_string(R.TreeNodes) +
             " errorLeaves " + std::to_string(O.ErrorLeaves) + "/" +
             std::to_string(R.ErrorLeaves) + "\n--- text ---\n" +
             escapeString(S.text()) + "\n--- edit history ---\n" + History;
    if (std::string F = Compare("after edit"); !F.empty())
      return F;
  }
  return "";
}

// --edit-smoke: for each iteration pick a grammar (generated, or from
// --corpus DIR), derive a base sentence, and run an incremental session
// through a random edit script, checking byte-identical equivalence with
// from-scratch parses after every edit. Iterations rotate through all
// four engine/recovery mode combinations.
int editSmoke(const FuzzConfig &Config, const std::string &CorpusDir,
              int EditsPerSession, bool Quiet) {
  std::vector<std::pair<std::string, std::shared_ptr<const GrammarBundle>>>
      Corpus;
  if (!CorpusDir.empty()) {
    std::error_code Ec;
    std::vector<std::string> Paths;
    for (const auto &Entry :
         std::filesystem::directory_iterator(CorpusDir, Ec))
      if (Entry.path().extension() == ".g")
        Paths.push_back(Entry.path().string());
    std::sort(Paths.begin(), Paths.end());
    for (const std::string &P : Paths) {
      std::ifstream In(P);
      std::string Text((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
      DiagnosticEngine Diags;
      auto B = makeGrammarBundle(Text, Diags);
      if (B)
        Corpus.emplace_back(P, std::move(B));
      else
        std::fprintf(stderr, "warning: skipping %s: %s\n", P.c_str(),
                     Diags.str().c_str());
    }
    if (Corpus.empty()) {
      std::fprintf(stderr, "error: no loadable grammars in %s\n",
                   CorpusDir.c_str());
      return 2;
    }
  }

  int Failures = 0, Sessions = 0;
  long long Edits = 0, Reused = 0;
  for (int I = 0; I < Config.Iterations; ++I) {
    uint64_t SubSeed = FuzzRng::mix(Config.Seed, uint64_t(I));
    std::shared_ptr<const GrammarBundle> Bundle;
    std::string GrammarName;
    if (!Corpus.empty()) {
      const auto &Pick = Corpus[size_t(I) % Corpus.size()];
      GrammarName = Pick.first;
      Bundle = Pick.second;
    } else {
      GrammarGenerator Gen(Config.Envelope, SubSeed);
      GeneratedGrammar G = Gen.generate();
      DiagnosticEngine Diags;
      Bundle = makeGrammarBundle(G.text(), Diags);
      if (!Bundle)
        continue; // generator emitted an invalid grammar
      GrammarName = "<generated seed " + std::to_string(SubSeed) + ">";
    }

    // Base input: the longest derivable seed sentence, rendered with an
    // occasional newline separator so edits cross line boundaries.
    const AnalyzedGrammar &AG = Bundle->analyzed();
    SentenceGen SeedGen(AG);
    std::vector<std::vector<std::string>> Seeds =
        SeedGen.seeds(size_t(std::max(Config.SentencesPerGrammar, 1)));
    SentenceSampler Sampler(AG.grammar(), SubSeed);
    while (Seeds.size() < size_t(std::max(Config.SentencesPerGrammar, 1)))
      Seeds.push_back(Sampler.sample());
    FuzzRng Rng(FuzzRng::mix(SubSeed, 0xed17));
    std::vector<std::string> Words;
    for (const std::vector<std::string> &Seed : Seeds)
      if (Seed.size() > Words.size())
        Words = Seed;
    if (Rng.chance(25))
      Words = Sampler.mutate(Words); // start some sessions off-language
    std::string Base;
    for (size_t W = 0; W < Words.size(); ++W) {
      if (W)
        Base += Rng.chance(20) ? '\n' : ' ';
      Base += Words[W];
    }

    incremental::SessionOptions SO;
    SO.UseCompiled = (I & 1) != 0;
    SO.Recover = (I & 2) == 0;
    ++Sessions;
    std::string Detail = checkEditSessionOnce(Bundle, Base, Rng, SO,
                                              std::max(EditsPerSession, 1),
                                              Edits, Reused);
    if (!Detail.empty()) {
      ++Failures;
      std::printf("=== edit-smoke failure (seed %llu, grammar %s) ===\n%s\n",
                  (unsigned long long)SubSeed, GrammarName.c_str(),
                  Detail.c_str());
    }
    if (!Quiet && Config.Iterations >= 20 &&
        (I + 1) % (Config.Iterations / 10) == 0)
      std::printf("[%d/%d] %d sessions, %lld edits, %lld subtrees reused, "
                  "%d failures\n",
                  I + 1, Config.Iterations, Sessions, Edits, Reused,
                  Failures);
  }
  std::printf("edit smoke done: seed %llu, %d sessions, %lld edits, %lld "
              "subtrees reused, %d failure%s\n",
              (unsigned long long)Config.Seed, Sessions, Edits, Reused,
              Failures, Failures == 1 ? "" : "s");
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzConfig Config;
  Config.Iterations = 1000;
  bool Quiet = false, LintSmoke = false, RecoverSmoke = false;
  bool EditSmoke = false;
  std::string DumpDir, CorpusDir, EditCorpusDir;
  int CorpusCount = 0, EditsPerSession = 8;

  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Args.size() ? Args[++I].c_str() : nullptr;
    };
    bool ValueOk = true;
    if (A == "--seed") {
      ValueOk = parseIntegerFlag(Args, I, Config.Seed);
    } else if (A == "--iters") {
      ValueOk = parseIntegerFlag(Args, I, Config.Iterations, 0);
    } else if (A == "--sentences") {
      ValueOk = parseIntegerFlag(Args, I, Config.SentencesPerGrammar, 0);
    } else if (A == "--mutations") {
      ValueOk = parseIntegerFlag(Args, I, Config.MutationsPerSentence, 0);
    } else if (A == "--max-rules") {
      ValueOk = parseIntegerFlag(Args, I, Config.Envelope.MaxRules, 0);
    } else if (A == "--no-minimize") {
      Config.Minimize = false;
    } else if (A == "--no-grammar-checks") {
      Config.CheckGrammarLevel = false;
    } else if (A == "--no-leftrec") {
      Config.Envelope.LeftRecursion = false;
    } else if (A == "--no-preds") {
      Config.Envelope.SynPreds = Config.Envelope.SemPreds = false;
    } else if (A == "--no-blocks") {
      Config.Envelope.EbnfBlocks = false;
    } else if (A == "--dump-dir") {
      const char *V = Next();
      if (!V)
        return usage();
      DumpDir = V;
    } else if (A == "--emit-corpus") {
      const char *D = Next();
      if (!D)
        return usage();
      CorpusDir = D;
      ValueOk = parseIntegerFlag(Args, I, CorpusCount, 0);
    } else if (A == "--lint-smoke") {
      LintSmoke = true;
    } else if (A == "--recover-smoke") {
      RecoverSmoke = true;
    } else if (A == "--edit-smoke") {
      EditSmoke = true;
    } else if (A == "--corpus") {
      const char *V = Next();
      if (!V)
        return usage();
      EditCorpusDir = V;
    } else if (A == "--edits") {
      ValueOk = parseIntegerFlag(Args, I, EditsPerSession, 0);
    } else if (A == "--quiet") {
      Quiet = true;
    } else {
      return usage();
    }
    if (!ValueOk) {
      std::fprintf(stderr, "error: %s needs an integer value in range\n",
                   A.c_str());
      return usage();
    }
  }

  if (!CorpusDir.empty())
    return emitCorpus(Config, CorpusDir, CorpusCount);
  if (LintSmoke)
    return lintSmoke(Config, Quiet);
  if (RecoverSmoke)
    return recoverSmoke(Config, Quiet);
  if (EditSmoke)
    return editSmoke(Config, EditCorpusDir, EditsPerSession, Quiet);

  Fuzzer F(Config);
  if (!Quiet) {
    int Every = Config.Iterations >= 20 ? Config.Iterations / 10 : 1;
    F.Progress = [&](int Iteration, const FuzzRunStats &S) {
      if ((Iteration + 1) % Every == 0)
        std::printf("[%d/%d] grammars %lld, sentences %lld, mutants %lld, "
                    "accepted %lld, rejected %lld, failures %lld\n",
                    Iteration + 1, Config.Iterations, (long long)S.Grammars,
                    (long long)S.Sentences, (long long)S.Mutants,
                    (long long)S.Accepted, (long long)S.Rejected,
                    (long long)S.Failures);
    };
  }

  int NumFailures = F.run();
  const FuzzRunStats &S = F.stats();
  std::printf("fuzz done: seed %llu, %lld grammars, %lld sentences, %lld "
              "mutants (%lld in-language, %lld out-of-language), "
              "%d failure%s\n",
              (unsigned long long)Config.Seed, (long long)S.Grammars,
              (long long)S.Sentences, (long long)S.Mutants,
              (long long)S.Accepted, (long long)S.Rejected, NumFailures,
              NumFailures == 1 ? "" : "s");

  if (!DumpDir.empty() && NumFailures) {
    std::error_code Ec;
    std::filesystem::create_directories(DumpDir, Ec);
  }
  for (size_t I = 0; I < F.failures().size(); ++I) {
    const FuzzFailure &Fail = F.failures()[I];
    std::printf("\n=== failure %zu: %s (grammar seed %llu) ===\n%s\n"
                "--- grammar ---\n%s--- input ---\n%s\n",
                I, Fail.Check.c_str(), (unsigned long long)Fail.GrammarSeed,
                Fail.Detail.c_str(), Fail.GrammarText.c_str(),
                Fail.Input.c_str());
    if (!DumpDir.empty()) {
      std::string Stem = DumpDir + "/fail-" + std::to_string(I);
      writeFile(Stem + ".g", Fail.GrammarText);
      writeFile(Stem + ".input", Fail.Input + "\n");
    }
  }
  return NumFailures ? 1 : 0;
}

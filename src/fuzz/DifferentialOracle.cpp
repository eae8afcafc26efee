#include "fuzz/DifferentialOracle.h"

#include "lexer/TokenStream.h"
#include "peg/PackratParser.h"
#include "runtime/LLStarParser.h"

using namespace llstar;
using namespace llstar::fuzz;

DifferentialOracle::DifferentialOracle(std::string GrammarText)
    : Text(std::move(GrammarText)) {
  DiagnosticEngine Diags;
  AG = analyzeGrammarText(Text, Diags);
  if (!AG || Diags.hasErrors()) {
    AG = nullptr;
    GrammarErr = Diags.str();
    return;
  }
  for (const Rule &R : AG->grammar().rules())
    if (R.IsPrecedenceRule)
      TreesCmp = false;
}

OracleVerdict DifferentialOracle::checkGrammar() {
  // Determinism: a second analysis of the same text must serialize to the
  // same bytes — ATN construction, subset construction, and DFA encoding
  // may not depend on iteration order of hashed containers.
  std::string First = serializeGrammar(*AG);
  {
    DiagnosticEngine Diags;
    auto AG2 = analyzeGrammarText(Text, Diags);
    if (!AG2 || Diags.hasErrors())
      return OracleVerdict::fail("nondeterministic-analysis",
                                 "second analysis of the same text failed:\n" +
                                     Diags.str());
    std::string Second = serializeGrammar(*AG2);
    if (First != Second) {
      size_t At = 0;
      while (At < First.size() && At < Second.size() &&
             First[At] == Second[At])
        ++At;
      return OracleVerdict::fail(
          "nondeterministic-analysis",
          "two DFA constructions differ at serialized offset " +
              std::to_string(At));
    }
  }

  // Serializer round-trip: the compiled form must load back cleanly. The
  // loaded grammar also drives the per-sentence re-prediction check.
  DiagnosticEngine Diags;
  Reloaded = deserializeGrammar(First, Diags);
  if (!Reloaded || Diags.hasErrors()) {
    Reloaded = nullptr;
    return OracleVerdict::fail("serializer-reload",
                               "deserializeGrammar rejected its own output:\n" +
                                   Diags.str());
  }
  return OracleVerdict::ok();
}

namespace {

struct ParseOutcome {
  bool Ok = false;
  std::string Tree;
  std::string Diags;
};

ParseOutcome runLLStar(const AnalyzedGrammar &AG,
                       const std::vector<Token> &Tokens) {
  ParseOutcome R;
  TokenStream Stream{std::vector<Token>(Tokens)};
  DiagnosticEngine Diags;
  ParserOptions Opts;
  Opts.BuildTree = true;
  Opts.CollectStats = false;
  Opts.Recover = false; // recovery would mask accept/reject disagreements
  LLStarParser P(AG, Stream, nullptr, Diags, Opts);
  auto Tree = P.parse();
  R.Ok = P.ok();
  R.Diags = Diags.str();
  if (R.Ok && Tree)
    R.Tree = Tree->str(AG.grammar());
  return R;
}

ParseOutcome runPackrat(const Grammar &G, const std::vector<Token> &Tokens) {
  ParseOutcome R;
  TokenStream Stream{std::vector<Token>(Tokens)};
  DiagnosticEngine Diags;
  PackratParser::Options Opts;
  Opts.BuildTree = true;
  PackratParser P(G, Stream, nullptr, Diags, Opts);
  auto Tree = P.parse();
  R.Ok = P.ok();
  R.Diags = Diags.str();
  if (R.Ok && Tree)
    R.Tree = Tree->str(G);
  return R;
}

} // namespace

OracleVerdict DifferentialOracle::checkSentence(const std::string &Input) {
  // Both engines parse the tokens of the grammar's one lexer.
  DiagnosticEngine LexDiags;
  std::vector<Token> Tokens = AG->lexer().tokenize(Input, LexDiags);
  LastAccepted = false;
  if (LexDiags.hasErrors())
    // Mutation produced unlexable text; not a parser disagreement.
    // (Generator-envelope inputs are always lexable.)
    return OracleVerdict::ok();

  ParseOutcome LL = runLLStar(*AG, Tokens);
  ParseOutcome Peg = runPackrat(AG->grammar(), Tokens);
  LastAccepted = Peg.Ok;

  if (LL.Ok != Peg.Ok)
    return OracleVerdict::fail(
        "accept-mismatch", "LL(*) " + std::string(LL.Ok ? "accepts" : "rejects") +
                               " but packrat " +
                               std::string(Peg.Ok ? "accepts" : "rejects") +
                               " input <" + Input + ">\nLL(*): " + LL.Diags +
                               "packrat: " + Peg.Diags);

  if (LL.Ok && TreesCmp && LL.Tree != Peg.Tree)
    return OracleVerdict::fail("tree-mismatch",
                               "parse trees differ on input <" + Input +
                                   ">\nLL(*):   " + LL.Tree +
                                   "\npackrat: " + Peg.Tree);

  // Serializer re-prediction: the deserialized tables must behave like the
  // fresh analysis — same tokens, same verdict, same tree.
  if (Reloaded) {
    DiagnosticEngine ReDiags;
    std::vector<Token> ReToks = Reloaded->lexer().tokenize(Input, ReDiags);
    if (ReDiags.hasErrors())
      return OracleVerdict::fail("serializer-tokens",
                                 "compiled lexer rejects input <" + Input +
                                     ">:\n" + ReDiags.str());
    if (Tokens.size() != ReToks.size())
      return OracleVerdict::fail(
          "serializer-tokens",
          "compiled lexer token count differs on input <" + Input + ">");
    for (size_t I = 0; I < Tokens.size(); ++I)
      if (Tokens[I].Type != ReToks[I].Type || Tokens[I].Text != ReToks[I].Text)
        return OracleVerdict::fail(
            "serializer-tokens",
            "compiled lexer token " + std::to_string(I) + " differs on input <" +
                Input + ">: '" + std::string(Tokens[I].Text) + "' vs '" +
                std::string(ReToks[I].Text) + "'");

    // Parse through the reloaded tables. The deserialized Grammar carries
    // no LexerSpec — tokens must come from the precompiled lexer DFA.
    ParseOutcome Re = runLLStar(*Reloaded, ReToks);
    if (Re.Ok != LL.Ok)
      return OracleVerdict::fail(
          "serializer-verdict",
          "reloaded grammar " + std::string(Re.Ok ? "accepts" : "rejects") +
              " but fresh analysis " +
              std::string(LL.Ok ? "accepts" : "rejects") + " input <" + Input +
              ">");
    if (Re.Ok && Re.Tree != LL.Tree)
      return OracleVerdict::fail("serializer-tree",
                                 "reloaded grammar builds a different tree "
                                 "on input <" +
                                     Input + ">\nfresh:    " + LL.Tree +
                                     "\nreloaded: " + Re.Tree);
  }

  return OracleVerdict::ok();
}

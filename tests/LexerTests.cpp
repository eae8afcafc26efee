//===- tests/LexerTests.cpp - DFA lexer and token stream tests ------------===//

#include "TestHelpers.h"
#include "fuzz/SentenceGen.h"
#include "fuzz/SentenceSampler.h"
#include "lexer/Lexer.h"
#include "lexer/TokenStream.h"
#include "lexer/Vocabulary.h"
#include "regex/RegexParser.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

using namespace llstar;

// The runtime holds every token of a request in memory (LL(*) lookahead
// and syntactic predicates rewind), so a token must stay a small view.
static_assert(std::is_trivially_copyable_v<Token>);
static_assert(std::is_trivially_destructible_v<Token>);
static_assert(sizeof(Token) <= 48);

namespace {

regex::RegexNode::Ptr re(const std::string &Pattern) {
  DiagnosticEngine Diags;
  auto Re = regex::parseRegex(Pattern, Diags);
  EXPECT_TRUE(Re) << Diags.str();
  return Re;
}

LexerSpec basicSpec(Vocabulary &V) {
  LexerSpec Spec;
  // Literals first (priority 0) so keywords beat ID on ties.
  Spec.addRule(V.getOrDefine("'int'", true), re("int"), LexerAction::Emit, 0);
  Spec.addRule(V.getOrDefine("ID"), re("[a-zA-Z_][a-zA-Z0-9_]*"),
               LexerAction::Emit, 100);
  Spec.addRule(V.getOrDefine("NUM"), re("[0-9]+"), LexerAction::Emit, 101);
  Spec.addRule(V.getOrDefine("WS"), re("[ \t\n]+"), LexerAction::Skip, 102);
  return Spec;
}

TEST(Lexer, BasicTokenization) {
  Vocabulary V;
  LexerSpec Spec = basicSpec(V);
  DiagnosticEngine Diags;
  Lexer L(Spec, V, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();

  std::vector<Token> Tokens = L.tokenize("int foo 42", Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(Tokens.size(), 4u); // int, foo, 42, EOF
  EXPECT_EQ(Tokens[0].Type, V.lookup("'int'"));
  EXPECT_EQ(Tokens[0].Text, "int");
  EXPECT_EQ(Tokens[1].Type, V.lookup("ID"));
  EXPECT_EQ(Tokens[1].Text, "foo");
  EXPECT_EQ(Tokens[2].Type, V.lookup("NUM"));
  EXPECT_TRUE(Tokens[3].isEof());
}

TEST(Lexer, MaximalMunchBeatsKeyword) {
  Vocabulary V;
  LexerSpec Spec = basicSpec(V);
  DiagnosticEngine Diags;
  Lexer L(Spec, V, Diags);
  // "integer" is longer than "int": ID wins by maximal munch.
  std::vector<Token> Tokens = L.tokenize("integer", Diags);
  ASSERT_EQ(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].Type, V.lookup("ID"));
  EXPECT_EQ(Tokens[0].Text, "integer");
}

TEST(Lexer, LineAndColumnTracking) {
  Vocabulary V;
  LexerSpec Spec = basicSpec(V);
  DiagnosticEngine Diags;
  Lexer L(Spec, V, Diags);
  std::vector<Token> Tokens = L.tokenize("foo\n  bar", Diags);
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Loc, SourceLocation(1, 0));
  EXPECT_EQ(Tokens[1].Loc, SourceLocation(2, 2));
}

TEST(Lexer, UnknownCharacterIsReportedAndSkipped) {
  Vocabulary V;
  LexerSpec Spec = basicSpec(V);
  DiagnosticEngine LexDiags;
  Lexer L(Spec, V, LexDiags);
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = L.tokenize("foo $ bar", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  ASSERT_EQ(Tokens.size(), 3u); // foo, bar, EOF: lexing continued
  EXPECT_EQ(Tokens[1].Text, "bar");
}

TEST(Lexer, EmptyMatchingRuleRejected) {
  Vocabulary V;
  LexerSpec Spec;
  Spec.addRule(V.getOrDefine("BAD"), re("a*"));
  DiagnosticEngine Diags;
  Lexer L(Spec, V, Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_TRUE(Diags.contains("empty string"));
}

// The grammar's lexer is compiled during analysis, so every entry point
// that analyzes (analyze, lint, compile, parse, bundles) rejects a token
// rule that can match the empty string.
TEST(Lexer, AnalysisRejectsEmptyMatchingTokenRule) {
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(R"(
grammar T;
s : BAD ;
BAD : 'a'* ;
)",
                               Diags);
  EXPECT_EQ(AG, nullptr);
  ASSERT_EQ(Diags.diagnostics().size(), 1u) << Diags.str();
  // The rejection names the token rule and points at its definition.
  const Diagnostic &D = Diags.diagnostics().front();
  EXPECT_EQ(D.Severity, DiagSeverity::Error);
  EXPECT_EQ(D.Message, "lexer rule BAD can match the empty string");
  EXPECT_EQ(D.Loc.Line, 4u);
}

TEST(TokenStream, LookaheadAndSeek) {
  // Token text is a view; the strings it views must outlive the stream.
  const std::string Texts[] = {"t0", "t1", "t2"};
  std::vector<Token> Tokens;
  for (int I = 0; I < 3; ++I)
    Tokens.push_back(
        Token(TokenType(I + 1), Texts[I], SourceLocation(1, uint32_t(I))));
  Tokens.push_back(Token(TokenEof, "<EOF>", SourceLocation(1, 3)));
  for (size_t I = 0; I < Tokens.size(); ++I)
    Tokens[I].Index = int64_t(I);
  TokenStream S(std::move(Tokens));

  EXPECT_EQ(S.LA(1), 1);
  EXPECT_EQ(S.LA(2), 2);
  EXPECT_EQ(S.LA(99), TokenEof); // clamped to EOF
  S.consume();
  EXPECT_EQ(S.index(), 1);
  EXPECT_EQ(S.LA(1), 2);
  S.seek(0);
  EXPECT_EQ(S.LA(1), 1);
  // Consuming past EOF stays put.
  for (int I = 0; I < 10; ++I)
    S.consume();
  EXPECT_EQ(S.LA(1), TokenEof);
}

TEST(Vocabulary, NamesAndLiterals) {
  Vocabulary V;
  TokenType Id = V.getOrDefine("ID");
  TokenType Kw = V.getOrDefine("'while'", /*Literal=*/true);
  EXPECT_EQ(V.lookup("ID"), Id);
  EXPECT_EQ(V.lookupLiteral("while"), Kw);
  EXPECT_EQ(V.name(Id), "ID");
  EXPECT_EQ(V.name(Kw), "'while'");
  EXPECT_EQ(V.name(TokenEof), "EOF");
  EXPECT_EQ(V.name(999), "<invalid>");
  EXPECT_TRUE(V.isLiteral(Kw));
  EXPECT_FALSE(V.isLiteral(Id));
  EXPECT_EQ(V.literalText(Kw), "while");
  // Idempotent definition.
  EXPECT_EQ(V.getOrDefine("ID"), Id);
  EXPECT_EQ(V.maxTokenType(), 2);
}

} // namespace

namespace {

TEST(Lexer, HiddenChannelTokensPreserved) {
  Vocabulary V;
  LexerSpec Spec;
  DiagnosticEngine D;
  Spec.addRule(V.getOrDefine("ID"),
               regex::parseRegex("[a-z]+", D), LexerAction::Emit, 0);
  Spec.addRule(V.getOrDefine("COMMENT"),
               regex::parseRegex("#[a-z ]*", D), LexerAction::Hidden, 1);
  Spec.addRule(V.getOrDefine("WS"),
               regex::parseRegex(" +", D), LexerAction::Skip, 2);
  DiagnosticEngine LexDiags;
  Lexer L(Spec, V, LexDiags);
  ASSERT_FALSE(LexDiags.hasErrors()) << LexDiags.str();

  std::vector<Token> Hidden;
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = L.tokenize("abc #note here", Diags, &Hidden);
  ASSERT_EQ(Tokens.size(), 2u); // abc + EOF: comment not in parse stream
  EXPECT_EQ(Tokens[0].Text, "abc");
  ASSERT_EQ(Hidden.size(), 1u);
  EXPECT_EQ(Hidden[0].Text, "#note here");
  EXPECT_EQ(Hidden[0].Channel, TokenChannel::Hidden);
}

/// Every token of \p Toks views \p Input at its own offset.
void expectViewsInto(std::string_view Input, const std::vector<Token> &Toks) {
  for (const Token &T : Toks) {
    if (T.isEof()) {
      EXPECT_EQ(T.Offset, int64_t(Input.size()));
      EXPECT_EQ(T.Text, "<EOF>");
      continue;
    }
    ASSERT_GE(T.Offset, 0);
    ASSERT_LE(size_t(T.Offset) + T.Text.size(), Input.size());
    EXPECT_EQ(T.Text.data(), Input.data() + T.Offset) << T.Text;
    EXPECT_EQ(T.Text, Input.substr(size_t(T.Offset), T.Text.size()));
  }
}

// Token text is a view into the caller's input: for every shipped grammar,
// over a corpus of derived and sampled sentences, each token (parse-stream
// and hidden-channel alike) points exactly at its bytes of the input.
TEST(Lexer, TokensViewTheInputAcrossTheShippedGrammars) {
  std::filesystem::path Dir =
      std::filesystem::path(LLSTAR_SOURCE_DIR) / "grammars";
  int Grammars = 0;
  size_t HiddenTokens = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".g")
      continue;
    SCOPED_TRACE(Entry.path().filename().string());
    std::ifstream In(Entry.path());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    // Route skipped trivia to the hidden channel so it is lexed and kept.
    std::string Text = Buf.str();
    for (size_t At; (At = Text.find("-> skip")) != std::string::npos;)
      Text.replace(At, 7, "-> hidden");
    auto AG = test::analyzeOrFail(Text);
    ASSERT_TRUE(AG);
    ++Grammars;

    std::string Corpus;
    auto Append = [&](const std::vector<std::string> &Words) {
      for (const std::string &W : Words)
        Corpus += W + " ";
      Corpus += "\n";
    };
    for (const auto &Seed : fuzz::SentenceGen(*AG).seeds())
      Append(Seed);
    fuzz::SentenceSampler Sampler(AG->grammar(), /*Seed=*/12);
    for (int I = 0; I < 16; ++I)
      Append(Sampler.sample());

    DiagnosticEngine Diags;
    std::vector<Token> Hidden;
    std::vector<Token> Toks = AG->lexer().tokenize(Corpus, Diags, &Hidden);
    ASSERT_GT(Toks.size(), 1u);
    expectViewsInto(Corpus, Toks);
    expectViewsInto(Corpus, Hidden);
    for (const Token &T : Hidden)
      EXPECT_EQ(T.Channel, TokenChannel::Hidden);
    HiddenTokens += Hidden.size();
  }
  EXPECT_EQ(Grammars, 7);
  EXPECT_GT(HiddenTokens, 0u);
}

} // namespace

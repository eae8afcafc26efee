//===- tests/BundleTests.cpp - Versioned bundle container robustness ------===//
//
// The `llstarbundle` container and the hardened deserializer must reject —
// never crash on — truncated, bit-flipped, or otherwise mangled input. A
// corrupt bundle on disk is an operational fact of life for the parse
// service; the failure mode has to be a diagnostic, not UB.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "codegen/Serializer.h"
#include "service/GrammarBundleCache.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <random>

using namespace llstar;
using namespace llstar::test;

namespace {

const char *BundleGrammar = R"(
grammar Bundled;
s    : stmt* EOF ;
stmt : ID '=' expr ';' | 'if' expr 'then' stmt ;
expr : ID | INT | '(' expr expr ')' ;
ID   : [a-z]+ ;
INT  : [0-9]+ ;
WS   : [ \t\r\n]+ -> skip ;
)";

std::string makeBundle() {
  auto AG = analyzeOrFail(BundleGrammar);
  EXPECT_TRUE(AG);
  return writeBundle(*AG);
}

TEST(BundleTest, RoundTripParsesIdentically) {
  auto AG = analyzeOrFail(BundleGrammar);
  ASSERT_TRUE(AG);
  std::string Bytes = writeBundle(*AG);
  EXPECT_TRUE(looksLikeBundle(Bytes));
  EXPECT_FALSE(looksLikeBundle(BundleGrammar));

  DiagnosticEngine Diags;
  auto Loaded = readBundle(Bytes, Diags);
  ASSERT_TRUE(Loaded) << Diags.str();

  for (const char *Input : {"a = 1 ;", "if a then b = ( c 2 ) ;", "x y"}) {
    DiagnosticEngine LexDiags;
    TokenStream Stream(Loaded->lexer().tokenize(Input, LexDiags));
    DiagnosticEngine D1, D2;
    LLStarParser P1(*Loaded, Stream, nullptr, D1);
    auto T1 = P1.parse("");
    TokenStream S2 = lexOrFail(*AG, Input);
    LLStarParser P2(*AG, S2, nullptr, D2);
    auto T2 = P2.parse("");
    EXPECT_EQ(P1.ok(), P2.ok()) << Input;
    if (P1.ok() && P2.ok()) {
      EXPECT_EQ(T1->str(Loaded->grammar()), T2->str(AG->grammar()));
    }
  }
}

TEST(BundleTest, RejectsWrongMagicAndVersions) {
  std::string Bytes = makeBundle();

  DiagnosticEngine D1;
  EXPECT_EQ(readBundle("not a bundle at all", D1), nullptr);
  EXPECT_NE(D1.str().find("missing 'llstarbundle' header"),
            std::string::npos);

  // Same payload, future version: must refuse rather than misparse.
  std::string Future = Bytes;
  size_t VersionPos = Future.find(' ') + 1;
  Future[VersionPos] = '9';
  DiagnosticEngine D2;
  EXPECT_EQ(readBundle(Future, D2), nullptr);
  EXPECT_NE(D2.str().find("unsupported bundle format version"),
            std::string::npos);
}

TEST(BundleTest, HeaderAnalysisWord) {
  std::string Bytes = makeBundle();
  size_t HeaderEnd = Bytes.find('\n');
  std::string Payload = Bytes.substr(HeaderEnd + 1);
  std::string Sizes = " " + std::to_string(Payload.size()) + " " +
                      std::to_string(hashBytes(Payload));
  auto Load = [&](const std::string &Header, DiagnosticEngine &Diags) {
    return readBundle(Header + "\n" + Payload, Diags);
  };

  // writeBundle stamps v3 plus "llstar", byte-identically on every write,
  // and that header loads.
  EXPECT_EQ(Bytes.substr(0, HeaderEnd), "llstarbundle 3" + Sizes + " llstar");
  EXPECT_EQ(makeBundle(), Bytes);
  {
    DiagnosticEngine Diags;
    EXPECT_TRUE(Load("llstarbundle 3" + Sizes + " llstar", Diags))
        << Diags.str();
  }
  // v2 headers end at the hash and still load.
  {
    DiagnosticEngine Diags;
    EXPECT_TRUE(Load("llstarbundle 2" + Sizes, Diags)) << Diags.str();
  }
  // Bundles from the removed LL(finite) backend get their own diagnostic.
  {
    DiagnosticEngine Diags;
    EXPECT_EQ(Load("llstarbundle 3" + Sizes + " llfinite", Diags), nullptr);
    EXPECT_NE(Diags.str().find("removed 'llfinite' analysis backend"),
              std::string::npos)
        << Diags.str();
  }
  {
    DiagnosticEngine Diags;
    EXPECT_EQ(Load("llstarbundle 3" + Sizes + " bogus", Diags), nullptr);
    EXPECT_NE(Diags.str().find("unknown analysis backend 'bogus'"),
              std::string::npos)
        << Diags.str();
  }
  // v3 without the word, and v2 with one, are malformed.
  for (const std::string &Header :
       {"llstarbundle 3" + Sizes, "llstarbundle 2" + Sizes + " llstar"}) {
    DiagnosticEngine Diags;
    EXPECT_EQ(Load(Header, Diags), nullptr) << Header;
    EXPECT_NE(Diags.str().find("malformed bundle header"), std::string::npos)
        << Header << ": " << Diags.str();
  }
}

TEST(BundleTest, RejectsHeaderOverflowWithoutThrowing) {
  // Digit runs past int64 range previously fed std::stoll, which throws.
  for (const char *Evil :
       {"llstarbundle 99999999999999999999999999 4 1\nabcd",
        "llstarbundle 1 99999999999999999999999999 1\nabcd",
        "llstarbundle 1 4 99999999999999999999999999999999\nabcd",
        "llstarbundle - 4 1\nabcd", "llstarbundle\n", "llstarbundle 1",
        "llstarbundle 1 4 1"}) {
    DiagnosticEngine Diags;
    EXPECT_EQ(readBundle(Evil, Diags), nullptr) << Evil;
    EXPECT_TRUE(Diags.hasErrors()) << Evil;
  }
}

TEST(BundleTest, RejectsEveryTruncation) {
  std::string Bytes = makeBundle();
  // Every prefix must load cleanly or fail cleanly — never crash. Step 7
  // keeps the loop fast while still hitting header, table, and mid-number
  // cut points.
  for (size_t Len = 0; Len < Bytes.size(); Len += 7) {
    DiagnosticEngine Diags;
    EXPECT_EQ(readBundle(Bytes.substr(0, Len), Diags), nullptr)
        << "prefix of " << Len << " bytes";
    EXPECT_TRUE(Diags.hasErrors());
  }
}

TEST(BundleTest, RejectsSeededByteFlips) {
  std::string Bytes = makeBundle();
  std::mt19937_64 Rng(0xb1f5ed);
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::string Mangled = Bytes;
    int Flips = 1 + int(Rng() % 4);
    for (int F = 0; F < Flips; ++F)
      Mangled[Rng() % Mangled.size()] ^= char(1 << (Rng() % 8));
    // Whatever the flip hit — header digits, the hash, table numbers — the
    // reader must return null or a (rare) valid grammar, never crash.
    DiagnosticEngine Diags;
    auto Loaded = readBundle(Mangled, Diags);
    if (!Loaded) {
      EXPECT_TRUE(Diags.hasErrors()) << "trial " << Trial;
    }
  }
}

TEST(BundleTest, RejectsMangledPayloadTables) {
  // Bypass the container hash and attack the deserializer itself: the
  // payload-level fuzz that drove the bounds validation in readGrammar.
  auto AG = analyzeOrFail(BundleGrammar);
  ASSERT_TRUE(AG);
  std::string Payload = serializeGrammar(*AG);
  std::mt19937_64 Rng(0xdead5eed);
  for (int Trial = 0; Trial < 300; ++Trial) {
    std::string Mangled = Payload;
    int Edits = 1 + int(Rng() % 8);
    for (int E = 0; E < Edits; ++E) {
      size_t Pos = Rng() % Mangled.size();
      switch (Rng() % 3) {
      case 0: // flip a bit
        Mangled[Pos] ^= char(1 << (Rng() % 8));
        break;
      case 1: // overwrite with a digit (perturbs table indices)
        Mangled[Pos] = char('0' + Rng() % 10);
        break;
      default: // splice in a huge number
        Mangled.insert(Pos, "999999999999999999999");
        break;
      }
    }
    DiagnosticEngine Diags;
    auto Loaded = deserializeGrammar(Mangled, Diags);
    if (Loaded) {
      // Survivors must be structurally usable, not just non-null.
      DiagnosticEngine LexDiags;
      TokenStream Stream(Loaded->lexer().tokenize("a = 1 ;", LexDiags));
      DiagnosticEngine ParseDiags;
      LLStarParser P(*Loaded, Stream, nullptr, ParseDiags);
      P.parse("");
    }
  }
}

TEST(BundleTest, ReportsPayloadCorruptionPrecisely) {
  std::string Bytes = makeBundle();
  size_t PayloadStart = Bytes.find('\n') + 1;

  std::string Flipped = Bytes;
  Flipped[PayloadStart + 10] ^= 0x20;
  DiagnosticEngine D1;
  EXPECT_EQ(readBundle(Flipped, D1), nullptr);
  EXPECT_NE(D1.str().find("hash mismatch"), std::string::npos);

  std::string Short = Bytes.substr(0, Bytes.size() - 5);
  DiagnosticEngine D2;
  EXPECT_EQ(readBundle(Short, D2), nullptr);
  EXPECT_NE(D2.str().find("header declares"), std::string::npos);
}

} // namespace

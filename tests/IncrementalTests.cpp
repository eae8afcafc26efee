//===- tests/IncrementalTests.cpp - Incremental lex + reparse -------------===//
//
// Coverage for src/incremental/: the EditScript JSON parser's typed
// rejections, token offset/line-column agreement between full and
// incremental tokenization on multi-line inputs, and the reuse-soundness
// contract of IncrementalSession — after every edit the session must be
// byte-identical to a from-scratch parse (scratchParse is the oracle) in
// every engine/recovery mode. The adversarial cases aim edits
// directly at the subsystem's invariants: inside tokens, at
// maximal-munch boundaries, just outside the damage window where only
// maxLookaheadReach prevents unsound reuse, and into panic-recovered
// regions. `llstar-fuzz --edit-smoke` extends the same oracle to random
// edit scripts; these tests pin the targeted constructions.
//
//===----------------------------------------------------------------------===//

#include "compiled/CompiledParser.h"
#include "incremental/IncrementalSession.h"
#include "runtime/LLStarParser.h"
#include "service/GrammarBundleCache.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace llstar;
using namespace llstar::incremental;

namespace {

const char *ExprGrammar = R"(
grammar Expr;
s    : expr EOF ;
expr : term (('+' | '-') term)* ;
term : atom ('*' atom)* ;
atom : INT | ID | '(' expr ')' ;
INT  : [0-9]+ ;
ID   : [a-z] [a-z0-9]* ;
WS   : [ \t\r\n]+ -> skip ;
)";

std::shared_ptr<const GrammarBundle> bundleOrFail(const char *Text) {
  DiagnosticEngine Diags;
  auto Bundle = makeGrammarBundle(Text, Diags);
  EXPECT_TRUE(Bundle) << Diags.str();
  return Bundle;
}

/// All four engine/recovery combinations.
std::vector<SessionOptions> allModes() {
  std::vector<SessionOptions> Modes;
  for (int I = 0; I < 4; ++I) {
    SessionOptions SO;
    SO.UseCompiled = (I & 1) != 0;
    SO.Recover = (I & 2) == 0;
    Modes.push_back(SO);
  }
  return Modes;
}

std::string modeName(const SessionOptions &SO) {
  std::string M = SO.UseCompiled ? "compiled" : "interp";
  M += SO.Recover ? "+recover" : "+strict";
  return M;
}

/// The oracle check: the session's observable state must match a
/// from-scratch parse of the same text in the same mode, byte for byte.
void expectMatchesScratch(const IncrementalSession &S,
                          const SessionOptions &SO, const char *Where) {
  ScratchResult R = scratchParse(S.bundle(), S.text(), SO);
  SCOPED_TRACE(std::string(Where) + " [" + modeName(SO) + "] text <" +
               S.text() + ">");
  EXPECT_EQ(S.ok(), R.ParseOk);
  ASSERT_EQ(S.tokens().size(), R.Tokens.size());
  for (size_t I = 0; I < R.Tokens.size(); ++I) {
    const Token &A = S.tokens()[I];
    const Token &B = R.Tokens[I];
    EXPECT_EQ(A.Type, B.Type) << "token " << I;
    EXPECT_EQ(A.Text, B.Text) << "token " << I;
    EXPECT_EQ(A.Offset, B.Offset) << "token " << I;
    EXPECT_EQ(A.Loc.Line, B.Loc.Line) << "token " << I;
    EXPECT_EQ(A.Loc.Column, B.Loc.Column) << "token " << I;
    EXPECT_EQ(A.Index, B.Index) << "token " << I;
  }
  EXPECT_EQ(S.treeText(), R.TreeText);
  EXPECT_EQ(S.diags().str(), R.DiagText);
}

//===----------------------------------------------------------------------===//
// EditScript: typed rejections
//===----------------------------------------------------------------------===//

TEST(EditScriptTest, ParsesInitialTextSingleEditsAndBatches) {
  EditScriptParseResult R = parseEditScript(R"({
    "initial": "a A\n",
    "edits": [
      {"offset": 1, "oldLen": 0, "newText": "x"},
      [ {"offset": 0, "oldLen": 1, "newText": ""},
        {"offset": 2, "oldLen": 1, "newText": "yz"} ]
    ]
  })");
  ASSERT_TRUE(R) << R.Message;
  EXPECT_EQ(R.Script.Initial, "a A\n");
  ASSERT_EQ(R.Script.Batches.size(), 2u);
  EXPECT_EQ(R.Script.Batches[0].size(), 1u); // single edit = batch of one
  EXPECT_EQ(R.Script.Batches[1].size(), 2u);
  EXPECT_EQ(R.Script.Batches[1][1].NewText, "yz");
}

TEST(EditScriptTest, MalformedJsonIsBadJson) {
  for (const char *Bad :
       {"", "{", "[1]", "{\"edits\": [", "{\"edits\": []} trailing"}) {
    EditScriptParseResult R = parseEditScript(Bad);
    EXPECT_EQ(R.Error, EditScriptError::BadJson) << Bad << ": " << R.Message;
  }
}

TEST(EditScriptTest, MissingFieldsAreMissingField) {
  // No "edits" key at all, and an edit lacking each required field.
  for (const char *Bad :
       {"{}", "{} trailing", R"({"edits": [{"oldLen": 0, "newText": "x"}]})",
        R"({"edits": [{"offset": 0, "newText": "x"}]})",
        R"({"edits": [{"offset": 0, "oldLen": 0}]})"}) {
    EditScriptParseResult R = parseEditScript(Bad);
    EXPECT_EQ(R.Error, EditScriptError::MissingField)
        << Bad << ": " << R.Message;
  }
}

TEST(EditScriptTest, MistypedFieldsAreBadFieldType) {
  for (const char *Bad :
       {R"({"edits": [{"offset": "0", "oldLen": 0, "newText": "x"}]})",
        R"({"edits": [{"offset": 1.5, "oldLen": 0, "newText": "x"}]})",
        R"({"edits": [{"offset": 0, "oldLen": 0, "newText": 3}]})",
        R"({"edits": 7})", R"({"initial": 1, "edits": []})",
        "{\"edits\": [}"}) {
    EditScriptParseResult R = parseEditScript(Bad);
    EXPECT_EQ(R.Error, EditScriptError::BadFieldType)
        << Bad << ": " << R.Message;
  }
}

TEST(EditScriptTest, NegativeValuesAreNegativeValue) {
  for (const char *Bad :
       {R"({"edits": [{"offset": -1, "oldLen": 0, "newText": ""}]})",
        R"({"edits": [{"offset": 0, "oldLen": -2, "newText": ""}]})"}) {
    EditScriptParseResult R = parseEditScript(Bad);
    EXPECT_EQ(R.Error, EditScriptError::NegativeValue)
        << Bad << ": " << R.Message;
  }
}

TEST(EditScriptTest, OverlappingBatchSpansAreOverlap) {
  EditScriptParseResult R = parseEditScript(
      R"({"edits": [[{"offset": 0, "oldLen": 3, "newText": ""},
                     {"offset": 2, "oldLen": 1, "newText": "x"}]]})");
  EXPECT_EQ(R.Error, EditScriptError::Overlap) << R.Message;
}

TEST(EditScriptTest, NonMonotonicBatchOffsetsAreNonMonotonic) {
  EditScriptParseResult R = parseEditScript(
      R"({"edits": [[{"offset": 5, "oldLen": 0, "newText": "a"},
                     {"offset": 2, "oldLen": 0, "newText": "b"}]]})");
  EXPECT_EQ(R.Error, EditScriptError::NonMonotonic) << R.Message;
}

TEST(EditScriptTest, OutOfRangeIsCaughtAtApplyTimeAndLeavesSessionIntact) {
  EXPECT_EQ(validateEdit({10, 0, "x"}, 5), EditScriptError::OutOfRange);
  EXPECT_EQ(validateEdit({3, 4, ""}, 5), EditScriptError::OutOfRange);
  EXPECT_EQ(validateEdit({3, 2, ""}, 5), EditScriptError::None);

  auto Bundle = bundleOrFail(ExprGrammar);
  IncrementalSession S(Bundle, SessionOptions());
  ASSERT_TRUE(S.reset("1 + 2").ParseOk);
  std::string Before = S.treeText();
  EditOutcome O = S.applyEdit({99, 0, "x"});
  EXPECT_EQ(O.Error, EditScriptError::OutOfRange);
  EXPECT_EQ(S.text(), "1 + 2");       // session unchanged
  EXPECT_EQ(S.treeText(), Before);
}

//===----------------------------------------------------------------------===//
// Token offsets and line/column on multi-line inputs
//===----------------------------------------------------------------------===//

TEST(IncrementalLexTest, OffsetsAndLineColAgreeWithFullTokenizeAcrossEdits) {
  auto Bundle = bundleOrFail(ExprGrammar);
  SessionOptions SO;
  IncrementalSession S(Bundle, SO);
  ASSERT_TRUE(S.reset("one +\n  two * 3\n+ (four)\n").ParseOk);

  // Every token's byte offset must point at its own text, and line/column
  // must match a 1-based-line, 0-based-column walk of the string.
  auto CheckSelfConsistent = [&] {
    for (const Token &T : S.tokens()) {
      if (T.isEof())
        continue;
      ASSERT_LE(size_t(T.Offset) + T.Text.size(), S.text().size());
      EXPECT_EQ(S.text().substr(size_t(T.Offset), T.Text.size()), T.Text);
      uint32_t Line = 1, Col = 0;
      for (int64_t I = 0; I < T.Offset; ++I) {
        if (S.text()[size_t(I)] == '\n') {
          ++Line;
          Col = 0;
        } else {
          ++Col;
        }
      }
      EXPECT_EQ(T.Loc.Line, Line) << T.Text;
      EXPECT_EQ(T.Loc.Column, Col) << T.Text;
    }
  };
  CheckSelfConsistent();
  expectMatchesScratch(S, SO, "after reset");

  // Edits that shift offsets and line numbers of the retained suffix:
  // insert a line, delete across a newline, append at the end.
  ASSERT_EQ(S.applyEdit({6, 0, "9 *\n"}).Error, EditScriptError::None);
  CheckSelfConsistent();
  expectMatchesScratch(S, SO, "after line insert");
  ASSERT_EQ(S.applyEdit({4, 2, " "}).Error, EditScriptError::None);
  CheckSelfConsistent();
  expectMatchesScratch(S, SO, "after newline delete");
  ASSERT_EQ(S.applyEdit({int64_t(S.text().size()), 0, " * last\n"}).Error,
            EditScriptError::None);
  CheckSelfConsistent();
  expectMatchesScratch(S, SO, "after append");
}

//===----------------------------------------------------------------------===//
// Session equivalence in every mode
//===----------------------------------------------------------------------===//

TEST(IncrementalSessionTest, EditSequenceMatchesScratchInEveryMode) {
  auto Bundle = bundleOrFail(ExprGrammar);
  for (const SessionOptions &SO : allModes()) {
    IncrementalSession S(Bundle, SO);
    S.reset("1 + 2 * (3 + 4) + five");
    expectMatchesScratch(S, SO, "reset");
    struct {
      Edit E;
      const char *Label;
    } Steps[] = {
        {{4, 1, "7"}, "replace a token"},
        {{0, 0, "(9 + 8) * "}, "prefix insert"},
        {{int64_t(std::string("(9 + 8) * 1 + 7").size()), 0, " - 6"},
         "mid insert"},
        {{2, 3, ""}, "delete"},
        {{1, 1, "@"}, "lex-error byte"},
        {{1, 1, " "}, "repair"},
    };
    for (const auto &Step : Steps) {
      ASSERT_EQ(S.applyEdit(Step.E).Error, EditScriptError::None);
      expectMatchesScratch(S, SO, Step.Label);
    }
  }
}

TEST(IncrementalSessionTest, SmallEditsOnLargeInputReuseSubtrees) {
  auto Bundle = bundleOrFail(ExprGrammar);
  std::string Big;
  for (int I = 0; I < 200; ++I)
    Big += (I ? " + (" : "(") + std::to_string(I) + " * " +
           std::to_string(I + 1) + ")";
  for (bool Compiled : {false, true}) {
    SessionOptions SO;
    SO.UseCompiled = Compiled;
    IncrementalSession S(Bundle, SO);
    ASSERT_TRUE(S.reset(Big).ParseOk);
    // A one-byte edit in the middle: almost every paren group is disjoint
    // from the damage window and must be spliced, not reparsed.
    EditOutcome O = S.applyEdit({int64_t(Big.size() / 2), 1, "9"});
    ASSERT_EQ(O.Error, EditScriptError::None);
    EXPECT_GT(O.NodesReused, 100) << modeName(SO);
    EXPECT_LT(O.TokensRelexed, 10) << modeName(SO);
    expectMatchesScratch(S, SO, "small edit on large input");
    EXPECT_EQ(S.stats().NodesReused, O.NodesReused);
  }
}

TEST(IncrementalSessionTest, ApplyBatchSharesOneSnapshot) {
  auto Bundle = bundleOrFail(ExprGrammar);
  SessionOptions SO;
  IncrementalSession S(Bundle, SO);
  ASSERT_TRUE(S.reset("1 + 2 + 3").ParseOk);
  // Offsets address the same snapshot: both edits use pre-batch positions.
  EditOutcome O = S.applyBatch({{0, 1, "11"}, {8, 1, "33"}});
  ASSERT_EQ(O.Error, EditScriptError::None);
  EXPECT_EQ(S.text(), "11 + 2 + 33");
  expectMatchesScratch(S, SO, "after batch");
}

//===----------------------------------------------------------------------===//
// Adversarial reuse
//===----------------------------------------------------------------------===//

TEST(IncrementalSessionTest, EditInsideATokenSplitsIt) {
  auto Bundle = bundleOrFail(ExprGrammar);
  for (const SessionOptions &SO : allModes()) {
    IncrementalSession S(Bundle, SO);
    S.reset("abc + def");
    // " + 1 + " lands inside `def`, splitting it into de / f around new
    // tokens; and inserting inside `abc` extends a token in place.
    ASSERT_EQ(S.applyEdit({8, 0, " + 1 + "}).Error, EditScriptError::None);
    expectMatchesScratch(S, SO, "token split");
    ASSERT_EQ(S.applyEdit({1, 0, "xyz"}).Error, EditScriptError::None);
    expectMatchesScratch(S, SO, "token extend");
  }
}

TEST(IncrementalSessionTest, MaximalMunchWinnerFlipsAtTheDamageBoundary) {
  auto Bundle = bundleOrFail(ExprGrammar);
  SessionOptions SO;
  IncrementalSession S(Bundle, SO);
  // `1 2` is INT INT; deleting the space must re-lex to one INT `12`, and
  // `a1` / `a 1` flip between one ID and ID INT.
  S.reset("1 2 + a 1");
  ASSERT_EQ(S.applyEdit({1, 1, ""}).Error, EditScriptError::None);
  EXPECT_EQ(S.text(), "12 + a 1");
  expectMatchesScratch(S, SO, "INT INT fuses to INT");
  ASSERT_EQ(S.applyEdit({6, 1, ""}).Error, EditScriptError::None);
  EXPECT_EQ(S.text(), "12 + a1");
  expectMatchesScratch(S, SO, "ID INT fuses to ID");
  ASSERT_EQ(S.applyEdit({6, 0, " + "}).Error, EditScriptError::None);
  EXPECT_EQ(S.text(), "12 + a + 1");
  expectMatchesScratch(S, SO, "ID splits back apart");
}

TEST(IncrementalSessionTest, LookaheadReachBlocksReuseJustOutsideTheWindow) {
  // `a` ends after 'x' on input "x z", but predicting its optional ('y')?
  // examined the following token — that overshoot is a's reach. The edit
  // rewrites that token only: a's token span is disjoint from the damage,
  // so span-checking alone would splice the stale (a x) even though a must
  // now consume the new 'y'. Only maxLookaheadReach forbids the reuse.
  auto Bundle = bundleOrFail(R"(
grammar Reach;
s : a b EOF ;
a : 'x' ('y')? ;
b : 'w' | 'z' ;
)");
  for (const SessionOptions &SO : allModes()) {
    IncrementalSession S(Bundle, SO);
    S.reset("x z");
    expectMatchesScratch(S, SO, "reset");
    ASSERT_EQ(S.applyEdit({2, 1, "y w"}).Error, EditScriptError::None);
    EXPECT_EQ(S.text(), "x y w");
    // The oracle equivalence is the soundness proof: the new tree must
    // show a absorbing the 'y', i.e. (a x y), not a spliced stale (a x).
    expectMatchesScratch(S, SO, "edit inside a's lookahead reach");
    if (SO.Recover || S.ok()) {
      EXPECT_NE(S.treeText().find("x y"), std::string::npos) << S.treeText();
    }
  }
}

TEST(IncrementalSessionTest, EditsInPanicRecoveredRegionsStayConsistent) {
  auto Bundle = bundleOrFail(ExprGrammar);
  for (bool Compiled : {false, true}) {
    SessionOptions SO;
    SO.Recover = true;
    SO.UseCompiled = Compiled;
    IncrementalSession S(Bundle, SO);
    // `* *` forces panic recovery mid-expression; then edit inside, just
    // before, and just after the recovered region.
    S.reset("1 + * * 2 + 3");
    EXPECT_FALSE(S.ok());
    expectMatchesScratch(S, SO, "broken reset");
    ASSERT_EQ(S.applyEdit({4, 1, "9"}).Error, EditScriptError::None);
    expectMatchesScratch(S, SO, "edit inside recovered region");
    ASSERT_EQ(S.applyEdit({0, 1, "("}).Error, EditScriptError::None);
    expectMatchesScratch(S, SO, "edit before recovered region");
    ASSERT_EQ(S.applyEdit({int64_t(S.text().size()), 0, " +"}).Error,
              EditScriptError::None);
    expectMatchesScratch(S, SO, "edit after recovered region");
    // Repair the input completely: the session must converge back to a
    // clean parse identical to scratch.
    ASSERT_EQ(S.applyEdit({0, int64_t(S.text().size()), "1 + 2 * 3"}).Error,
              EditScriptError::None);
    EXPECT_TRUE(S.ok());
    expectMatchesScratch(S, SO, "repaired");
  }
}

TEST(IncrementalSessionTest, OutcomeCountsMatchTheScratchWalk) {
  // Every outcome's node and error-leaf counts must equal a walk of the
  // from-scratch tree, whether nodes were built, spliced or recovered.
  auto Bundle = bundleOrFail(ExprGrammar);
  const std::string Initial = "(1 * 2) + (3 * 4) + (5 * 6) + (7 * 8)";
  struct {
    Edit E;
    const char *Label;
  } Steps[] = {
      {{11, 1, "* *"}, "break inside a group"},
      {{int64_t(Initial.size()) + 2, 0, " + )"}, "break at the end"},
      {{11, 3, "3"}, "repair the group"},
      {{int64_t(Initial.size()), 4, ""}, "repair the end"},
      {{21, 1, "55"}, "clean edit"},
  };
  for (bool Compiled : {false, true}) {
    SessionOptions SO;
    SO.Recover = true;
    SO.UseCompiled = Compiled;
    IncrementalSession S(Bundle, SO);
    int64_t MaxErrorLeaves = 0, Reused = 0;
    auto Check = [&](const EditOutcome &O, const char *Label) {
      ASSERT_EQ(O.Error, EditScriptError::None) << Label;
      ScratchResult R = scratchParse(*Bundle, S.text(), SO);
      SCOPED_TRACE(std::string(Label) + " [" + modeName(SO) + "] text <" +
                   S.text() + ">");
      EXPECT_EQ(S.treeText(), R.TreeText);
      EXPECT_EQ(O.TreeNodes, R.TreeNodes);
      EXPECT_EQ(O.ErrorLeaves, R.ErrorLeaves);
      MaxErrorLeaves = std::max(MaxErrorLeaves, O.ErrorLeaves);
      Reused += O.NodesReused;
    };
    Check(S.reset(Initial), "reset");
    for (const auto &Step : Steps)
      Check(S.applyEdit(Step.E), Step.Label);
    EXPECT_EQ(S.text(), "(1 * 2) + (3 * 4) + (55 * 6) + (7 * 8)");
    EXPECT_TRUE(S.ok());
    // The script reached both the recovery and the splice paths.
    EXPECT_GT(MaxErrorLeaves, 0);
    EXPECT_GT(Reused, 0);
  }
}

TEST(IncrementalSessionTest, NoReuseBaselineMatchesToo) {
  auto Bundle = bundleOrFail(ExprGrammar);
  SessionOptions SO;
  SO.Reuse = false;
  IncrementalSession S(Bundle, SO);
  S.reset("1 + 2 * (3 + 4)");
  ASSERT_EQ(S.applyEdit({4, 1, "7"}).Error, EditScriptError::None);
  EditOutcome O = S.applyEdit({0, 0, "0 + "});
  ASSERT_EQ(O.Error, EditScriptError::None);
  EXPECT_EQ(O.NodesReused, 0); // baseline never splices
  expectMatchesScratch(S, SO, "no-reuse baseline");
}

//===----------------------------------------------------------------------===//
// Token views and text ownership
//===----------------------------------------------------------------------===//

// Session tokens view the session's text. Edits that make std::string
// reallocate (a large paste at the front, then appends) must re-point
// every retained view, or the parse reads freed memory.
TEST(IncrementalSessionTest, TokenViewsFollowTheTextWhenItReallocates) {
  auto Bundle = bundleOrFail(ExprGrammar);
  for (const SessionOptions &SO : allModes()) {
    IncrementalSession S(Bundle, SO);
    S.reset("1 + x");
    auto Check = [&](const char *Where) {
      for (const Token &T : S.tokens()) {
        if (T.isEof()) {
          EXPECT_EQ(T.Text, "<EOF>") << Where;
          continue;
        }
        ASSERT_EQ(T.Text.data(), S.text().data() + T.Offset) << Where;
        EXPECT_EQ(T.Text, std::string_view(S.text()).substr(
                              size_t(T.Offset), T.Text.size()))
            << Where;
      }
      expectMatchesScratch(S, SO, Where);
    };
    Check("reset");

    std::string Paste;
    for (int I = 0; I < 64; ++I)
      Paste += "(a" + std::to_string(I) + " * 2) + ";
    const char *Before = S.text().data();
    ASSERT_EQ(S.applyEdit({0, 0, Paste}).Error, EditScriptError::None);
    ASSERT_NE(S.text().data(), Before) << "the paste must reallocate";
    Check("paste at the front");

    int Moves = 0;
    for (int I = 0; I < 48; ++I) {
      Before = S.text().data();
      std::string Tail = " + b" + std::to_string(I) + " * (c - 1)";
      if (I % 8 == 7)
        Tail = " + (d"; // unbalanced: strict fails, recovery conjures ')'
      ASSERT_EQ(S.applyEdit({int64_t(S.text().size()), 0, Tail}).Error,
                EditScriptError::None);
      Moves += S.text().data() != Before;
      Check("append");
    }
    EXPECT_GE(Moves, 1) << "the appends must reallocate the text too";
  }
}

// The tree parse() returns owns a copy of its token text: it renders, and
// its leaves look up their tokens, the same after the input string is gone
// (a recovered `<missing X>` leaf included).
TEST(HeapTreeTest, RendersAfterItsInputIsDestroyed) {
  auto Bundle = bundleOrFail(ExprGrammar);
  const AnalyzedGrammar &AG = Bundle->analyzed();
  for (bool Compiled : {false, true}) {
    SCOPED_TRACE(Compiled ? "compiled" : "interpreter");
    std::unique_ptr<ParseTree> Tree;
    std::string Expected;
    {
      auto Input = std::make_unique<std::string>("(alpha + 12 * beta");
      DiagnosticEngine Diags;
      TokenStream Stream(Bundle->tokenize(*Input, Diags));
      ParserOptions PO;
      PO.BuildTree = true;
      PO.Recover = true;
      if (Compiled) {
        const compiled::CompiledResolution &CT = Bundle->compiledTables();
        compiled::CompiledParser P(AG, CT.View, Stream, nullptr, Diags, PO,
                                   CT.Native, CT.Rules);
        Tree = P.parse("s");
      } else {
        LLStarParser P(AG, Stream, nullptr, Diags, PO);
        Tree = P.parse("s");
      }
      ASSERT_TRUE(Tree);
      Expected = Tree->str(AG.grammar());
      Input->assign(Input->size(), '#'); // clobber, then free, the input
    }
    EXPECT_NE(Expected.find("(error <missing ')'>)"), std::string::npos)
        << Expected;
    EXPECT_NE(Expected.find("alpha"), std::string::npos) << Expected;
    EXPECT_EQ(Tree->str(AG.grammar()), Expected);
    const ArenaParseTree *First = Tree->root()->firstChild();
    while (!First->isToken())
      First = First->firstChild();
    EXPECT_EQ(Tree->token(*First).Text, "(");
  }
}

} // namespace

//===- tests/FixTests.cpp - Profile-guided lint fixes ----------------------===//
//
// The auto-fix engine end to end: a golden before/after per fix kind
// (deletions, synpred removal, literal inlining, profile-driven reorder),
// idempotence of a second apply, whole-fix rejection of overlapping edits,
// suppression directives blocking a fix, the unverified -> suggestion-only
// downgrade in SARIF, unified-diff rendering, profile loading / merging /
// identity-join / hotness ranking, and the documented fixed key order of
// ParserStats JSON that makes profiles diffable.
//
//===----------------------------------------------------------------------===//

#include "lint/Fix.h"
#include "lint/Lint.h"
#include "lint/Profile.h"
#include "lint/SarifWriter.h"
#include "runtime/ParserStats.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace llstar;
using namespace llstar::test;

namespace {

/// Analyzes + lints \p Text and computes fixes against it.
struct FixRun {
  std::unique_ptr<AnalyzedGrammar> AG;
  LintResult Lint;
  std::vector<Fix> Fixes;
};

FixRun runFixes(const std::string &Text, const LintProfile *Profile = nullptr,
                FixOptions Opts = FixOptions()) {
  FixRun Run;
  Run.AG = analyzeOrFail(Text);
  if (!Run.AG)
    return Run;
  Run.Lint = LintEngine().run(*Run.AG, Text);
  Run.Fixes = computeFixes(*Run.AG, Run.Lint, Text, Profile, Opts);
  return Run;
}

const Fix *fixById(const std::vector<Fix> &Fixes, const std::string &Id) {
  for (const Fix &F : Fixes)
    if (F.Id == Id)
      return &F;
  return nullptr;
}

std::vector<const Fix *> verifiedFixes(const std::vector<Fix> &Fixes) {
  std::vector<const Fix *> Out;
  for (const Fix &F : Fixes)
    if (F.Verified)
      Out.push_back(&F);
  return Out;
}

/// Loads a LintProfile from JSON text, failing the test on parse errors.
LintProfile loadProfile(const std::string &Json) {
  LintProfile P;
  std::string Err;
  EXPECT_TRUE(P.load(Json, &Err)) << Err;
  return P;
}

/// The shared fixture: one dead rule, one dead token, everything else
/// reachable. Used by the deletion goldens and the idempotence tests.
const char *DeadSymbolsGrammar = "grammar t;\n"
                                 "prog : stmt+ ;\n"
                                 "stmt : ID ';' | NUM ';' ;\n"
                                 "helper : ID NUM ;\n"
                                 "ID : [a-z]+ ;\n"
                                 "NUM : [0-9]+ ;\n"
                                 "UNUSED : '%' ;\n"
                                 "WS : [ \\t\\r\\n]+ -> skip ;\n";

//===----------------------------------------------------------------------===//
// Goldens: one byte-exact before/after per fix kind
//===----------------------------------------------------------------------===//

TEST(Fix, DeleteDeadRuleGolden) {
  FixRun Run = runFixes(DeadSymbolsGrammar);
  const Fix *F = fixById(Run.Fixes, "delete-dead-rule:helper");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Kind, "delete-dead-rule");
  EXPECT_TRUE(F->Verified) << F->VerifyNote;
  // Anchored to the dead-rule finding it repairs.
  ASSERT_GE(F->FindingIndex, 0);
  EXPECT_EQ(Run.Lint.Diagnostics[size_t(F->FindingIndex)].Id, "dead-rule");
  EXPECT_EQ(applyFixes(DeadSymbolsGrammar, {F}),
            "grammar t;\n"
            "prog : stmt+ ;\n"
            "stmt : ID ';' | NUM ';' ;\n"
            "ID : [a-z]+ ;\n"
            "NUM : [0-9]+ ;\n"
            "UNUSED : '%' ;\n"
            "WS : [ \\t\\r\\n]+ -> skip ;\n");
}

TEST(Fix, DeleteDeadTokenGolden) {
  FixRun Run = runFixes(DeadSymbolsGrammar);
  const Fix *F = fixById(Run.Fixes, "delete-dead-token:UNUSED");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Kind, "delete-dead-token");
  EXPECT_TRUE(F->Verified) << F->VerifyNote;
  EXPECT_EQ(applyFixes(DeadSymbolsGrammar, {F}),
            "grammar t;\n"
            "prog : stmt+ ;\n"
            "stmt : ID ';' | NUM ';' ;\n"
            "helper : ID NUM ;\n"
            "ID : [a-z]+ ;\n"
            "NUM : [0-9]+ ;\n"
            "WS : [ \\t\\r\\n]+ -> skip ;\n");
}

TEST(Fix, RemoveSynpredGolden) {
  const std::string Text = "grammar t;\n"
                           "s : ('x' 'y')=> 'x' 'y'\n"
                           "  | 'z'\n"
                           "  ;\n"
                           "WS : [ \\t\\r\\n]+ -> skip ;\n";
  FixRun Run = runFixes(Text);
  ASSERT_EQ(Run.Fixes.size(), 1u);
  const Fix &F = Run.Fixes[0];
  EXPECT_EQ(F.Kind, "remove-synpred");
  EXPECT_TRUE(F.Verified) << F.VerifyNote;
  ASSERT_GE(F.FindingIndex, 0);
  EXPECT_EQ(Run.Lint.Diagnostics[size_t(F.FindingIndex)].Id,
            "synpred-redundant");
  EXPECT_EQ(applyFixes(Text, {&F}), "grammar t;\n"
                                    "s : 'x' 'y'\n"
                                    "  | 'z'\n"
                                    "  ;\n"
                                    "WS : [ \\t\\r\\n]+ -> skip ;\n");
}

TEST(Fix, InlineShadowedLiteralGolden) {
  // PRINT's text is claimed by the earlier ID rule (maximal munch +
  // priority), so PRINT never lexes; inlining the literal moves the match
  // into the implicit-literal tier, which out-prioritizes named rules.
  // The language is unchanged — 'print' was already accepted via ID — so
  // the fix verifies.
  const std::string Text = "grammar t;\n"
                           "s : kw ID ;\n"
                           "kw : PRINT | ID ;\n"
                           "ID : [a-z]+ ;\n"
                           "PRINT : 'print' ;\n"
                           "WS : [ \\t\\r\\n]+ -> skip ;\n";
  FixRun Run = runFixes(Text);
  const Fix *F = fixById(Run.Fixes, "inline-shadowed-literal:PRINT");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->Verified) << F->VerifyNote;
  EXPECT_EQ(applyFixes(Text, {F}), "grammar t;\n"
                                   "s : kw ID ;\n"
                                   "kw : 'print' | ID ;\n"
                                   "ID : [a-z]+ ;\n"
                                   "WS : [ \\t\\r\\n]+ -> skip ;\n");
}

//===----------------------------------------------------------------------===//
// Profile-driven reorder
//===----------------------------------------------------------------------===//

/// Three disjoint single-token alternatives: reorderable by construction
/// (LL(1), no resolutions, no predicates).
const char *ReorderGrammar = "grammar t;\n"
                             "s : 'a' ID\n"
                             "  | 'b' ID\n"
                             "  | 'c' ID\n"
                             "  ;\n"
                             "ID : [a-z]+ ;\n"
                             "WS : [ \\t\\r\\n]+ -> skip ;\n";

/// A profile claiming alt 2 is hottest, then alt 3, then alt 1, keyed by
/// stable identity (rule s, decision 0 in rule).
const char *ReorderProfileJson =
    "{\"decisions\":[{\"decision\":0,\"rule\":\"s\",\"decisionInRule\":0,"
    "\"events\":61,\"totalK\":61,\"maxK\":1,\"backtrackEvents\":0,"
    "\"backtrackTotalK\":0,\"altEvents\":[1,50,10]}]}";

TEST(Fix, ReorderAltsProfileGolden) {
  LintProfile P = loadProfile(ReorderProfileJson);
  FixRun Run = runFixes(ReorderGrammar, &P);
  const Fix *F = fixById(Run.Fixes, "reorder-alts:s:0");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Kind, "reorder-alts");
  EXPECT_TRUE(F->Verified) << F->VerifyNote;
  // Hit counts surface in the description, hottest first.
  EXPECT_NE(F->Description.find("alt 2: 50"), std::string::npos)
      << F->Description;
  EXPECT_EQ(applyFixes(ReorderGrammar, {F}), "grammar t;\n"
                                             "s : 'b' ID\n"
                                             "  | 'c' ID\n"
                                             "  | 'a' ID\n"
                                             "  ;\n"
                                             "ID : [a-z]+ ;\n"
                                             "WS : [ \\t\\r\\n]+ -> skip ;\n");
}

TEST(Fix, ReorderRequiresProfile) {
  FixRun Run = runFixes(ReorderGrammar, /*Profile=*/nullptr);
  for (const Fix &F : Run.Fixes)
    EXPECT_NE(F.Kind, "reorder-alts") << F.Id;
}

TEST(Fix, ReorderSkipsProfileInObservedOrder) {
  // Counts already descending by position: the identity permutation is
  // never emitted as a fix.
  LintProfile P = loadProfile(
      "{\"decisions\":[{\"decision\":0,\"rule\":\"s\",\"decisionInRule\":0,"
      "\"events\":61,\"totalK\":61,\"maxK\":1,\"backtrackEvents\":0,"
      "\"backtrackTotalK\":0,\"altEvents\":[50,10,1]}]}");
  FixRun Run = runFixes(ReorderGrammar, &P);
  EXPECT_EQ(fixById(Run.Fixes, "reorder-alts:s:0"), nullptr);
}

TEST(Fix, ReorderSkipsAmbiguousDecision) {
  // Alt 2 is shadowed by alt 1 (ambiguity resolved by order): reordering
  // would change which alternative wins, so no fix is offered no matter
  // what the profile claims.
  const std::string Text = "grammar t;\n"
                           "s : w | 'a' ;\n"
                           "w : 'a' ;\n";
  LintProfile P = loadProfile(
      "{\"decisions\":[{\"decision\":0,\"rule\":\"s\",\"decisionInRule\":0,"
      "\"events\":10,\"totalK\":10,\"maxK\":1,\"backtrackEvents\":0,"
      "\"backtrackTotalK\":0,\"altEvents\":[1,9]}]}");
  FixRun Run = runFixes(Text, &P);
  for (const Fix &F : Run.Fixes)
    EXPECT_NE(F.Kind, "reorder-alts") << F.Id;
}

//===----------------------------------------------------------------------===//
// Idempotence
//===----------------------------------------------------------------------===//

TEST(Fix, SecondApplyIsNoOpForDeletions) {
  FixRun First = runFixes(DeadSymbolsGrammar);
  std::string Fixed = applyFixes(DeadSymbolsGrammar,
                                 verifiedFixes(First.Fixes));
  ASSERT_NE(Fixed, DeadSymbolsGrammar);

  // Re-analyzing the fixed text finds nothing left to fix: the second
  // apply returns the text unchanged.
  FixRun Second = runFixes(Fixed);
  EXPECT_EQ(Second.Fixes.size(), 0u);
  EXPECT_EQ(applyFixes(Fixed, verifiedFixes(Second.Fixes)), Fixed);
  // And the fixed grammar lints clean.
  EXPECT_EQ(Second.Lint.errorCount(), 0);
  EXPECT_EQ(Second.Lint.warningCount(), 0);
}

TEST(Fix, ReorderIdempotentWithRefreshedProfile) {
  // Reorders are profile-relative: after applying one, the profile must
  // be re-collected (alt attribution is positional). A refreshed profile
  // observing the new order proposes no further reorder.
  LintProfile Stale = loadProfile(ReorderProfileJson);
  FixRun First = runFixes(ReorderGrammar, &Stale);
  std::string Fixed =
      applyFixes(ReorderGrammar, {fixById(First.Fixes, "reorder-alts:s:0")});

  LintProfile Refreshed = loadProfile(
      "{\"decisions\":[{\"decision\":0,\"rule\":\"s\",\"decisionInRule\":0,"
      "\"events\":61,\"totalK\":61,\"maxK\":1,\"backtrackEvents\":0,"
      "\"backtrackTotalK\":0,\"altEvents\":[50,10,1]}]}");
  FixRun Second = runFixes(Fixed, &Refreshed);
  EXPECT_EQ(fixById(Second.Fixes, "reorder-alts:s:0"), nullptr);
  EXPECT_EQ(applyFixes(Fixed, verifiedFixes(Second.Fixes)), Fixed);
}

//===----------------------------------------------------------------------===//
// Overlap rejection, suppression, downgrade
//===----------------------------------------------------------------------===//

TEST(Fix, OverlappingFixRejectedWhole) {
  // Two hand-built fixes: B's first edit is disjoint from A, its second
  // overlaps A's edit. B must be skipped whole — a half-applied fix is
  // worse than none — and reported by id.
  std::string Source = "0123456789";
  Fix A;
  A.Id = "a";
  A.Edits.push_back({2, 5, "XX"});
  Fix B;
  B.Id = "b";
  B.Edits.push_back({8, 9, "Y"}); // disjoint, but rides with the overlap
  B.Edits.push_back({4, 6, "Z"}); // overlaps A's [2,5)
  std::vector<std::string> Rejected;
  EXPECT_EQ(applyFixes(Source, {&A, &B}, &Rejected), "01XX56789");
  ASSERT_EQ(Rejected.size(), 1u);
  EXPECT_EQ(Rejected[0], "b");

  // Order is first-come-first-served: reversed, B wins and A is rejected.
  Rejected.clear();
  EXPECT_EQ(applyFixes(Source, {&B, &A}, &Rejected), "0123Z67Y9");
  ASSERT_EQ(Rejected.size(), 1u);
  EXPECT_EQ(Rejected[0], "a");
}

TEST(Fix, SuppressionBlocksFix) {
  // Suppressed findings never reach the LintResult, so their fixes are
  // never computed: the directive is an opt-out from --apply too.
  std::string Text = DeadSymbolsGrammar;
  size_t At = Text.find("helper");
  ASSERT_NE(At, std::string::npos);
  Text.insert(At, "// llstar-lint-disable dead-rule\n");
  FixRun Run = runFixes(Text);
  EXPECT_EQ(fixById(Run.Fixes, "delete-dead-rule:helper"), nullptr);
  // The unrelated dead-token fix is still offered.
  EXPECT_NE(fixById(Run.Fixes, "delete-dead-token:UNUSED"), nullptr);
}

TEST(Fix, UnverifiedFixDowngradedInSarif) {
  // With verification off every fix is unverified; SARIF must carry no
  // `fixes` object (viewers apply those blindly) — only the
  // suggestion-only property bag entry.
  FixRun Run = runFixes(DeadSymbolsGrammar, nullptr,
                        FixOptions{/*Verify=*/false});
  ASSERT_FALSE(Run.Fixes.empty());
  for (const Fix &F : Run.Fixes) {
    EXPECT_FALSE(F.Verified);
    EXPECT_FALSE(F.VerifyNote.empty());
  }
  std::string S = renderSarif(Run.Lint, "t.g", Run.Fixes);
  EXPECT_EQ(S.find("\"fixes\""), std::string::npos);
  EXPECT_NE(S.find("\"suggestedFix\""), std::string::npos);
  EXPECT_NE(S.find("\"unverified\""), std::string::npos);
}

TEST(Fix, VerifiedFixInSarif) {
  // Deletion fixes: replacements with deletedRegions only (omitting
  // insertedContent is SARIF's spelling of "delete").
  FixRun Run = runFixes(DeadSymbolsGrammar);
  std::string S = renderSarif(Run.Lint, "t.g", Run.Fixes);
  for (const char *Needle :
       {"\"fixes\": [", "\"artifactChanges\": [",
        "\"artifactLocation\": {\"uri\": \"t.g\"}", "\"replacements\": [",
        "\"deletedRegion\": {\"charOffset\": ", "\"charLength\": "})
    EXPECT_NE(S.find(Needle), std::string::npos) << "missing " << Needle;
  EXPECT_EQ(S.find("\"insertedContent\""), std::string::npos);

  // An inlining fix replaces text, so its replacements carry
  // insertedContent (the quoted literal spelling).
  FixRun Inline = runFixes("grammar t;\n"
                           "s : kw ID ;\n"
                           "kw : PRINT | ID ;\n"
                           "ID : [a-z]+ ;\n"
                           "PRINT : 'print' ;\n"
                           "WS : [ \\t\\r\\n]+ -> skip ;\n");
  S = renderSarif(Inline.Lint, "r.g", Inline.Fixes);
  EXPECT_NE(S.find("\"insertedContent\": {\"text\": \"'print'\"}"),
            std::string::npos)
      << S;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

TEST(Fix, UnifiedDiff) {
  EXPECT_EQ(renderUnifiedDiff("same\n", "same\n", "x.g"), "");
  std::string D = renderUnifiedDiff("a\nb\nc\nd\n", "a\nB\nc\nd\n", "x.g");
  EXPECT_NE(D.find("--- a/x.g\n"), std::string::npos) << D;
  EXPECT_NE(D.find("+++ b/x.g\n"), std::string::npos) << D;
  EXPECT_NE(D.find("-b\n"), std::string::npos) << D;
  EXPECT_NE(D.find("+B\n"), std::string::npos) << D;
}

TEST(Fix, RenderFixesText) {
  FixRun Run = runFixes(DeadSymbolsGrammar);
  std::string T = renderFixesText(Run.Fixes);
  EXPECT_NE(T.find("delete-dead-rule:helper [verified]"), std::string::npos)
      << T;
  EXPECT_NE(T.find("delete-dead-token:UNUSED [verified]"), std::string::npos)
      << T;
}

//===----------------------------------------------------------------------===//
// Profiles: loading, merging, joining, ranking
//===----------------------------------------------------------------------===//

TEST(LintProfile, LoadsAllStatsShapes) {
  const std::string Decisions =
      "\"decisions\":[{\"decision\":0,\"rule\":\"s\",\"decisionInRule\":0,"
      "\"events\":5,\"totalK\":7,\"maxK\":3,\"backtrackEvents\":1,"
      "\"backtrackTotalK\":2,\"altEvents\":[4,1]}]";
  // Raw ParserStats JSON, the --stats-out wrapper, and ServiceMetrics
  // nesting all load identically. So do profiles from earlier builds,
  // whose stats object led with the analysis backend's name.
  for (const std::string &Doc :
       {"{" + Decisions + "}",
        "{\"llstarProfile\":1,\"grammar\":\"g\",\"stats\":{" + Decisions +
            "}}",
        "{\"threads\":4,\"parser\":{" + Decisions + "}}",
        "{\"backend\":\"llstar\"," + Decisions + "}",
        "{\"llstarProfile\":1,\"grammar\":\"g\",\"stats\":{"
        "\"backend\":\"llfinite\"," +
            Decisions + "}}"}) {
    LintProfile P = loadProfile(Doc);
    ASSERT_EQ(P.size(), 1u) << Doc;
    EXPECT_EQ(P.totalEvents(), 5);
    EXPECT_EQ(P.entries()[0].Rule, "s");
    EXPECT_EQ(P.entries()[0].MaxK, 3);
  }
  // Redirected `parse --stats-json` output carries a verdict line first.
  LintProfile P = loadProfile("parse succeeded in 0.1 ms\n{" + Decisions + "}");
  EXPECT_EQ(P.size(), 1u);
}

TEST(LintProfile, LoadErrors) {
  LintProfile P;
  std::string Err;
  EXPECT_FALSE(P.load("no json here", &Err));
  EXPECT_FALSE(P.load("{\"events\": 3}", &Err));
  EXPECT_NE(Err.find("decisions"), std::string::npos) << Err;
}

TEST(LintProfile, MergeSumsCountersAcrossLoads) {
  // Two workers' stats for the same decision: counters sum, maxK takes
  // the max, altEvents sum element-wise (with resize).
  LintProfile P = loadProfile(
      "{\"decisions\":[{\"decision\":0,\"rule\":\"s\",\"decisionInRule\":0,"
      "\"events\":5,\"totalK\":7,\"maxK\":3,\"backtrackEvents\":1,"
      "\"backtrackTotalK\":2,\"altEvents\":[4,1]}]}");
  std::string Err;
  ASSERT_TRUE(P.load(
      "{\"decisions\":[{\"decision\":9,\"rule\":\"s\",\"decisionInRule\":0,"
      "\"events\":2,\"totalK\":2,\"maxK\":1,\"backtrackEvents\":0,"
      "\"backtrackTotalK\":0,\"altEvents\":[1,0,1]}]}",
      &Err))
      << Err;
  ASSERT_EQ(P.size(), 1u); // identity join: same (rule, ordinal) merged
  const ProfileEntry &E = P.entries()[0];
  EXPECT_EQ(E.Events, 7);
  EXPECT_EQ(E.TotalK, 9);
  EXPECT_EQ(E.MaxK, 3);
  ASSERT_EQ(E.AltEvents.size(), 3u);
  EXPECT_EQ(E.AltEvents[0], 5);
  EXPECT_EQ(E.AltEvents[2], 1);
}

TEST(LintProfile, JoinsByIdentityNotIndex) {
  auto AG = analyzeOrFail(ReorderGrammar);
  ASSERT_TRUE(AG);
  std::vector<DecisionKey> Keys = AG->decisionKeys();
  // Find the decision owned by rule s.
  size_t SDecision = Keys.size();
  for (size_t D = 0; D < Keys.size(); ++D)
    if (Keys[D].Rule == "s" && Keys[D].DecisionInRule == 0)
      SDecision = D;
  ASSERT_LT(SDecision, Keys.size());

  // The profile's raw index is bogus (99): identity wins.
  LintProfile P = loadProfile(
      "{\"decisions\":[{\"decision\":99,\"rule\":\"s\",\"decisionInRule\":0,"
      "\"events\":5,\"totalK\":7,\"maxK\":3,\"backtrackEvents\":0,"
      "\"backtrackTotalK\":0,\"altEvents\":[]}]}");
  std::vector<const ProfileEntry *> Joined = P.joinTo(*AG);
  ASSERT_EQ(Joined.size(), Keys.size());
  ASSERT_NE(Joined[SDecision], nullptr);
  EXPECT_EQ(Joined[SDecision]->Events, 5);

  // An index-only profile (no rule names) falls back to the raw index.
  LintProfile ByIndex = loadProfile(
      "{\"decisions\":[{\"decision\":" + std::to_string(SDecision) +
      ",\"events\":4,\"totalK\":4,\"maxK\":1,\"backtrackEvents\":0,"
      "\"backtrackTotalK\":0,\"altEvents\":[]}]}");
  Joined = ByIndex.joinTo(*AG);
  ASSERT_NE(Joined[SDecision], nullptr);
  EXPECT_EQ(Joined[SDecision]->Events, 4);
}

TEST(LintProfile, ApplyProfileAnnotatesAndReRanks) {
  auto AG = analyzeOrFail(ReorderGrammar);
  ASSERT_TRUE(AG);
  std::vector<DecisionKey> Keys = AG->decisionKeys();
  int32_t SDecision = -1;
  for (size_t D = 0; D < Keys.size(); ++D)
    if (Keys[D].Rule == "s")
      SDecision = int32_t(D);
  ASSERT_GE(SDecision, 0);

  // Two same-severity findings; the profiled one is listed second but
  // must rank first once observed cost is attributed.
  LintDiagnostic Cold;
  Cold.Id = "cold";
  Cold.Loc = SourceLocation(1, 0);
  LintDiagnostic Hot;
  Hot.Id = "hot";
  Hot.Loc = SourceLocation(2, 0);
  Hot.Decision = SDecision;

  const std::string Decisions =
      "\"decisions\":[{\"decision\":" + std::to_string(SDecision) +
      ",\"rule\":\"s\",\"decisionInRule\":0,\"events\":100,\"totalK\":250,"
      "\"maxK\":4,\"backtrackEvents\":3,\"backtrackTotalK\":30,"
      "\"altEvents\":[]}]";
  // Profiles from earlier builds name the analysis backend first; the key
  // is ignored, so they rank exactly like the current format.
  for (const std::string &Doc :
       {"{" + Decisions + "}", "{\"backend\":\"llstar\"," + Decisions + "}",
        "{\"backend\":\"llfinite\"," + Decisions + "}"}) {
    LintResult R;
    R.Diagnostics = {Cold, Hot};
    applyProfile(R, loadProfile(Doc), *AG);
    ASSERT_EQ(R.Diagnostics.size(), 2u) << Doc;
    EXPECT_EQ(R.Diagnostics[0].Id, "hot") << Doc;
    EXPECT_TRUE(R.Diagnostics[0].hasHotness());
    EXPECT_EQ(R.Diagnostics[0].HotEvents, 100);
    EXPECT_EQ(R.Diagnostics[0].HotMaxK, 4);
    EXPECT_EQ(R.Diagnostics[0].HotBacktracks, 3);
    EXPECT_EQ(R.Diagnostics[0].HotScore, 250 + 10 * 30);
    EXPECT_FALSE(R.Diagnostics[1].hasHotness());
  }
}

//===----------------------------------------------------------------------===//
// ParserStats JSON: fixed key order, stable decision identity
//===----------------------------------------------------------------------===//

TEST(ParserStatsJson, FixedKeyOrderAndDecisionKeys) {
  auto AG = analyzeOrFail(ReorderGrammar);
  ASSERT_TRUE(AG);
  ParserStats S;
  S.ensure(AG->numDecisions());
  S.Decisions[0].record(/*K=*/2, /*Backtracked=*/false, /*Alt=*/2);
  S.Decisions[0].record(/*K=*/1, /*Backtracked=*/true, /*Alt=*/1);
  std::vector<DecisionKey> Keys = AG->decisionKeys();
  std::string J = S.json(/*IncludeDecisions=*/true, &Keys);

  // The documented top-level key order is fixed so profiles diff cleanly.
  size_t Last = 0;
  for (const char *Key :
       {"\"decisionsCovered\"", "\"avgLookahead\"", "\"maxLookahead\"",
        "\"backtrackEvents\"", "\"synPredEvals\"", "\"tokensConsumed\"",
        "\"nodesReused\"", "\"decisions\""}) {
    size_t At = J.find(Key);
    ASSERT_NE(At, std::string::npos) << Key << " missing in " << J;
    EXPECT_GT(At, Last) << Key << " out of order in " << J;
    Last = At;
  }
  // Per-decision entries carry the stable identity quadruple in order.
  Last = J.find("\"decisions\"");
  for (const char *Key : {"\"decision\"", "\"rule\"", "\"decisionInRule\"",
                          "\"line\"", "\"column\"", "\"events\"", "\"totalK\"",
                          "\"maxK\"", "\"altEvents\""}) {
    size_t At = J.find(Key, Last);
    ASSERT_NE(At, std::string::npos) << Key << " missing in " << J;
    Last = At;
  }
  // altEvents is 1-based alt counts stored 0-based: alt 1 then alt 2.
  EXPECT_NE(J.find("\"altEvents\":[1,1]"), std::string::npos) << J;
  // A profile round-trips: the emitted JSON is directly loadable.
  LintProfile P = loadProfile(J);
  EXPECT_EQ(P.totalEvents(), 2);
  EXPECT_EQ(P.entries()[0].Rule, Keys[0].Rule);
}

} // namespace

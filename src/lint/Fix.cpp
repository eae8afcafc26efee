//===- lint/Fix.cpp - Fix generation, verification, application -----------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//

#include "lint/Fix.h"

#include "fuzz/SentenceGen.h"
#include "fuzz/SentenceSampler.h"
#include "grammar/SourceRewriter.h"
#include "lexer/TokenStream.h"
#include "peg/PackratParser.h"
#include "runtime/LLStarParser.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>

using namespace llstar;

//===----------------------------------------------------------------------===//
// Application
//===----------------------------------------------------------------------===//

std::string llstar::applyFixes(std::string_view Source,
                               const std::vector<const Fix *> &Chosen,
                               std::vector<std::string> *RejectedIds) {
  // Accept fixes first-come-first-served; a fix touching bytes an earlier
  // fix already owns is rejected whole (partial application would not be
  // the repair that was verified).
  std::vector<const FixEdit *> Accepted;
  auto Overlaps = [&](const FixEdit &E) {
    for (const FixEdit *H : Accepted)
      if (E.Begin < H->End && H->Begin < E.End)
        return true;
    return false;
  };
  for (const Fix *F : Chosen) {
    bool Clash = false;
    for (const FixEdit &E : F->Edits)
      if (Overlaps(E)) {
        Clash = true;
        break;
      }
    if (Clash) {
      if (RejectedIds)
        RejectedIds->push_back(F->Id);
      continue;
    }
    for (const FixEdit &E : F->Edits)
      Accepted.push_back(&E);
  }
  std::sort(Accepted.begin(), Accepted.end(),
            [](const FixEdit *A, const FixEdit *B) {
              return A->Begin > B->Begin; // apply back to front
            });
  std::string Out(Source);
  for (const FixEdit *E : Accepted)
    Out.replace(E->Begin, E->End - E->Begin, E->Replacement);
  return Out;
}

std::string llstar::renderFixesText(const std::vector<Fix> &Fixes) {
  std::string Out;
  if (Fixes.empty())
    return Out;
  Out += "fixes:\n";
  for (const Fix &F : Fixes) {
    Out += "  " + F.Id;
    if (F.Verified)
      Out += " [verified]";
    else
      Out += " [unverified: " + (F.VerifyNote.empty()
                                     ? std::string("not checked")
                                     : F.VerifyNote) +
             "]";
    Out += " " + F.Description + '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Unified diff
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::string_view> splitLines(std::string_view Text) {
  std::vector<std::string_view> Lines;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string_view::npos) {
      Lines.push_back(Text.substr(Pos));
      break;
    }
    Lines.push_back(Text.substr(Pos, Eol - Pos));
    Pos = Eol + 1;
  }
  return Lines;
}

} // namespace

std::string llstar::renderUnifiedDiff(std::string_view Before,
                                      std::string_view After,
                                      const std::string &Path) {
  if (Before == After)
    return std::string();
  std::vector<std::string_view> A = splitLines(Before);
  std::vector<std::string_view> B = splitLines(After);
  // Trim the common prefix and suffix; the middle becomes one hunk. Fixes
  // are localized, so this stays readable without a full LCS.
  size_t Pre = 0;
  while (Pre < A.size() && Pre < B.size() && A[Pre] == B[Pre])
    ++Pre;
  size_t Suf = 0;
  while (Suf < A.size() - Pre && Suf < B.size() - Pre &&
         A[A.size() - 1 - Suf] == B[B.size() - 1 - Suf])
    ++Suf;
  size_t CtxPre = Pre >= 2 ? 2 : Pre; // two lines of leading context
  size_t CtxSuf = Suf >= 2 ? 2 : Suf;
  size_t AFrom = Pre - CtxPre, ATo = A.size() - Suf + CtxSuf;
  size_t BFrom = Pre - CtxPre, BTo = B.size() - Suf + CtxSuf;

  std::ostringstream Out;
  Out << "--- a/" << Path << "\n+++ b/" << Path << "\n";
  Out << "@@ -" << (AFrom + 1) << ',' << (ATo - AFrom) << " +" << (BFrom + 1)
      << ',' << (BTo - BFrom) << " @@\n";
  for (size_t I = AFrom; I < Pre; ++I)
    Out << ' ' << A[I] << '\n';
  for (size_t I = Pre; I < A.size() - Suf; ++I)
    Out << '-' << A[I] << '\n';
  for (size_t I = Pre; I < B.size() - Suf; ++I)
    Out << '+' << B[I] << '\n';
  for (size_t I = A.size() - Suf; I < ATo; ++I)
    Out << ' ' << A[I] << '\n';
  return Out.str();
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

namespace {

/// Verdict + rendered tree of parsing one input with one engine.
struct ParseOutcome {
  bool LexOk = false;
  bool Ok = false;
  std::string Tree;
};

ParseOutcome runLL(const AnalyzedGrammar &AG, const std::string &Input) {
  ParseOutcome O;
  DiagnosticEngine LexDiags;
  std::vector<Token> Toks = AG.lexer().tokenize(Input, LexDiags);
  if (LexDiags.hasErrors())
    return O;
  O.LexOk = true;
  TokenStream Stream(std::move(Toks));
  DiagnosticEngine Diags;
  LLStarParser P(AG, Stream, nullptr, Diags, ParserOptions());
  std::unique_ptr<ParseTree> Tree = P.parse("");
  O.Ok = P.ok() && !Diags.hasErrors();
  if (O.Ok && Tree)
    O.Tree = Tree->str(AG.grammar());
  return O;
}

ParseOutcome runPeg(const AnalyzedGrammar &AG, const std::string &Input) {
  ParseOutcome O;
  DiagnosticEngine LexDiags;
  std::vector<Token> Toks = AG.lexer().tokenize(Input, LexDiags);
  if (LexDiags.hasErrors())
    return O;
  O.LexOk = true;
  TokenStream Stream(std::move(Toks));
  DiagnosticEngine Diags;
  PackratParser::Options Opts;
  Opts.BuildTree = true;
  PackratParser P(AG.grammar(), Stream, nullptr, Diags, Opts);
  std::unique_ptr<ParseTree> Tree = P.parse("");
  O.Ok = P.ok() && !Diags.hasErrors();
  if (O.Ok && Tree)
    O.Tree = Tree->str(AG.grammar());
  return O;
}

bool hasPrecedenceRules(const Grammar &G) {
  for (const Rule &R : G.rules())
    if (R.IsPrecedenceRule)
      return true;
  return false;
}

/// The shared verification corpus: SentenceGen seeds plus a deterministic
/// sampler/mutation burst, rendered and deduplicated.
std::vector<std::string> buildCorpus(const AnalyzedGrammar &AG,
                                     const FixOptions &Opts) {
  std::set<std::string> Seen;
  std::vector<std::string> Corpus;
  auto Add = [&](const std::vector<std::string> &Tokens) {
    std::string Text = fuzz::SentenceSampler::render(Tokens);
    if (Seen.insert(Text).second)
      Corpus.push_back(std::move(Text));
  };
  fuzz::SentenceGen Gen(AG);
  for (const std::vector<std::string> &Seed : Gen.seeds(Opts.MaxSeeds))
    Add(Seed);
  fuzz::SentenceSampler Sampler(AG.grammar(), Opts.FuzzSeed);
  for (int I = 0; I < Opts.FuzzIters; ++I) {
    std::vector<std::string> S = Sampler.sample();
    Add(S);
    Add(Sampler.mutate(S));
  }
  return Corpus;
}

/// Runs the full verification pipeline for one fix. Returns "" on
/// success, else the reason verification failed.
std::string verifyFix(const AnalyzedGrammar &AG, std::string_view Source,
                      const Fix &F, const std::vector<std::string> &Corpus,
                      const std::vector<std::string> &ExtraInputs,
                      int32_t OrigWarnings) {
  std::string Fixed = applyFixes(Source, {&F});

  DiagnosticEngine Diags;
  std::unique_ptr<AnalyzedGrammar> FixedAG = analyzeGrammarText(Fixed, Diags);
  if (!FixedAG || Diags.hasErrors())
    return "rewritten grammar failed analysis: " +
           (Diags.empty() ? std::string("no grammar") : Diags.str());

  // The repair must not trade one finding for another: no errors, and no
  // more warnings than the original grammar had.
  LintResult FixedLint = LintEngine().run(*FixedAG, Fixed);
  if (FixedLint.errorCount() > 0)
    return "rewritten grammar has lint errors";
  if (FixedLint.warningCount() > OrigWarnings)
    return "rewritten grammar has new lint warnings";

  bool CompareTrees =
      !hasPrecedenceRules(AG.grammar()) &&
      !hasPrecedenceRules(FixedAG->grammar());
  auto Check = [&](const std::string &Input) -> std::string {
    ParseOutcome Orig = runLL(AG, Input);
    ParseOutcome New = runLL(*FixedAG, Input);
    if (Orig.LexOk != New.LexOk || Orig.Ok != New.Ok)
      return "verdict changed on \"" + Input + "\"";
    if (Orig.Ok && New.Ok && Orig.Tree != New.Tree)
      return "parse tree changed on \"" + Input + "\"";
    // Differential oracle on the rewritten grammar: its LL(*) and packrat
    // engines must agree, so the repair did not introduce an
    // analysis/runtime divergence.
    ParseOutcome Peg = runPeg(*FixedAG, Input);
    if (New.LexOk != Peg.LexOk || New.Ok != Peg.Ok)
      return "LL(*)/packrat verdict divergence on \"" + Input + "\"";
    if (CompareTrees && New.Ok && Peg.Ok && New.Tree != Peg.Tree)
      return "LL(*)/packrat tree divergence on \"" + Input + "\"";
    return std::string();
  };
  for (const std::string &Input : Corpus) {
    std::string Err = Check(Input);
    if (!Err.empty())
      return Err;
  }
  for (const std::string &Input : ExtraInputs) {
    std::string Err = Check(Input);
    if (!Err.empty())
      return Err;
  }
  return std::string();
}

//===----------------------------------------------------------------------===//
// Candidate generation
//===----------------------------------------------------------------------===//

/// The exact string a pure-literal regex matches, or nullopt (mirrors the
/// dead-symbols pass; kept local to avoid a public regex dependency).
std::optional<std::string> literalTextOf(const regex::RegexNode &N) {
  switch (N.kind()) {
  case regex::RegexKind::Epsilon:
    return std::string();
  case regex::RegexKind::CharSet:
    if (N.set().size() != 1)
      return std::nullopt;
    return std::string(1, char(N.set().min()));
  case regex::RegexKind::Concat: {
    std::string Out;
    for (const auto &C : N.children()) {
      auto Part = literalTextOf(*C);
      if (!Part)
        return std::nullopt;
      Out += *Part;
    }
    return Out;
  }
  default:
    return std::nullopt;
  }
}

/// Quotes \p Text as a grammar string literal.
std::string quoteLiteral(const std::string &Text) {
  std::string Out = "'";
  for (char C : Text) {
    switch (C) {
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\'':
      Out += "\\'";
      break;
    case '\\':
      Out += "\\\\";
      break;
    default:
      Out += C;
    }
  }
  Out += '\'';
  return Out;
}

void sortEdits(Fix &F) {
  std::sort(F.Edits.begin(), F.Edits.end(),
            [](const FixEdit &A, const FixEdit &B) { return A.Begin < B.Begin; });
}

/// dead-rule -> delete the rule's source lines.
bool makeDeleteRule(const SourceRewriter &SR, const LintDiagnostic &D,
                    Fix &F) {
  SourceSpan S = SR.ruleSpan(D.RuleName);
  if (!S.valid())
    return false;
  F.Kind = "delete-dead-rule";
  F.Id = F.Kind + ":" + D.RuleName;
  F.Description = "delete unreachable rule '" + D.RuleName + "'";
  F.Edits.push_back({S.Begin, S.End, ""});
  return true;
}

/// dead-token -> delete the lexer rule's source lines. Implicit literal
/// tokens have no standalone rule and produce no fix.
bool makeDeleteToken(const SourceRewriter &SR, const LintDiagnostic &D,
                     Fix &F) {
  SourceSpan S = SR.ruleSpan(D.RuleName);
  if (!S.valid())
    return false;
  F.Kind = "delete-dead-token";
  F.Id = F.Kind + ":" + D.RuleName;
  F.Description = "delete lexer rule " + D.RuleName +
                  "; its token is never referenced by a parser rule";
  F.Edits.push_back({S.Begin, S.End, ""});
  return true;
}

/// synpred-redundant -> delete the `( ... )=>` element. The finding's
/// location is the predicate's '(' (the hoisted fragment rule's Loc).
bool makeRemoveSynpred(const SourceRewriter &SR, const LintDiagnostic &D,
                       Fix &F) {
  SourceSpan S = SR.synPredSpan(D.Loc);
  if (!S.valid())
    return false;
  F.Kind = "remove-synpred";
  F.Id = F.Kind + ":" + std::to_string(D.Loc.Line) + ":" +
         std::to_string(D.Loc.Column);
  F.Description =
      "remove redundant syntactic predicate; the decision is deterministic";
  F.Edits.push_back({S.Begin, S.End, ""});
  return true;
}

/// shadowed-token -> replace parser references with the literal spelling
/// (implicit literals out-prioritize named lexer rules, so the references
/// become matchable again) and delete the shadowed lexer rule.
bool makeInlineShadowedLiteral(const AnalyzedGrammar &AG,
                               const SourceRewriter &SR,
                               const LintDiagnostic &D, Fix &F) {
  const Grammar &G = AG.grammar();
  const LexerRule *LR = nullptr;
  for (const LexerRule &Cand : G.lexerSpec().Rules)
    if (G.vocabulary().name(Cand.Type) == D.RuleName) {
      LR = &Cand;
      break;
    }
  if (!LR || !LR->Pattern)
    return false;
  std::optional<std::string> Text = literalTextOf(*LR->Pattern);
  if (!Text || Text->empty())
    return false;
  SourceSpan RuleS = SR.ruleSpan(D.RuleName);
  if (!RuleS.valid())
    return false;
  std::vector<SourceSpan> Refs = SR.tokenRefSpans(D.RuleName);
  // References inside the deleted rule's own span do not count.
  Refs.erase(std::remove_if(Refs.begin(), Refs.end(),
                            [&](const SourceSpan &S) {
                              return S.Begin >= RuleS.Begin &&
                                     S.End <= RuleS.End;
                            }),
             Refs.end());
  if (Refs.empty())
    return false; // nothing references it; the dead-token fix handles that
  F.Kind = "inline-shadowed-literal";
  F.Id = F.Kind + ":" + D.RuleName;
  F.Description = "inline shadowed token " + D.RuleName + " as " +
                  quoteLiteral(*Text) + " and delete the unmatchable rule";
  for (const SourceSpan &S : Refs)
    F.Edits.push_back({S.Begin, S.End, quoteLiteral(*Text)});
  F.Edits.push_back({RuleS.Begin, RuleS.End, ""});
  return true;
}

/// Profile-driven: reorder a rule's top-level alternatives by descending
/// observed hit count, where the analysis proves order-independence (no
/// resolution events, no predicate edges, no backtracking).
void collectReorderFixes(const AnalyzedGrammar &AG, const LintResult &R,
                         const LintProfile &Profile, const SourceRewriter &SR,
                         std::string_view Source, std::vector<Fix> &Out) {
  const Grammar &G = AG.grammar();
  const Atn &M = AG.atn();
  std::vector<const ProfileEntry *> Joined = Profile.joinTo(AG);
  std::vector<DecisionKey> Keys = AG.decisionKeys();

  for (size_t D = 0; D < Joined.size(); ++D) {
    const ProfileEntry *E = Joined[D];
    if (!E || E->AltEvents.empty())
      continue;
    const AtnState &St = M.state(M.decisionState(int32_t(D)));
    // Only whole-rule alternations: subrule/loop decisions renumber exits
    // and bodies, where source order is load-bearing.
    if (St.Kind != AtnStateKind::RuleStart || St.RuleIndex < 0)
      continue;
    const Rule &Ru = G.rule(St.RuleIndex);
    if (Ru.IsPrecedenceRule || Ru.IsSynPredFragment)
      continue;
    // Order-independence: the subset construction resolved no conflicts
    // (alternatives have disjoint lookahead languages) and prediction
    // never consults predicates or speculates.
    const DecisionReport &Rep = AG.decisionReport(int32_t(D));
    if (!Rep.Resolutions.empty() || Rep.UsedFallback)
      continue;
    const LookaheadDfa &Dfa = AG.dfa(int32_t(D));
    if (Dfa.hasSynPredEdges() || Dfa.hasSemPredEdges() ||
        Dfa.decisionClass() == DecisionClass::Backtrack)
      continue;
    std::vector<SourceSpan> Alts = SR.altSpans(Ru.Name);
    if (Alts.size() != Ru.Alts.size())
      continue;
    bool Rewritable = true;
    for (const SourceSpan &S : Alts)
      Rewritable = Rewritable && S.valid();
    if (!Rewritable)
      continue;

    std::vector<int64_t> Counts(Alts.size(), 0);
    for (size_t A = 0; A < E->AltEvents.size() && A < Counts.size(); ++A)
      Counts[A] = E->AltEvents[A];
    std::vector<size_t> Perm(Alts.size());
    std::iota(Perm.begin(), Perm.end(), 0);
    std::stable_sort(Perm.begin(), Perm.end(), [&](size_t A, size_t B) {
      return Counts[A] > Counts[B];
    });
    bool Identity = true;
    for (size_t I = 0; I < Perm.size(); ++I)
      Identity = Identity && Perm[I] == I;
    if (Identity)
      continue;

    Fix F;
    F.Kind = "reorder-alts";
    F.Id = F.Kind + ":" + Ru.Name + ":" +
           std::to_string(Keys[D].DecisionInRule);
    std::ostringstream Desc;
    Desc << "reorder alternatives of '" << Ru.Name
         << "' by observed hit frequency (";
    for (size_t I = 0; I < Perm.size(); ++I)
      Desc << (I ? ", " : "") << "alt " << (Perm[I] + 1) << ": "
           << Counts[Perm[I]];
    Desc << ")";
    F.Description = Desc.str();
    for (size_t Slot = 0; Slot < Perm.size(); ++Slot) {
      if (Perm[Slot] == Slot)
        continue; // byte-identical; no edit needed
      const SourceSpan &Dst = Alts[Slot];
      const SourceSpan &Src = Alts[Perm[Slot]];
      F.Edits.push_back(
          {Dst.Begin, Dst.End,
           std::string(Source.substr(Src.Begin, Src.length()))});
    }
    // Anchor to a finding at this decision when one exists (budget
    // warnings first; profile notes otherwise) so SARIF can attach the
    // fix to a result.
    for (const char *Want : {"lookahead-budget", "lookahead-profile",
                             "ambiguity"}) {
      for (size_t I = 0; I < R.Diagnostics.size() && F.FindingIndex < 0; ++I)
        if (R.Diagnostics[I].Decision == int32_t(D) &&
            R.Diagnostics[I].Id == Want)
          F.FindingIndex = int32_t(I);
      if (F.FindingIndex >= 0)
        break;
    }
    sortEdits(F);
    Out.push_back(std::move(F));
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// computeFixes
//===----------------------------------------------------------------------===//

std::vector<Fix> llstar::computeFixes(const AnalyzedGrammar &AG,
                                      const LintResult &R,
                                      std::string_view Source,
                                      const LintProfile *Profile,
                                      const FixOptions &Opts) {
  std::vector<Fix> Out;
  SourceRewriter SR(Source);
  if (!SR.ok())
    return Out;

  for (size_t I = 0; I < R.Diagnostics.size(); ++I) {
    const LintDiagnostic &D = R.Diagnostics[I];
    Fix F;
    bool Made = false;
    if (D.Id == "dead-rule")
      Made = makeDeleteRule(SR, D, F);
    else if (D.Id == "dead-token")
      Made = makeDeleteToken(SR, D, F);
    else if (D.Id == "synpred-redundant")
      Made = makeRemoveSynpred(SR, D, F);
    else if (D.Id == "shadowed-token")
      Made = makeInlineShadowedLiteral(AG, SR, D, F);
    if (!Made)
      continue;
    F.FindingIndex = int32_t(I);
    sortEdits(F);
    Out.push_back(std::move(F));
  }

  if (Profile && !Profile->empty())
    collectReorderFixes(AG, R, *Profile, SR, Source, Out);

  // Drop duplicate ids (two findings can target the same symbol) keeping
  // the first.
  std::set<std::string> SeenIds;
  Out.erase(std::remove_if(Out.begin(), Out.end(),
                           [&](const Fix &F) {
                             return !SeenIds.insert(F.Id).second;
                           }),
            Out.end());

  if (!Opts.Verify) {
    for (Fix &F : Out)
      F.VerifyNote = "verification skipped";
    return Out;
  }

  std::vector<std::string> Corpus = buildCorpus(AG, Opts);
  LintResult OrigLint = LintEngine().run(AG, Source);
  fuzz::SentenceGen Gen(AG);
  for (Fix &F : Out) {
    // Reorder fixes add per-alternative steering sentences for their
    // decision, so each alternative's behavior is witnessed even when the
    // global seed cap trimmed them.
    std::vector<std::string> Extra;
    if (F.Kind == "reorder-alts") {
      // Steer every decision alternative (bounded by the walker's own
      // budget) so each reordered alternative's behavior is witnessed even
      // when the global seed cap trimmed it.
      for (size_t D = 0; D < AG.numDecisions(); ++D)
        for (int32_t Alt = 1; Alt <= 8; ++Alt) {
          std::vector<std::string> Toks;
          if (Gen.sentenceFor(int32_t(D), Alt, Toks))
            Extra.push_back(fuzz::SentenceSampler::render(Toks));
        }
    }
    std::string Err =
        verifyFix(AG, Source, F, Corpus, Extra, OrigLint.warningCount());
    F.Verified = Err.empty();
    F.VerifyNote = Err;
  }
  return Out;
}

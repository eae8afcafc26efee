//===- bench/bench_memoization.cpp - Section 6.2 memoization ablation -----===//
//
// Reproduces the paper's Section 6.2 memoization observations:
//
//  1. "Without memoization, backtracking parsers are exponentially complex
//     in the worst case. The RatsC grammar appears not to terminate if we
//     turn off ANTLR memoization support." — we run a nested-backtracking
//     grammar over inputs of growing depth with memoization on and off
//     (the off runs under an invocation budget) and report the blow-up.
//
//  2. "The less we backtrack, the smaller the cache since ANTLR only
//     memoizes while speculating." — we report memo-cache traffic for the
//     LL(*) parser vs a pure packrat parser on the same input.
//
//===----------------------------------------------------------------------===//

#include "BenchGrammars.h"
#include "BenchHarness.h"
#include "peg/PackratParser.h"

#include <chrono>
#include <cstdio>
#include <string>

using namespace llstar;
using namespace llstar::bench;

namespace {

/// The textbook exponential PEG: `e : t '+' e | t` retries the whole of t
/// after failing to find '+', so every nesting level doubles the work
/// without memoization (cf. RatsC "appears not to terminate", paper 6.2).
const char *NestedGrammarText = R"(
grammar Nested;
options { backtrack=true; }
s : e EOF ;
e : t '+' e | t ;
t : '(' e ')' | ID ;
ID : [a-z]+ ;
WS : [ \t\r\n]+ -> skip ;
)";

std::string nestedInput(int Depth) {
  std::string S;
  for (int I = 0; I < Depth; ++I)
    S += "(";
  S += "x";
  for (int I = 0; I < Depth; ++I)
    S += ")";
  return S; // no '+' anywhere: alternative one always fails at the top
}

} // namespace

int main() {
  std::printf("=== Memoization ablation (paper Section 6.2) ===\n\n");
  std::printf("Part 1: packrat parser on nested input, memoize on vs off\n");
  std::printf("%-6s %14s %14s %16s %16s\n", "depth", "invoc(memo)",
              "invoc(none)", "time(memo)", "time(none)");

  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(NestedGrammarText, Diags);
  if (!AG) {
    std::fprintf(stderr, "%s\n", Diags.str().c_str());
    return 1;
  }
  const Lexer &L = AG->lexer();

  for (int Depth : {4, 8, 12, 16, 20}) {
    std::string Input = nestedInput(Depth);
    DiagnosticEngine D1;
    TokenStream S1(L.tokenize(Input, D1));

    auto RunPackrat = [&](bool Memoize, int64_t &Invocations,
                          double &Seconds) {
      S1.seek(0);
      PackratParser::Options Opts;
      Opts.Memoize = Memoize;
      Opts.MaxRuleInvocations = 20 * 1000 * 1000; // budget for the off runs
      DiagnosticEngine PD;
      PackratParser P(AG->grammar(), S1, nullptr, PD, Opts);
      auto Start = std::chrono::steady_clock::now();
      P.parse("s");
      Seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
      Invocations = P.stats().RuleInvocations;
      return P.ok();
    };

    int64_t MemoInvoc = 0, RawInvoc = 0;
    double MemoTime = 0, RawTime = 0;
    bool MemoOk = RunPackrat(true, MemoInvoc, MemoTime);
    bool RawOk = RunPackrat(false, RawInvoc, RawTime);
    std::printf("%-6d %14lld %14lld%s %13.3fms %13.3fms\n", Depth,
                (long long)MemoInvoc, (long long)RawInvoc,
                RawOk ? " " : "*", MemoTime * 1000, RawTime * 1000);
    (void)MemoOk;
  }
  std::printf("(* = invocation budget exhausted: the non-memoized parser "
              "is effectively non-terminating, as the paper observed for "
              "RatsC)\n\n");

  std::printf("Part 2: LL(*) memoizes only while speculating\n");
  std::printf("%-10s %12s %12s %12s %14s\n", "parser", "synpreds",
              "memo hits", "memo misses", "alt attempts");

  PreparedGrammar P = PreparedGrammar::prepare(benchGrammar("RatsC"));
  std::string Input = generateC(150, 7);
  {
    TokenStream Stream = P.tokenize(Input);
    DiagnosticEngine PD;
    LLStarParser Parser(*P.AG, Stream, &P.Env, PD);
    if (!P.runParse(Stream, Parser)) {
      std::fprintf(stderr, "LL(*) parse failed:\n%s\n", PD.str().c_str());
      return 1;
    }
    std::printf("%-10s %12lld %12lld %12lld %14s\n", "LL(*)",
                (long long)Parser.stats().SynPredEvals,
                (long long)Parser.stats().MemoHits,
                (long long)Parser.stats().MemoMisses, "-");
  }
  {
    TokenStream Stream = P.tokenize(Input);
    DiagnosticEngine PD;
    PackratParser::Options Opts;
    PackratParser Packrat(P.AG->grammar(), Stream, &P.Env, PD, Opts);
    // Bind the type-name predicate for the packrat run too.
    P.CurrentStream = &Stream;
    Packrat.parse("translationUnit");
    P.CurrentStream = nullptr;
    std::printf("%-10s %12s %12lld %12lld %14lld\n", "packrat", "-",
                (long long)Packrat.stats().MemoHits,
                (long long)Packrat.stats().MemoMisses,
                (long long)Packrat.stats().AltAttempts);
  }
  std::printf("\nShape check: the LL(*) cache stays far smaller than the "
              "packrat cache because most decisions never speculate "
              "(paper: 'the less we backtrack, the smaller the cache').\n");
  return 0;
}

//===- bench/bench_micro.cpp - Google-benchmark microbenchmarks -----------===//
//
// Microbenchmarks of the toolkit's hot paths using google-benchmark:
// lexing throughput, adaptive prediction, full LL(*) parses, packrat
// parses, whole-grammar analysis, and the regex-DFA substrate. These
// complement the table reproductions with stable, statistically sound
// timings for regression tracking.
//
//===----------------------------------------------------------------------===//

#include "BenchGrammars.h"
#include "BenchHarness.h"
#include "peg/PackratParser.h"
#include "regex/CharDFA.h"
#include "regex/RegexParser.h"

#include <benchmark/benchmark.h>

using namespace llstar;
using namespace llstar::bench;

namespace {

PreparedGrammar &javaGrammar() {
  static PreparedGrammar P = PreparedGrammar::prepare(benchGrammar("Java"));
  return P;
}
PreparedGrammar &ratsCGrammar() {
  static PreparedGrammar P = PreparedGrammar::prepare(benchGrammar("RatsC"));
  return P;
}

const std::string &javaInput() {
  static std::string S = generateJava(40, 11);
  return S;
}
const std::string &cInput() {
  static std::string S = generateC(60, 11);
  return S;
}

void BM_AnalyzeJavaGrammar(benchmark::State &State) {
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto AG = analyzeGrammarText(benchGrammar("Java").Text, Diags);
    benchmark::DoNotOptimize(AG);
  }
}
BENCHMARK(BM_AnalyzeJavaGrammar)->Unit(benchmark::kMillisecond);

void BM_LexJava(benchmark::State &State) {
  PreparedGrammar &P = javaGrammar();
  const std::string &Input = javaInput();
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto Tokens = P.AG->lexer().tokenize(Input, Diags);
    benchmark::DoNotOptimize(Tokens);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) *
                          int64_t(Input.size()));
}
BENCHMARK(BM_LexJava)->Unit(benchmark::kMillisecond);

void BM_ParseJavaLLStar(benchmark::State &State) {
  PreparedGrammar &P = javaGrammar();
  TokenStream Stream = P.tokenize(javaInput());
  for (auto _ : State) {
    Stream.seek(0);
    DiagnosticEngine Diags;
    ParserOptions Opts;
    Opts.BuildTree = false;
    Opts.CollectStats = false;
    LLStarParser Parser(*P.AG, Stream, &P.Env, Diags, Opts);
    P.runParse(Stream, Parser);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * Stream.size());
}
BENCHMARK(BM_ParseJavaLLStar)->Unit(benchmark::kMillisecond);

void BM_ParseJavaLLStarWithTree(benchmark::State &State) {
  PreparedGrammar &P = javaGrammar();
  TokenStream Stream = P.tokenize(javaInput());
  for (auto _ : State) {
    Stream.seek(0);
    DiagnosticEngine Diags;
    LLStarParser Parser(*P.AG, Stream, &P.Env, Diags);
    P.runParse(Stream, Parser);
  }
}
BENCHMARK(BM_ParseJavaLLStarWithTree)->Unit(benchmark::kMillisecond);

void BM_ParseCLLStar(benchmark::State &State) {
  PreparedGrammar &P = ratsCGrammar();
  TokenStream Stream = P.tokenize(cInput());
  for (auto _ : State) {
    Stream.seek(0);
    DiagnosticEngine Diags;
    ParserOptions Opts;
    Opts.BuildTree = false;
    Opts.CollectStats = false;
    LLStarParser Parser(*P.AG, Stream, &P.Env, Diags, Opts);
    P.runParse(Stream, Parser);
  }
}
BENCHMARK(BM_ParseCLLStar)->Unit(benchmark::kMillisecond);

void BM_ParseCPackrat(benchmark::State &State) {
  PreparedGrammar &P = ratsCGrammar();
  TokenStream Stream = P.tokenize(cInput());
  for (auto _ : State) {
    Stream.seek(0);
    DiagnosticEngine Diags;
    P.CurrentStream = &Stream;
    PackratParser Parser(P.AG->grammar(), Stream, &P.Env, Diags);
    Parser.parse("translationUnit");
    P.CurrentStream = nullptr;
  }
}
BENCHMARK(BM_ParseCPackrat)->Unit(benchmark::kMillisecond);

void BM_RegexDfaConstruction(benchmark::State &State) {
  DiagnosticEngine Diags;
  auto Re = regex::parseRegex("(a|b)*abb(a|b)*|[0-9]+(\\.[0-9]+)?", Diags);
  for (auto _ : State) {
    regex::Nfa N;
    N.addPattern(*Re, 0, 0);
    auto Dfa = regex::CharDfa::fromNfa(N).minimized();
    benchmark::DoNotOptimize(Dfa);
  }
}
BENCHMARK(BM_RegexDfaConstruction);

void BM_AdaptivePredictHotLoop(benchmark::State &State) {
  // Dominated by the statement-dispatch decision of the Java grammar.
  PreparedGrammar &P = javaGrammar();
  TokenStream Stream = P.tokenize(javaInput());
  for (auto _ : State) {
    Stream.seek(0);
    DiagnosticEngine Diags;
    ParserOptions Opts;
    Opts.BuildTree = false;
    LLStarParser Parser(*P.AG, Stream, &P.Env, Diags, Opts);
    P.runParse(Stream, Parser);
    benchmark::DoNotOptimize(Parser.stats().totalEvents());
  }
}
BENCHMARK(BM_AdaptivePredictHotLoop)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

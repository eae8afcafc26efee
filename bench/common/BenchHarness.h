//===- bench/common/BenchHarness.h - Shared bench plumbing ------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the benchmark binaries: analyze a benchmark grammar,
/// bind its semantic environment (the C grammar's isTypeName predicate),
/// lex a workload, run the LL(*) parser with statistics, format table
/// rows, and stamp JSON reports with the host they ran on.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_BENCH_BENCHHARNESS_H
#define LLSTAR_BENCH_BENCHHARNESS_H

#include "BenchGrammars.h"

#include "analysis/AnalyzedGrammar.h"
#include "lexer/TokenStream.h"
#include "runtime/LLStarParser.h"
#include "runtime/SemanticEnv.h"

#include <memory>
#include <string>

namespace llstar {
namespace bench {

/// A fully prepared benchmark grammar: analysis result (compiled lexer
/// included) + semantic bindings.
struct PreparedGrammar {
  const BenchGrammar *Spec = nullptr;
  std::unique_ptr<AnalyzedGrammar> AG;
  SemanticEnv Env;
  /// Lines of grammar text (Table 1's "Lines" column).
  int64_t GrammarLines = 0;
  /// set per parse by bindEnv: the token stream the predicates inspect.
  TokenStream *CurrentStream = nullptr;

  /// Parses + analyzes; aborts with a message on grammar errors.
  static PreparedGrammar prepare(const BenchGrammar &Spec);

  /// Lexes input; aborts on lex errors.
  TokenStream tokenize(const std::string &Input);
  TokenStream tokenize(std::string &&) = delete;

  /// Runs one full parse collecting stats into \p P. Returns success.
  bool runParse(TokenStream &Stream, LLStarParser &P);
};

/// Number of newline-terminated lines in \p Text.
int64_t countLines(const std::string &Text);

/// The host stamp committed BENCH_*.json files carry, as a JSON object:
/// `{"vcpus": N, "compiler": "...", "build": "<CMAKE_BUILD_TYPE>"}`.
/// Absolute numbers differ a lot between hosts and builds; the stamp says
/// which ones a baseline came from.
std::string hostJson();

} // namespace bench
} // namespace llstar

#endif // LLSTAR_BENCH_BENCHHARNESS_H

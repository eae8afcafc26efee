#include "BenchHarness.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace llstar;
using namespace llstar::bench;

int64_t llstar::bench::countLines(const std::string &Text) {
  int64_t N = 0;
  for (char C : Text)
    N += C == '\n';
  return N;
}

std::string llstar::bench::hostJson() {
#if defined(__clang__)
  std::string Compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  std::string Compiler = "gcc " + std::to_string(__GNUC__) + "." +
                         std::to_string(__GNUC_MINOR__) + "." +
                         std::to_string(__GNUC_PATCHLEVEL__);
#else
  std::string Compiler = "unknown";
#endif
  return "{\"vcpus\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + Compiler + "\", \"build\": \"" +
         LLSTAR_BUILD_TYPE + "\"}";
}

PreparedGrammar PreparedGrammar::prepare(const BenchGrammar &Spec) {
  PreparedGrammar P;
  P.Spec = &Spec;
  P.GrammarLines = countLines(Spec.Text);

  DiagnosticEngine Diags;
  P.AG = analyzeGrammarText(Spec.Text, Diags);
  if (!P.AG) {
    std::fprintf(stderr, "grammar %s failed to analyze:\n%s\n", Spec.Name,
                 Diags.str().c_str());
    std::abort();
  }

  // The C grammar's single semantic predicate (paper Section 4.2): a
  // symbol-table lookup, simulated here by the workload's naming
  // convention — type names start with 'T' or are known typedefs.
  P.Env.definePredicate("isTypeName", [&P] {
    if (!P.CurrentStream)
      return false;
    const Token &T = P.CurrentStream->LT(1);
    return !T.Text.empty() && T.Text[0] == 'T';
  });
  return P;
}

TokenStream PreparedGrammar::tokenize(const std::string &Input) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = AG->lexer().tokenize(Input, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "grammar %s: workload failed to lex:\n%s\n",
                 Spec->Name, Diags.str().c_str());
    std::abort();
  }
  return TokenStream(std::move(Tokens));
}

bool PreparedGrammar::runParse(TokenStream &Stream, LLStarParser &P) {
  CurrentStream = &Stream;
  P.parse(Spec->StartRule);
  CurrentStream = nullptr;
  return P.ok();
}

//===- examples/json_validate.cpp - JSON validator ------------------------===//
//
// A deterministic-grammar showcase: JSON is LL(1), so every decision gets
// a one-token DFA, nothing ever speculates, and — this being a
// deterministic LL parser (paper Section 1) — syntax errors are precise
// and local, unlike a packrat parser which only discovers failure at the
// end of the input.
//
// Usage: json_validate [file.json]
//        (with no argument, validates built-in good and bad samples)
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalyzedGrammar.h"
#include "lexer/Lexer.h"
#include "lexer/TokenStream.h"
#include "runtime/LLStarParser.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace llstar;

namespace {

const char *JsonGrammar = R"(
grammar Json;
json    : value EOF ;
value   : object | array | STRING | NUMBER | 'true' | 'false' | 'null' ;
object  : '{' (member (',' member)*)? '}' ;
member  : STRING ':' value ;
array   : '[' (value (',' value)*)? ']' ;

STRING : '"' (~["\\] | '\\' ["\\/bfnrtu])* '"' ;
NUMBER : '-'? ('0' | [1-9] [0-9]*) ('.' [0-9]+)? (('e' | 'E') ('+' | '-')? [0-9]+)? ;
WS     : [ \t\r\n]+ -> skip ;
)";

bool validate(const AnalyzedGrammar &AG, const Lexer &L,
              const std::string &Name, const std::string &Text) {
  DiagnosticEngine Diags;
  TokenStream Stream(L.tokenize(Text, Diags));
  if (Diags.hasErrors()) {
    std::printf("%-12s INVALID (lexical): %s", Name.c_str(),
                Diags.diagnostics().front().str().c_str());
    std::printf("\n");
    return false;
  }
  LLStarParser P(AG, Stream, nullptr, Diags);
  auto Tree = P.parse("json");
  if (!P.ok()) {
    std::printf("%-12s INVALID: %s\n", Name.c_str(),
                Diags.diagnostics().front().str().c_str());
    return false;
  }
  std::printf("%-12s valid (%zu tree nodes, %lld tokens, avg lookahead "
              "%.2f)\n",
              Name.c_str(), Tree->size(),
              (long long)Stream.size() - 1, P.stats().avgLookahead());
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(JsonGrammar, Diags);
  if (!AG) {
    std::fprintf(stderr, "grammar error:\n%s", Diags.str().c_str());
    return 1;
  }
  std::printf("%s\n", AG->summary().c_str());
  const Lexer &L = AG->lexer();

  if (Argc > 1) {
    std::ifstream In(Argv[1]);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", Argv[1]);
      return 1;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    return validate(*AG, L, Argv[1], Buffer.str()) ? 0 : 1;
  }

  validate(*AG, L, "good", R"({
    "name": "llstar",
    "version": [1, 0, "beta"],
    "strict": true,
    "nested": {"pi": 3.14159, "big": 1.2e10, "nothing": null}
  })");
  validate(*AG, L, "bad-comma", R"({"a": 1,, "b": 2})");
  validate(*AG, L, "bad-value", R"({"a": })");
  validate(*AG, L, "bad-nest", R"([1, [2, [3], 4])");
  return 0;
}

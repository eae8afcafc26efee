//===- examples/cdecl.cpp - C declaration vs definition -------------------===//
//
// Demonstrates the two predicate kinds on the paper's flagship hard case:
// C's declaration-vs-definition ambiguity plus typedef-name context
// sensitivity.
//
//  - Syntactic predicates (auto-inserted PEG mode) let the parser
//    distinguish `int f(int a);` from `int f(int a) { ... }` by
//    speculating — and the stats show it speculates only on the inputs
//    that need it.
//  - The semantic predicate {isTypeName}? consults a symbol table that
//    embedded actions maintain *during the parse*: `typedef int T12;`
//    makes `T12 x;` parse as a declaration later in the same file.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalyzedGrammar.h"
#include "lexer/TokenStream.h"
#include "runtime/LLStarParser.h"

#include <cstdio>
#include <set>
#include <string>

using namespace llstar;

namespace {

const char *CDeclGrammar = R"(
grammar CDecl;
options { backtrack=true; memoize=true; }

translationUnit : externalDecl* EOF ;
externalDecl    : functionDef | typedefDecl | declaration ;
functionDef     : declSpecifier+ declarator compoundStatement ;
typedefDecl     : 'typedef' declSpecifier+ ID {{defineType}} ';' ;
declaration     : declSpecifier+ initDeclarator (',' initDeclarator)* ';' ;

declSpecifier : 'extern' | 'static' | 'const' | 'unsigned' | 'void'
              | 'char' | 'int' | 'long' | 'double'
              | {isTypeName}? ID
              ;
declarator       : '*'* directDeclarator ;
directDeclarator : ID declaratorSuffix* ;
declaratorSuffix : '(' paramList? ')' | '[' INT_LIT? ']' ;
paramList        : paramDecl (',' paramDecl)* ;
paramDecl        : declSpecifier+ declarator ;
initDeclarator   : declarator ('=' expression)? ;

compoundStatement : '{' statement* '}' ;
statement         : compoundStatement
                  | 'return' expression ';'
                  | declaration
                  | expression ';'
                  ;
expression : primary (('+' | '-' | '*' | '=') primary)* ;
primary    : ID ('(' argList? ')')? | INT_LIT | '(' expression ')' ;
argList    : expression (',' expression)* ;

ID      : [a-zA-Z_] [a-zA-Z0-9_]* ;
INT_LIT : [0-9]+ ;
WS      : [ \t\r\n]+ -> skip ;
)";

const char *SampleInput = R"(
typedef unsigned long size_t2;
typedef int T12;

static int counter;
int add(int a, int b);

int add(int a, int b) {
  return a + b;
}

T12 globalValue = 42;
size_t2 bigValue;

int main() {
  T12 local = add(1, 2);
  counter = local * 2;
  return counter;
}
)";

} // namespace

int main() {
  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(CDeclGrammar, Diags);
  if (!AG) {
    std::fprintf(stderr, "grammar error:\n%s", Diags.str().c_str());
    return 1;
  }
  std::printf("%s\n\n", AG->summary().c_str());

  DiagnosticEngine LexDiags;
  TokenStream Stream(AG->lexer().tokenize(SampleInput, LexDiags));

  // The symbol table the predicates consult. The {{defineType}} action is
  // a double-brace "always action": it must run even during speculation,
  // because later speculative parses depend on the typedefs it records
  // (paper Section 4.3). Registering a name twice is harmless, which is
  // exactly the paper's point about idempotent/undoable {{...}} actions.
  std::set<std::string, std::less<>> TypeNames;
  SemanticEnv Env;
  Env.definePredicate("isTypeName", [&] {
    return TypeNames.count(Stream.LT(1).Text) > 0;
  });
  Env.defineAction("defineType", [&] {
    // The ID just matched is the previous token.
    TypeNames.emplace(Stream.LT(0).Text);
  });

  DiagnosticEngine ParseDiags;
  LLStarParser P(*AG, Stream, &Env, ParseDiags);
  auto Tree = P.parse("translationUnit");
  if (!P.ok()) {
    std::fprintf(stderr, "parse failed:\n%s", ParseDiags.str().c_str());
    return 1;
  }

  std::printf("parsed %zu top-level constructs; %zu typedef names "
              "recorded:",
              Tree->root()->numChildren(), TypeNames.size());
  for (const std::string &T : TypeNames)
    std::printf(" %s", T.c_str());
  std::printf("\n\nruntime profile:\n");
  std::printf("  decision events:       %lld\n",
              (long long)P.stats().totalEvents());
  std::printf("  events that backtracked: %lld (%.2f%%)\n",
              (long long)P.stats().backtrackEvents(),
              100.0 * P.stats().backtrackEventFraction());
  std::printf("  avg lookahead:         %.2f tokens\n",
              P.stats().avgLookahead());
  std::printf("  max lookahead:         %lld tokens (speculating across "
              "a whole function body)\n",
              (long long)P.stats().maxLookahead());
  std::printf("  memoization:           %lld hits / %lld misses\n",
              (long long)P.stats().MemoHits,
              (long long)P.stats().MemoMisses);
  return 0;
}

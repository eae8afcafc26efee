//===- examples/generated_config.cpp - Using a generated parser -----------===//
//
// Demonstrates the ahead-of-time workflow: examples/grammars/Config.g is
// compiled by `llstar generate` during the build (see CMakeLists.txt);
// this program just links the generated module — no grammar analysis
// happens at runtime, exactly like deploying an ANTLR-generated parser.
//
//===----------------------------------------------------------------------===//

#include "ConfigParser.h"
#include "runtime/TreeUtils.h"

#include <cstdio>
#include <string>

int main() {
  configparser::ConfigParser Parser;

  const char *Sample = R"(
# build configuration
[build]
jobs = 8
targets = core, tests, bench
profile = "release with debug info"

[paths]
prefix = "/usr/local"
cache.dir = "/tmp/cache"
)";

  llstar::DiagnosticEngine Diags;
  llstar::TokenStream Stream = Parser.tokenize(Sample, Diags);
  auto Tree = Parser.parse(Stream, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }

  // Walk the tree with the generated rule constants.
  const llstar::ArenaParseTree &Root = *Tree->root();
  auto TextOf = [&](const llstar::ArenaParseTree *Leaf) {
    return std::string(Tree->token(*Leaf).Text);
  };
  auto Sections = llstar::collectRuleNodes(Root, configparser::RULE_section);
  std::printf("parsed %zu sections:\n", Sections.size());
  for (const llstar::ArenaParseTree *S : Sections) {
    // section : '[' ID ']' entry* ;
    std::printf("  [%s] with %zu entries\n",
                TextOf(S->firstChild()->nextSibling()).c_str(),
                S->numChildren() - 3);
  }
  auto Entries = llstar::collectRuleNodes(Root, configparser::RULE_entry);
  for (const llstar::ArenaParseTree *E : Entries) {
    // entry : ID '=' value ;
    const llstar::ArenaParseTree *Key = E->firstChild();
    const llstar::ArenaParseTree *Value = Key->nextSibling()->nextSibling();
    std::printf("    %-10s = %s\n", TextOf(Key).c_str(),
                llstar::treeText(*Value, Tree->tokens()).c_str());
  }
  return 0;
}

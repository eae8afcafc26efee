//===- runtime/ParseTree.h - The owning result of parse() -------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a one-shot parse() returns: an \ref ArenaParseTree together with
/// everything it needs to be walked and rendered on its own — the arena its
/// nodes live in and a copy of the tokens its leaves index. Callers that
/// render while the input is alive (the parse service, incremental
/// sessions) pass ParserOptions::TreeArena instead and skip the copy.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RUNTIME_PARSETREE_H
#define LLSTAR_RUNTIME_PARSETREE_H

#include "grammar/Grammar.h"
#include "lexer/TokenStream.h"
#include "runtime/Arena.h"
#include "runtime/ArenaParseTree.h"

#include <string>
#include <vector>

namespace llstar {

/// An owning parse tree. Token texts are copied into one buffer the tree
/// owns, so it outlives (and survives edits of) the input it was parsed
/// from. Neither copyable nor movable: the copied tokens view its buffer.
class ParseTree {
public:
  /// An empty tree rooted at an application of \p RootRule. With \p Source,
  /// copies its tokens and their texts; without (no tree is built), holds
  /// only an EOF token.
  ParseTree(int32_t RootRule, const TokenStream *Source)
      : Toks(copyTokens(Source, Text)),
        Root(ArenaParseTree::ruleNode(A, RootRule)) {}
  ParseTree(const ParseTree &) = delete;
  ParseTree &operator=(const ParseTree &) = delete;

  const ArenaParseTree *root() const { return Root; }
  ArenaParseTree *root() { return Root; }
  /// The arena the nodes live in; parsers build into it.
  Arena &arena() { return A; }

  /// The copied tokens, indexed by ArenaParseTree::tokenIndex.
  const TokenStream &tokens() const { return Toks; }
  /// The token leaf \p Leaf stands for. A Missing error leaf's is the token
  /// at the repair point (ArenaParseTree::missingToken has the conjured
  /// type).
  const Token &token(const ArenaParseTree &Leaf) const {
    return Toks.at(Leaf.tokenIndex());
  }

  /// Total number of nodes.
  size_t size() const { return Root->size(); }
  /// Number of error leaves.
  size_t numErrorNodes() const { return Root->numErrorNodes(); }
  /// LISP-style rendering (see ArenaParseTree::str).
  std::string str(const Grammar &G) const { return Root->str(G, Toks); }

private:
  /// Copies \p Source's tokens, re-pointing each text at \p Text, which is
  /// sized once up front so the views never move.
  static std::vector<Token> copyTokens(const TokenStream *Source,
                                       std::string &Text) {
    if (!Source)
      return {Token::eof(0, SourceLocation())};
    std::vector<Token> Copy = Source->tokens();
    size_t Bytes = 0;
    for (const Token &T : Copy)
      Bytes += T.Text.size();
    Text.reserve(Bytes);
    for (Token &T : Copy) {
      size_t At = Text.size(), Len = T.Text.size();
      Text += T.Text;
      T.Text = std::string_view(Text).substr(At, Len);
    }
    return Copy;
  }

  Arena A;
  std::string Text; ///< storage of every copied token's text
  TokenStream Toks;
  ArenaParseTree *Root;
};

} // namespace llstar

#endif // LLSTAR_RUNTIME_PARSETREE_H

//===- runtime/ParseTree.h - Concrete parse trees ---------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete syntax trees built by the LL(*) and packrat parsers during
/// non-speculative parsing. Nodes are either rule applications or token
/// leaves.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RUNTIME_PARSETREE_H
#define LLSTAR_RUNTIME_PARSETREE_H

#include "grammar/Grammar.h"
#include "lexer/Token.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace llstar {

/// How an error leaf came to be. Error leaves are emitted by the
/// error-recovering runtime (src/recover) and render as `(error ...)`;
/// ParseTree and ArenaParseTree produce byte-identical renderings.
enum class ErrorNodeKind : uint8_t {
  None,    ///< not an error node
  Skipped, ///< a real input token deleted or panic-skipped during recovery
  Missing, ///< a conjured token (single-token insertion)
  Marker,  ///< zero-width marker: recovery re-synced without consuming
};

/// One parse-tree node.
///
/// Token leaves copy their text into storage the node owns, so a heap tree
/// outlives (and survives edits of) the input it was parsed from; token()
/// views that copy. Nodes therefore never move: they live behind
/// unique_ptr and are neither copyable nor movable.
class ParseTree {
public:
  ParseTree() = default;
  ParseTree(const ParseTree &) = delete;
  ParseTree &operator=(const ParseTree &) = delete;

  static std::unique_ptr<ParseTree> ruleNode(int32_t RuleIndex) {
    auto N = std::make_unique<ParseTree>();
    N->RuleIdx = RuleIndex;
    return N;
  }
  static std::unique_ptr<ParseTree> tokenNode(const Token &Tok) {
    auto N = std::make_unique<ParseTree>();
    N->IsToken = true;
    N->adopt(Tok);
    return N;
  }
  /// An error leaf. \p Tok carries the exact source span: the skipped
  /// token itself, or for Missing/Marker nodes the token at the repair
  /// point (Missing nodes carry the conjured type and a synthetic
  /// `<missing X>` text, which the node copies like any other).
  static std::unique_ptr<ParseTree> errorNode(const Token &Tok,
                                              ErrorNodeKind Kind) {
    auto N = tokenNode(Tok);
    N->ErrKind = Kind;
    return N;
  }

  bool isToken() const { return IsToken; }
  bool isError() const { return ErrKind != ErrorNodeKind::None; }
  ErrorNodeKind errorKind() const { return ErrKind; }
  int32_t ruleIndex() const { return RuleIdx; }
  const Token &token() const { return Tok; }
  /// A token leaf's text as the node's own (null-terminated) string.
  const std::string &text() const { return OwnedText; }

  ParseTree *addChild(std::unique_ptr<ParseTree> Child) {
    Children.push_back(std::move(Child));
    return Children.back().get();
  }
  /// Drops children from index \p N on; speculative parsers roll back with
  /// this after a failed attempt.
  void truncateChildren(size_t N) {
    if (N < Children.size())
      Children.resize(N);
  }
  /// Moves all children out (splicing helper for scratch nodes).
  std::vector<std::unique_ptr<ParseTree>> takeChildren() {
    return std::move(Children);
  }
  const std::vector<std::unique_ptr<ParseTree>> &children() const {
    return Children;
  }
  ParseTree *child(size_t I) const { return Children[I].get(); }
  size_t numChildren() const { return Children.size(); }

  /// Total number of nodes in this subtree.
  size_t size() const {
    size_t N = 1;
    for (const auto &C : Children)
      N += C->size();
    return N;
  }

  /// Number of token leaves in this subtree. Error leaves do not count:
  /// they are repair artifacts, not matched input.
  size_t numTokens() const {
    if (IsToken)
      return isError() ? 0 : 1;
    size_t N = 0;
    for (const auto &C : Children)
      N += C->numTokens();
    return N;
  }

  /// Number of error leaves in this subtree.
  size_t numErrorNodes() const {
    size_t N = isError() ? 1 : 0;
    for (const auto &C : Children)
      N += C->numErrorNodes();
    return N;
  }

  /// LISP-style rendering: `(rule child1 child2)`, token leaves as text,
  /// error leaves as `(error <text>)` (`(error)` for zero-width markers).
  std::string str(const Grammar &G) const {
    std::string Out;
    render(G, Out);
    return Out;
  }

private:
  /// Appends this subtree's rendering to \p Out. One buffer serves the
  /// whole tree, so each node's text is copied once, not once per ancestor.
  void render(const Grammar &G, std::string &Out) const {
    if (IsToken) {
      if (ErrKind == ErrorNodeKind::None) {
        Out += OwnedText;
      } else if (ErrKind == ErrorNodeKind::Marker) {
        Out += "(error)";
      } else {
        Out += "(error ";
        Out += OwnedText;
        Out += ')';
      }
      return;
    }
    Out += '(';
    Out += G.rule(RuleIdx).Name;
    for (const auto &C : Children) {
      Out += ' ';
      C->render(G, Out);
    }
    Out += ')';
  }

  /// Copies \p T, re-pointing its text at this node's own storage.
  void adopt(const Token &T) {
    OwnedText.assign(T.Text);
    Tok = T;
    Tok.Text = OwnedText;
  }

  bool IsToken = false;
  ErrorNodeKind ErrKind = ErrorNodeKind::None;
  int32_t RuleIdx = -1;
  Token Tok;
  std::string OwnedText; ///< Tok.Text's storage (token leaves)
  std::vector<std::unique_ptr<ParseTree>> Children;
};

} // namespace llstar

#endif // LLSTAR_RUNTIME_PARSETREE_H

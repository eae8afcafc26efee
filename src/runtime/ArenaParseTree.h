//===- runtime/ArenaParseTree.h - Arena-allocated parse trees ---*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parse-tree node every parser builds: trivially destructible nodes
/// carved from an \ref Arena, linked through intrusive sibling pointers.
/// Token leaves store the token's index in the \ref TokenStream instead of
/// an owning copy, so releasing a tree is the O(1) arena reset — the parse
/// service renders or walks the tree while the request's stream is alive,
/// then recycles the region. A one-shot parse() hands back a \ref ParseTree,
/// which owns the arena and a copy of the tokens the leaves index.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RUNTIME_ARENAPARSETREE_H
#define LLSTAR_RUNTIME_ARENAPARSETREE_H

#include "grammar/Grammar.h"
#include "lexer/TokenStream.h"
#include "runtime/Arena.h"

#include <cstdint>
#include <string>

namespace llstar {

/// How an error leaf came to be. Error leaves are emitted by the
/// error-recovering runtime (src/recover) and render as `(error ...)`.
enum class ErrorNodeKind : uint8_t {
  None,    ///< not an error node
  Skipped, ///< a real input token deleted or panic-skipped during recovery
  Missing, ///< a conjured token (single-token insertion)
  Marker,  ///< zero-width marker: recovery re-synced without consuming
};

/// One arena-allocated parse-tree node. No destructor may be required; the
/// arena frees nodes without running them.
class ArenaParseTree {
public:
  static ArenaParseTree *ruleNode(Arena &A, int32_t RuleIndex) {
    ArenaParseTree *N = A.create<ArenaParseTree>();
    N->RuleIdx = RuleIndex;
    return N;
  }
  static ArenaParseTree *tokenNode(Arena &A, int64_t TokenIndex) {
    ArenaParseTree *N = A.create<ArenaParseTree>();
    N->IsToken = true;
    N->TokenIdx = TokenIndex;
    return N;
  }
  /// An error leaf for a real input token that recovery deleted or
  /// panic-skipped; renders as `(error <text>)`.
  static ArenaParseTree *errorNode(Arena &A, int64_t TokenIndex) {
    ArenaParseTree *N = tokenNode(A, TokenIndex);
    N->ErrKind = ErrorNodeKind::Skipped;
    return N;
  }
  /// A conjured-token error leaf (single-token insertion): \p Missing is
  /// the inserted type, \p AtTokenIndex the stream position of the repair
  /// (its source span). Renders as `(error <missing X>)`.
  static ArenaParseTree *missingNode(Arena &A, TokenType Missing,
                                     int64_t AtTokenIndex) {
    ArenaParseTree *N = tokenNode(A, AtTokenIndex);
    N->ErrKind = ErrorNodeKind::Missing;
    N->MissingTok = Missing;
    return N;
  }
  /// A zero-width error marker at \p AtTokenIndex; renders as `(error)`.
  static ArenaParseTree *markerNode(Arena &A, int64_t AtTokenIndex) {
    ArenaParseTree *N = tokenNode(A, AtTokenIndex);
    N->ErrKind = ErrorNodeKind::Marker;
    return N;
  }

  bool isToken() const { return IsToken; }
  bool isError() const { return ErrKind != ErrorNodeKind::None; }
  ErrorNodeKind errorKind() const { return ErrKind; }
  /// The conjured token type of a Missing error leaf (TokenInvalid
  /// otherwise).
  TokenType missingToken() const { return MissingTok; }
  int32_t ruleIndex() const { return RuleIdx; }
  /// Index of this leaf's token in the request's TokenStream.
  int64_t tokenIndex() const { return TokenIdx; }

  ArenaParseTree *addChild(ArenaParseTree *Child) {
    Child->NextSibling = nullptr;
    if (LastChild)
      LastChild->NextSibling = Child;
    else
      FirstChild = Child;
    LastChild = Child;
    ++NumChildren;
    return Child;
  }

  /// Keeps the first \p N children and unlinks the rest, which stay in the
  /// arena until it is released; the packrat parser rolls back a failed
  /// attempt with this.
  void keepChildren(size_t N) {
    if (N >= NumChildren)
      return;
    NumChildren = uint32_t(N);
    if (N == 0) {
      FirstChild = LastChild = nullptr;
      return;
    }
    LastChild = FirstChild;
    while (--N > 0)
      LastChild = LastChild->NextSibling;
    LastChild->NextSibling = nullptr;
  }
  /// Moves all of \p Scratch's children to the end of this node's list.
  void adoptChildren(ArenaParseTree &Scratch) {
    if (!Scratch.FirstChild)
      return;
    if (LastChild)
      LastChild->NextSibling = Scratch.FirstChild;
    else
      FirstChild = Scratch.FirstChild;
    LastChild = Scratch.LastChild;
    NumChildren += Scratch.NumChildren;
    Scratch.FirstChild = Scratch.LastChild = nullptr;
    Scratch.NumChildren = 0;
  }

  const ArenaParseTree *firstChild() const { return FirstChild; }
  const ArenaParseTree *nextSibling() const { return NextSibling; }
  size_t numChildren() const { return NumChildren; }

  /// Total number of nodes in this subtree.
  size_t size() const {
    size_t N = 1;
    for (const ArenaParseTree *C = FirstChild; C; C = C->NextSibling)
      N += C->size();
    return N;
  }

  /// Number of error leaves in this subtree.
  size_t numErrorNodes() const {
    size_t N = isError() ? 1 : 0;
    for (const ArenaParseTree *C = FirstChild; C; C = C->NextSibling)
      N += C->numErrorNodes();
    return N;
  }

  /// LISP-style rendering: `(rule child ...)`, token leaves as their text
  /// (looked up in \p Stream), error leaves as `(error <text>)`
  /// (`(error <missing X>)` for conjured tokens, `(error)` for markers).
  std::string str(const Grammar &G, const TokenStream &Stream) const {
    std::string Out;
    render(G, Stream, Out);
    return Out;
  }

private:
  void render(const Grammar &G, const TokenStream &Stream,
              std::string &Out) const {
    if (IsToken) {
      if (ErrKind == ErrorNodeKind::None) {
        Out += Stream.at(TokenIdx).Text;
      } else if (ErrKind == ErrorNodeKind::Marker) {
        Out += "(error)";
      } else if (ErrKind == ErrorNodeKind::Missing) {
        Out += "(error <missing ";
        Out += G.vocabulary().name(MissingTok);
        Out += ">)";
      } else {
        Out += "(error ";
        Out += Stream.at(TokenIdx).Text;
        Out += ")";
      }
      return;
    }
    Out += "(";
    Out += G.rule(RuleIdx).Name;
    for (const ArenaParseTree *C = FirstChild; C; C = C->NextSibling) {
      Out += " ";
      C->render(G, Stream, Out);
    }
    Out += ")";
  }

  bool IsToken = false;
  ErrorNodeKind ErrKind = ErrorNodeKind::None;
  int32_t RuleIdx = -1;
  TokenType MissingTok = TokenInvalid;
  int64_t TokenIdx = -1;
  ArenaParseTree *FirstChild = nullptr;
  ArenaParseTree *LastChild = nullptr;
  ArenaParseTree *NextSibling = nullptr;
  uint32_t NumChildren = 0;
};

static_assert(std::is_trivially_destructible_v<ArenaParseTree>,
              "ArenaParseTree must stay arena-compatible");

} // namespace llstar

#endif // LLSTAR_RUNTIME_ARENAPARSETREE_H

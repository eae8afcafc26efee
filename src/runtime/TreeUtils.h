//===- runtime/TreeUtils.h - Parse-tree walking utilities -------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience utilities over \ref ArenaParseTree: depth-first walking with
/// enter/exit callbacks, node collection by rule, and token-text
/// extraction.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RUNTIME_TREEUTILS_H
#define LLSTAR_RUNTIME_TREEUTILS_H

#include "runtime/ArenaParseTree.h"

#include <functional>
#include <string>
#include <vector>

namespace llstar {

/// Callbacks for \ref walkTree. Either may be null.
struct TreeListener {
  /// Called before a node's children; return false to skip the subtree.
  std::function<bool(const ArenaParseTree &)> Enter;
  /// Called after a node's children.
  std::function<void(const ArenaParseTree &)> Exit;
};

/// Depth-first traversal with enter/exit events (the listener pattern of
/// ANTLR-generated walkers).
void walkTree(const ArenaParseTree &Root, const TreeListener &Listener);

/// All descendants (including \p Root) that are applications of rule
/// \p RuleIndex, in document order.
std::vector<const ArenaParseTree *>
collectRuleNodes(const ArenaParseTree &Root, int32_t RuleIndex);

/// Concatenated text of the token leaves under \p Root, looked up in
/// \p Tokens and separated by single spaces. Missing and marker error
/// leaves match no input and are left out.
std::string treeText(const ArenaParseTree &Root, const TokenStream &Tokens);

} // namespace llstar

#endif // LLSTAR_RUNTIME_TREEUTILS_H

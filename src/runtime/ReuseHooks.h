//===- runtime/ReuseHooks.h - Incremental-reparse engine hooks --*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract between the parsing engines and the incremental-reparse
/// subsystem (src/incremental/). When ParserOptions::Hooks is set, both the
/// interpreting LLStarParser and the compiled CompiledParser call back at
/// the same points:
///
///   - tryReuse() before running a non-speculative rule invocation whose
///     parent is an arena node: a hit splices a previously built arena
///     subtree into the tree under construction and skips the rule body
///     entirely (the engine seeks the stream past the subtree's tokens);
///   - enterRule()/exitRule() bracketing every non-speculative rule body,
///     so the subscriber can record per-node reuse metadata;
///   - lookahead() at every prediction record point — including during
///     speculation — reporting the highest stream index the decision
///     examined (prediction is a pure function of that window, which is
///     what makes subtree reuse soundness checkable);
///   - opaque() whenever the current rule's outcome stops being a pure
///     function of its token window: semantic predicates, actions, reported
///     syntax errors (recovery consults the dynamic follow stack), deadline
///     aborts. Subscribers must refuse to reuse poisoned nodes.
///
/// The engines never interpret the recorded data; soundness policy lives
/// entirely on the subscriber side.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RUNTIME_REUSEHOOKS_H
#define LLSTAR_RUNTIME_REUSEHOOKS_H

#include <cstddef>
#include <cstdint>

namespace llstar {

class ArenaParseTree;

/// Abstract subscriber for incremental-reparse instrumentation. All calls
/// happen on the parsing thread; implementations need no locking unless
/// shared across parsers.
class ReuseHooks {
public:
  virtual ~ReuseHooks() = default;

  /// A successful reuse probe: the subtree to attach, carved from the
  /// arena the parse builds into, the stream index just past its last
  /// consumed token, and its node count (the engine adds it to the parse's
  /// tree size; a spliced subtree holds no error leaves).
  struct Splice {
    ArenaParseTree *Node = nullptr;
    int64_t NextIndex = -1;
    size_t NumNodes = 0;
  };

  /// Probes for a reusable subtree for (Rule, Precedence) starting at
  /// stream index \p StartIndex. On a hit the engine attaches the splice,
  /// seeks to Splice::NextIndex, and skips the rule body.
  virtual bool tryReuse(int32_t Rule, int32_t Precedence, int64_t StartIndex,
                        Splice &Out) = 0;

  /// A non-speculative rule invocation is about to run its body (after a
  /// tryReuse miss).
  virtual void enterRule(int32_t Rule, int32_t Precedence,
                         int64_t StartIndex) = 0;

  /// The invocation announced by the matching enterRule finished (possibly
  /// after recovery resync). \p NextIndex is the stream index after the
  /// rule; \p Node is the freshly built node (null when the parse builds no
  /// tree).
  virtual void exitRule(int32_t Rule, int64_t NextIndex,
                        ArenaParseTree *Node) = 0;

  /// A prediction event examined tokens up to stream index
  /// \p MaxIndexInclusive (an over-approximation by at most one token).
  /// Fires during speculation too: lookahead consumed inside a speculative
  /// sub-parse belongs to the innermost real rule on the subscriber's
  /// stack.
  virtual void lookahead(int64_t MaxIndexInclusive) = 0;

  /// The current rule invocation (and hence its ancestors) is no longer a
  /// pure function of its token window.
  virtual void opaque() = 0;
};

} // namespace llstar

#endif // LLSTAR_RUNTIME_REUSEHOOKS_H

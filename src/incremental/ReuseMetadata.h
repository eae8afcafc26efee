//===- incremental/ReuseMetadata.h - Per-node reuse metadata ----*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The subscriber side of runtime/ReuseHooks.h: records per-node reuse
/// metadata during one parse and serves subtree splices to the next.
///
/// For every completed non-speculative rule invocation the recorder keeps
/// `(rule, precedence, startToken, nextToken, maxLookaheadReach)` — where
/// the reach is the highest token index *any* prediction under the node
/// examined, folded child-into-parent on exit. An LL(*) decision is a
/// pure function of its lookahead window, so a node whose `[start, reach]`
/// window is disjoint from an edit's damaged token range would parse to
/// the identical subtree; that is the entire soundness argument.
///
/// Nodes are dropped (never recorded) when anything broke that purity:
/// semantic predicates and actions consult mutable state, syntax-error
/// recovery consults the dynamic follow stack, deadline aborts truncate
/// the parse. The engines report those moments through
/// ReuseHooks::opaque(), and the poison propagates to every ancestor.
/// Zero-width invocations are also dropped — splicing a node that
/// consumed nothing can never make progress.
///
/// On the next parse, \ref ReuseRecorder::tryReuse maps the probe's new
/// start index back to old token coordinates (identity before the damage,
/// shifted by the token delta after it) and requires the recorded window
/// to be disjoint from the damaged range. The splice copies the recorded
/// arena subtree into the arena the new tree is built in (the session
/// recycles the old arena after the parse, so its nodes cannot survive):
/// a bump-allocation walk with no per-node bookkeeping, whose token
/// leaves hold only a stream index, re-based by the token delta.
///
/// Metadata carries forward without any per-node map: exits append in
/// post-order, so a node's subtree occupies the contiguous metadata range
/// [SubtreeBegin, self] — the copy walk carries that whole range,
/// re-based, in the same pass, which is what lets reuse keep compounding
/// across edits at O(spliced metadata) instead of O(tree) cost.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_INCREMENTAL_REUSEMETADATA_H
#define LLSTAR_INCREMENTAL_REUSEMETADATA_H

#include "lexer/Token.h"
#include "runtime/Arena.h"
#include "runtime/ArenaParseTree.h"
#include "runtime/ReuseHooks.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace llstar {
namespace incremental {

/// Reuse metadata for one parse-tree node (one completed rule
/// invocation). Indices are token-stream positions of the parse that
/// built the node. Only sound candidates are stored: opaque
/// (predicate/action/error/deadline-tainted) and zero-width invocations
/// are never recorded.
struct NodeMeta {
  int32_t Rule = -1;
  int32_t Prec = 0;
  int64_t Start = 0; ///< first token index of the invocation
  int64_t Next = 0;  ///< one past the last consumed token
  int64_t Reach = 0; ///< highest token index any decision under the node
                     ///< examined (inclusive; >= Next - 1)
  /// Index into the owning record's Metas of the first entry belonging to
  /// this node's subtree. Exits append post-order, so the subtree's
  /// entries are exactly Metas[SubtreeBegin .. self], self last.
  uint32_t SubtreeBegin = 0;
  const ArenaParseTree *ArenaNode = nullptr;
};

/// All reuse metadata harvested from one parse, indexed for the next.
/// The probe index is a flat open-addressed table (the per-edit rebuild
/// is on the incremental hot path; node-based maps are too slow there).
struct ParseRecord {
  std::vector<NodeMeta> Metas;

  static uint64_t packKey(int32_t Rule, int32_t Prec, int64_t Start) {
    return (uint64_t(uint32_t(Rule)) * 0x9E3779B97F4A7C15ULL) ^
           (uint64_t(uint32_t(Prec)) * 0xC2B2AE3D27D4EB4FULL) ^
           uint64_t(Start);
  }

  /// Index into Metas of the entry for (rule, prec, start), or
  /// \ref Npos. On a packed-key collision the later (outermost) entry
  /// wins; callers re-check the triple and treat a mismatch as a miss.
  uint32_t find(int32_t Rule, int32_t Prec, int64_t Start) const {
    if (Slots.empty())
      return Npos;
    uint64_t K = packKey(Rule, Prec, Start);
    for (size_t S = slotOf(K);; S = (S + 1) & Mask) {
      if (Slots[S].second == Npos)
        return Npos;
      if (Slots[S].first == K)
        return Slots[S].second;
    }
  }

  static constexpr uint32_t Npos = UINT32_MAX;

  /// Rebuilds the probe index from Metas.
  void build();
  void clear();

private:
  size_t slotOf(uint64_t K) const { return size_t(K ^ (K >> 32)) & Mask; }

  std::vector<std::pair<uint64_t, uint32_t>> Slots; ///< (key, Metas index)
  size_t Mask = 0;
};

/// The live ReuseHooks subscriber for one parse: records metadata for the
/// tree being built while serving splices out of the previous parse's
/// record. Construct one per parse; harvest with \ref take afterwards.
class ReuseRecorder : public ReuseHooks {
public:
  struct Config {
    /// Previous parse to harvest subtrees from; null disables reuse
    /// (first parse of a session, or reuse turned off).
    const ParseRecord *Prev = nullptr;
    /// Damaged token window, from IncrementalLexer::Damage: old tokens
    /// [0, InvalidLo) are unchanged, old tokens [OldInvalidHi, ...)
    /// survive shifted by TokenDelta (their new indices start at
    /// NewInvalidHi).
    int64_t InvalidLo = 0;
    int64_t OldInvalidHi = 0;
    int64_t NewInvalidHi = 0;
    int64_t TokenDelta = 0;
    /// The new master token vector; bounds the re-based leaf indices of
    /// splice copies.
    const std::vector<Token> *NewTokens = nullptr;
    /// Arena receiving splice copies: the one the new tree is built in.
    Arena *NewArena = nullptr;
  };

  explicit ReuseRecorder(Config C) : C(C) {}

  bool tryReuse(int32_t Rule, int32_t Precedence, int64_t StartIndex,
                Splice &Out) override;
  void enterRule(int32_t Rule, int32_t Precedence,
                 int64_t StartIndex) override;
  void exitRule(int32_t Rule, int64_t NextIndex,
                ArenaParseTree *Node) override;
  void lookahead(int64_t MaxIndexInclusive) override;
  void opaque() override;

  /// Harvests the metadata recorded for the parse (with indices built);
  /// the recorder is spent afterwards.
  ParseRecord take();

private:
  struct Frame {
    int32_t Rule;
    int32_t Prec;
    int64_t Start;
    int64_t Reach;
    uint32_t MetasMark; ///< Metas.size() at enterRule: SubtreeBegin
    bool Opaque;
  };

  /// Copies the recorded subtree into the new arena, leaf indices shifted
  /// by \p Shift, and carries its metadata along; adds the nodes it
  /// creates to \p Copied. Null on refusal.
  ArenaParseTree *copyArena(const ArenaParseTree &Old, int64_t Shift,
                            size_t &Copied);

  Config C;
  std::vector<Frame> Stack;
  std::vector<NodeMeta> Metas;
  /// Cursor state for the copy walk: the next previous-record entry of the
  /// in-flight splice range. The copy walk and the range share one
  /// post-order, so binding carried metadata to fresh nodes is a pointer
  /// comparison per rule node instead of a map lookup.
  uint32_t CarryCur = 0, CarryEnd = 0;
  uint32_t CarrySrcBegin = 0;
  size_t CarryDstBegin = 0;
};

} // namespace incremental
} // namespace llstar

#endif // LLSTAR_INCREMENTAL_REUSEMETADATA_H

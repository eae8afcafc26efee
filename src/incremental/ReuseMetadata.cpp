#include "incremental/ReuseMetadata.h"

#include <algorithm>
#include <cassert>

using namespace llstar;
using namespace llstar::incremental;

void ParseRecord::build() {
  size_t Cap = 16;
  while (Cap < Metas.size() * 2)
    Cap <<= 1;
  Slots.assign(Cap, {0, Npos});
  Mask = Cap - 1;
  for (uint32_t I = 0; I < Metas.size(); ++I) {
    const NodeMeta &M = Metas[I];
    uint64_t K = packKey(M.Rule, M.Prec, M.Start);
    size_t S = slotOf(K);
    while (Slots[S].second != Npos && Slots[S].first != K)
      S = (S + 1) & Mask;
    // Later entries win: exits run innermost-first, so an (impossible for
    // a terminating parse, but cheap to be safe about) nested duplicate
    // resolves to the outermost node — the one a reparse reaches first.
    Slots[S] = {K, I};
  }
}

void ParseRecord::clear() {
  Metas.clear();
  Slots.clear();
  Mask = 0;
}

void ReuseRecorder::enterRule(int32_t Rule, int32_t Precedence,
                              int64_t StartIndex) {
  Stack.push_back({Rule, Precedence, StartIndex, /*Reach=*/-1,
                   /*MetasMark=*/uint32_t(Metas.size()),
                   /*Opaque=*/false});
}

void ReuseRecorder::lookahead(int64_t MaxIndexInclusive) {
  // Lookahead reported while no recorded rule is active belongs to the
  // start rule's own body, which is never a reuse candidate.
  if (!Stack.empty() && Stack.back().Reach < MaxIndexInclusive)
    Stack.back().Reach = MaxIndexInclusive;
}

void ReuseRecorder::opaque() {
  if (!Stack.empty())
    Stack.back().Opaque = true;
}

void ReuseRecorder::exitRule(int32_t Rule, int64_t NextIndex,
                             ArenaParseTree *Node) {
  if (Stack.empty())
    return;
  Frame F = Stack.back();
  Stack.pop_back();
  assert(F.Rule == Rule && "engine enter/exit pairing broken");
  (void)Rule;
  F.Reach = std::max(F.Reach, NextIndex - 1);
  if (!Stack.empty()) {
    // A parent's outcome depends on everything its children examined.
    Frame &P = Stack.back();
    P.Reach = std::max(P.Reach, F.Reach);
    P.Opaque |= F.Opaque;
  }
  if (F.Opaque || NextIndex <= F.Start)
    return; // tainted, or consumed nothing — never worth splicing
  if (!Node)
    return;
  Metas.push_back(
      {F.Rule, F.Prec, F.Start, NextIndex, F.Reach, F.MetasMark, Node});
}

bool ReuseRecorder::tryReuse(int32_t Rule, int32_t Precedence,
                             int64_t StartIndex, Splice &Out) {
  if (!C.Prev)
    return false;
  // Most of the previous record usually carries forward; size for that
  // once instead of regrowing through thousands of splices.
  if (Metas.capacity() < C.Prev->Metas.size())
    Metas.reserve(C.Prev->Metas.size() + C.Prev->Metas.size() / 4);

  // Map the probe back to the previous parse's token coordinates. Note
  // that an edit replacing like with like has TokenDelta == 0, so Shift
  // alone cannot distinguish the two regions — the disjointness check
  // below branches on position, not on Shift.
  int64_t OldStart, Shift;
  bool BeforeDamage;
  if (StartIndex < C.InvalidLo) {
    OldStart = StartIndex;
    Shift = 0;
    BeforeDamage = true;
  } else if (StartIndex >= C.NewInvalidHi) {
    OldStart = StartIndex - C.TokenDelta;
    Shift = C.TokenDelta;
    BeforeDamage = false;
  } else {
    return false; // starts inside the damaged window
  }

  uint32_t MIdx = C.Prev->find(Rule, Precedence, OldStart);
  if (MIdx == ParseRecord::Npos)
    return false;
  const NodeMeta &M = C.Prev->Metas[MIdx];
  if (M.Rule != Rule || M.Prec != Precedence || M.Start != OldStart)
    return false; // packed-key collision

  // Soundness: the node's entire examined window [Start, Reach] must be
  // disjoint from the damaged token range. Before the damage that means
  // the reach stopped short of it; after, that the node started past it
  // (everything examined from there on sits in the retained suffix).
  if (BeforeDamage) {
    if (M.Reach >= C.InvalidLo)
      return false;
  } else {
    if (M.Start < C.OldInvalidHi)
      return false;
  }

  const size_t DstBase = Metas.size();
  CarryCur = M.SubtreeBegin;
  CarryEnd = MIdx;
  CarrySrcBegin = M.SubtreeBegin;
  CarryDstBegin = DstBase;
  size_t Copied = 0;
  ArenaParseTree *Copy = copyArena(*M.ArenaNode, Shift, Copied);
  if (!Copy) {
    // The aborted walk may have appended carried entries bound to nodes
    // the discarded copy owns; drop them or they dangle.
    Metas.resize(DstBase);
    return false;
  }
  Out.Node = Copy;
  Out.NextIndex = M.Next + Shift;
  Out.NumNodes = Copied;

  // The engine skips the child's body, so no exitRule will fold the
  // spliced subtree's window into the invoking rule; do it here, or a
  // later edit inside the subtree's overshoot could unsoundly reuse the
  // parent.
  if (!Stack.empty())
    Stack.back().Reach = std::max(Stack.back().Reach, M.Reach + Shift);
  return true;
}

ArenaParseTree *ReuseRecorder::copyArena(const ArenaParseTree &Old,
                                         int64_t Shift, size_t &Copied) {
  ++Copied;
  if (Old.isToken()) {
    // Clean nodes contain no error leaves (recovery poisons every
    // ancestor of one); refuse the splice rather than trust that.
    if (Old.isError())
      return nullptr;
    int64_t Idx = Old.tokenIndex() + Shift;
    if (Idx < 0 || size_t(Idx) >= C.NewTokens->size())
      return nullptr;
    return ArenaParseTree::tokenNode(*C.NewArena, Idx);
  }
  ArenaParseTree *N = ArenaParseTree::ruleNode(*C.NewArena, Old.ruleIndex());
  for (const ArenaParseTree *Ch = Old.firstChild(); Ch;
       Ch = Ch->nextSibling()) {
    ArenaParseTree *CC = copyArena(*Ch, Shift, Copied);
    if (!CC)
      return nullptr;
    N->addChild(CC);
  }
  // The copy walk and the carried range share one post-order, so the next
  // un-carried entry either binds this node or a node deeper in the walk.
  if (CarryCur <= CarryEnd && C.Prev->Metas[CarryCur].ArenaNode == &Old) {
    NodeMeta CM = C.Prev->Metas[CarryCur++];
    CM.Start += Shift;
    CM.Next += Shift;
    CM.Reach += Shift;
    CM.SubtreeBegin =
        uint32_t(CM.SubtreeBegin - CarrySrcBegin + CarryDstBegin);
    CM.ArenaNode = N;
    Metas.push_back(CM);
  }
  return N;
}

ParseRecord ReuseRecorder::take() {
  ParseRecord R;
  R.Metas = std::move(Metas);
  R.build();
  return R;
}

//===- perfbench/src/EditLoop.cpp - Incremental edit loop -----------------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//

#include "Engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace llstar;
using namespace llstar::incremental;

namespace perfbench {

namespace {
SessionOptions sessionOptions(const GrammarSet &G, const EditDoc &D) {
  SessionOptions O; // interpreter, heap trees, reuse, recovery
  O.StartRule = G.Sources[size_t(D.Grammar)].StartRule;
  return O;
}
} // namespace

void editReferences(const GrammarSet &G, std::vector<EditDoc> &Docs,
                    unsigned Threads) {
  // The texts after each step are built a chunk at a time, so memory
  // stays bounded however long the scripts are.
  constexpr size_t Chunk = 64;
  for (EditDoc &D : Docs) {
    std::string Text = D.Base;
    D.RefTree.assign(D.Script.size(), 0);
    D.RefDiags.assign(D.Script.size(), 0);
    for (size_t First = 0; First < D.Script.size(); First += Chunk) {
      std::vector<std::string> Texts;
      for (size_t K = First; K < std::min(First + Chunk, D.Script.size());
           ++K) {
        applyEditTo(Text, D.Script[K]);
        Texts.push_back(Text);
      }
      parallelFor(Texts.size(), Threads, [&](size_t I) {
        ScratchResult S = scratchParse(*G.Bundles[size_t(D.Grammar)],
                                       Texts[I], sessionOptions(G, D));
        D.RefTree[First + I] = hashText(S.TreeText);
        D.RefDiags[First + I] = hashText(S.DiagText);
      });
    }
  }
}

EditLoopRun runEditLoop(const GrammarSet &G, std::vector<EditDoc> &Docs,
                        double Seconds, Result &R, Tracer *T) {
  std::vector<std::unique_ptr<IncrementalSession>> Sessions;
  EditLoopRun Run;
  for (const EditDoc &D : Docs) {
    Sessions.push_back(std::make_unique<IncrementalSession>(
        G.Bundles[size_t(D.Grammar)], sessionOptions(G, D)));
    EditOutcome O = Sessions.back()->reset(D.Base);
    if (O.Error != EditScriptError::None) {
      std::fprintf(stderr, "perfbench: session reset failed\n");
      std::exit(2);
    }
    Sessions.back()->takeStatsDelta();
    Run.DocBytes += double(D.Base.size()) / double(Docs.size());
  }
  std::vector<size_t> Step(Docs.size(), 0);
  Run.DocEditMs.resize(Docs.size());
  auto T0 = Clock::now();
  while (secondsSince(T0) < Seconds) {
    for (size_t Di = 0; Di < Docs.size(); ++Di) {
      EditDoc &D = Docs[Di];
      IncrementalSession &S = *Sessions[Di];
      size_t K = Step[Di];
      Step[Di] = (K + 1) % D.Script.size();
      int64_t Req = Run.Edits;
      auto E0 = Clock::now();
      EditOutcome O = S.applyEdit(D.Script[K]);
      auto E1 = Clock::now();
      if (T)
        T->record("incremental", Req, E0, E1);
      Run.EditMs.push_back(msBetween(E0, E1));
      Run.DocEditMs[Di].push_back(Run.EditMs.back());
      ++Run.Edits;
      Run.TokensRelexed += O.TokensRelexed;
      Run.DecisionsReparsed += O.DecisionsReparsed;
      ParserStats Delta = S.takeStatsDelta();
      Run.Repairs +=
          Delta.TokensDeleted + Delta.TokensInserted + Delta.PanicSyncs;

      // The oracle: tree and diagnostics byte-identical to a from-scratch
      // parse of the same text (outside the timed edit).
      ++R.Attempted;
      uint64_t TreeHash, DiagHash;
      {
        auto C0 = Clock::now();
        TreeHash = hashText(S.treeText());
        DiagHash = hashText(S.diags().str());
        if (T)
          T->record("render", Req, C0, Clock::now());
      }
      if (O.Error != EditScriptError::None)
        R.fail("edit #" + std::to_string(K) + " of document " +
               std::to_string(Di) + ": rejected");
      else if (TreeHash != D.RefTree[K])
        R.fail("edit #" + std::to_string(K) + " of document " +
               std::to_string(Di) + ": tree differs from scratchParse");
      else if (DiagHash != D.RefDiags[K])
        R.fail("edit #" + std::to_string(K) + " of document " +
               std::to_string(Di) + ": diagnostics differ from scratchParse");
    }
  }
  return Run;
}

} // namespace perfbench

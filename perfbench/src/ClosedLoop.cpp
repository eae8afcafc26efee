//===- perfbench/src/ClosedLoop.cpp - Closed loop over a ParseService -----===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//

#include "Engine.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>

using namespace llstar;

namespace perfbench {

namespace {
struct Completion {
  size_t Index = 0;
  Clock::time_point Submitted, Done;
  ParseResult Result;
};
} // namespace

ClosedLoopRun runClosedLoop(ParseService &S, const GrammarSet &G,
                            const std::vector<Item> &Items,
                            const std::vector<Reference> &Refs,
                            size_t InFlight, double Seconds, Result &R,
                            Tracer *T) {
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Completion> Done;

  size_t Next = 0;
  auto Submit = [&] {
    size_t Index = Next++ % Items.size();
    const Item &It = Items[Index];
    ParseRequest Req;
    Req.Bundle = G.Bundles[size_t(It.Grammar)];
    Req.StartRule = G.Sources[size_t(It.Grammar)].StartRule;
    Req.Input = It.Text;
    Req.WantTree = true;
    Clock::time_point At = Clock::now();
    S.submitAsync(std::move(Req), [&, Index, At](ParseResult Res) {
      Completion C{Index, At, Clock::now(), std::move(Res)};
      std::lock_guard<std::mutex> Lock(Mu);
      Done.push_back(std::move(C));
      Cv.notify_one();
    });
  };

  ClosedLoopRun Run;
  Clock::time_point CycleStart;
  int64_t CycleBytes = 0;
  size_t CycleDocs = 0;
  auto T0 = Clock::now();
  CycleStart = T0;
  auto TEnd = T0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(Seconds));
  for (size_t I = 0; I < InFlight; ++I)
    Submit();
  size_t Outstanding = InFlight;
  while (Outstanding) {
    Completion C;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] { return !Done.empty(); });
      C = std::move(Done.front());
      Done.pop_front();
    }
    --Outstanding;
    bool InWindow = C.Done < TEnd;
    if (InWindow)
      Submit(), ++Outstanding;

    const ParseResult &Res = C.Result;
    size_t Bytes = Items[C.Index].Text.size();
    if (Res.Status == ParseStatus::QueueFull ||
        Res.Status == ParseStatus::ShuttingDown)
      ++Run.Rejected;
    checkParse(R, "bulk document", C.Index, Res.Status == ParseStatus::Ok,
               hashText(Res.TreeText), Refs[C.Index]);
    double Latency = msBetween(C.Submitted, C.Done);
    if (T)
      T->record("service", int64_t(C.Index), C.Submitted, C.Done);
    if (!InWindow)
      continue;
    CycleBytes += int64_t(Bytes);
    if (++CycleDocs == Items.size()) {
      Run.CycleMbS.push_back(double(CycleBytes) / 1e6 /
                             std::chrono::duration<double>(C.Done - CycleStart)
                                 .count());
      CycleStart = C.Done;
      CycleBytes = 0;
      CycleDocs = 0;
    }
    Run.LatencyMs.push_back(Latency);
    Run.ParseMs.push_back(Res.ParseMillis);
    Run.QueueWaitMs.push_back(std::max(0.0, Latency - Res.ParseMillis));
    Run.Completed.push_back({C.Index, Res.ParseMillis});
  }
  return Run;
}

} // namespace perfbench

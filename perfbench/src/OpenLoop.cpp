//===- perfbench/src/OpenLoop.cpp - Open loop over loopback TCP -----------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
//
// Requests are due on a fixed schedule (request i at T0 + i / Rate) and
// are timed from when they were due, so a stall in the daemon charges
// every request queued behind it. The generator's own lateness (send time
// minus due time) is reported beside the latencies as their validity check.
//
//===----------------------------------------------------------------------===//

#include "Engine.h"

#include "net/Daemon.h"
#include "net/LlstarClient.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

using namespace llstar;

namespace perfbench {

struct DaemonHost::Impl {
  explicit Impl(net::DaemonConfig C) : D(std::move(C)) {}
  net::Daemon D;
};

DaemonHost::DaemonHost(const GrammarSet &Grammars, bool UseCompiled) {
  net::DaemonConfig C;
  C.Service.UseCompiled = UseCompiled;
  P = std::make_unique<Impl>(std::move(C));
  std::string Err;
  if (!P->D.start(&Err)) {
    std::fprintf(stderr, "perfbench: daemon does not start: %s\n", Err.c_str());
    std::exit(2);
  }
  net::LlstarClient Client;
  if (!Client.connect("127.0.0.1", P->D.port(), &Err)) {
    std::fprintf(stderr, "perfbench: cannot connect: %s\n", Err.c_str());
    std::exit(2);
  }
  for (const GrammarSource &S : Grammars.Sources) {
    wire::LoadBundleReply Reply;
    if (!Client.loadBundle(S.Text, Reply, &Err)) {
      std::fprintf(stderr, "perfbench: LoadBundle %s failed: %s\n",
                   S.Name.c_str(), Err.c_str());
      std::exit(2);
    }
    Hashes.push_back(Reply.Hash);
  }
}

DaemonHost::~DaemonHost() {
  P->D.drain();
  P->D.stop();
}

uint16_t DaemonHost::port() const { return P->D.port(); }

namespace {

Clock::duration secondsToDuration(double S) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(S));
}

/// Sleeps until \p Due; the last stretch spins so sends land on time.
void waitUntil(Clock::time_point Due) {
  for (;;) {
    auto Now = Clock::now();
    if (Now >= Due)
      return;
    if (Due - Now > std::chrono::microseconds(200))
      std::this_thread::sleep_for(Due - Now - std::chrono::microseconds(100));
    else
      std::this_thread::yield();
  }
}

bool isRejection(uint8_t Status) {
  ParseStatus S = ParseStatus(Status);
  return S == ParseStatus::QueueFull || S == ParseStatus::ShuttingDown ||
         S == ParseStatus::DeadlineExceeded;
}

/// Per-request timestamps shared by a connection's sender and receiver.
struct Schedule {
  Schedule(size_t N, double Rate) : SentNs(N) {
    T0 = Clock::now() + std::chrono::milliseconds(5);
    Step = 1.0 / Rate;
  }
  Clock::time_point due(size_t I) const {
    return T0 + secondsToDuration(double(I) * Step);
  }
  Clock::time_point T0;
  double Step;
  std::vector<std::atomic<int64_t>> SentNs; ///< since T0
};

} // namespace

OpenLoopRun runOpenLoopDaemon(const DaemonHost &D, const GrammarSet &G,
                              const std::vector<Item> &Items,
                              const std::vector<Reference> &Refs, double Rate,
                              double Seconds, unsigned Conns, size_t Offset,
                              bool Count, Result &R, Tracer *T) {
  size_t N = std::max<size_t>(1, size_t(Rate * Seconds));
  Conns = std::max(1u, Conns);
  OpenLoopRun Run;
  Run.Rate = Rate;
  std::vector<net::LlstarClient> Clients(Conns);
  for (net::LlstarClient &C : Clients) {
    std::string Err;
    if (!C.connect("127.0.0.1", D.port(), &Err)) {
      std::fprintf(stderr, "perfbench: cannot connect: %s\n", Err.c_str());
      std::exit(2);
    }
    C.setRecvTimeout(std::chrono::seconds(60));
  }
  Schedule Sch(N, Rate);
  std::atomic<int64_t> Answered{0};
  std::mutex Mu; // guards Run's vectors and R
  std::vector<std::thread> Threads;
  for (unsigned Ci = 0; Ci < Conns; ++Ci) {
    net::LlstarClient &Client = Clients[Ci];
    Threads.emplace_back([&, Ci] { // sender
      for (size_t I = Ci; I < N; I += Conns) {
        waitUntil(Sch.due(I));
        const Item &It = Items[(Offset + I) % Items.size()];
        wire::ParseArgs Args;
        Args.BundleHash = D.hashOf(size_t(It.Grammar));
        Args.WantTree = true;
        Args.StartRule = G.Sources[size_t(It.Grammar)].StartRule;
        Args.Input = It.Text;
        Sch.SentNs[I].store((Clock::now() - Sch.T0).count(),
                            std::memory_order_release);
        std::string Err;
        if (!Client.submitParse(Args, false, &Err)) {
          std::fprintf(stderr, "perfbench: send failed: %s\n", Err.c_str());
          std::exit(2);
        }
      }
    });
    Threads.emplace_back([&, Ci] { // receiver
      size_t Expected = (N - Ci + Conns - 1) / Conns;
      for (size_t K = 0; K < Expected; ++K) {
        wire::Message M;
        std::string Err;
        if (!Client.waitAny(M, &Err)) {
          std::fprintf(stderr, "perfbench: receive failed: %s\n", Err.c_str());
          std::exit(2);
        }
        auto Now = Clock::now();
        size_t Seq = size_t(M.Hdr.RequestId - 1);
        size_t I = Seq * Conns + Ci;
        if (Seq >= Expected || I >= N) {
          std::fprintf(stderr, "perfbench: reply to unknown request\n");
          std::exit(2);
        }
        Answered.fetch_add(1, std::memory_order_relaxed);
        auto Sent = Sch.T0 + Clock::duration(
                                 Sch.SentNs[I].load(std::memory_order_acquire));
        auto Due = Sch.due(I);
        bool IsParse = M.Hdr.Op == wire::Opcode::ParseReply;
        uint8_t Status =
            IsParse ? M.Parse.Status : uint8_t(ParseStatus::BadRequest);
        uint64_t Hash = IsParse ? hashText(M.Parse.TreeText) : 0;
        size_t Index = (Offset + I) % Items.size();
        if (T) {
          T->record("loadgen.late", int64_t(I), Due, Sent);
          T->record("net.client", int64_t(I), Sent, Now);
        }
        std::lock_guard<std::mutex> Lock(Mu);
        if (isRejection(Status)) {
          ++Run.Rejected;
          if (Count) {
            ++R.Attempted;
            R.fail("daemon request #" + std::to_string(I) + ": rejected (" +
                   statusName(ParseStatus(Status)) + ")");
          }
          continue;
        }
        bool Ok = Status == uint8_t(ParseStatus::Ok) &&
                  Hash == Refs[Index].TreeHash;
        if (!Ok)
          ++Run.Mismatched;
        if (Count || !Ok)
          checkParse(R, "daemon request", Index,
                     Status == uint8_t(ParseStatus::Ok), Hash, Refs[Index]);
        Run.LatencyMs.push_back(msBetween(Due, Now));
        Run.LateMs.push_back(msBetween(Due, Sent));
        Run.ParseMs.push_back(M.Parse.ParseMillis);
        Run.ClientMs.push_back(msBetween(Sent, Now) - M.Parse.ParseMillis);
      }
    });
  }
  // Backlog when the schedule ends: what a growing queue leaves behind.
  std::this_thread::sleep_until(Sch.due(N - 1));
  Run.BacklogAtEnd = int64_t(N) - Answered.load();
  for (std::thread &Th : Threads)
    Th.join();
  Run.Sent = int64_t(N);
  Run.Answered = Answered.load();
  return Run;
}

OpenLoopRun runOpenLoopService(ParseService &S, const GrammarSet &G,
                               const std::vector<Item> &Items,
                               const std::vector<Reference> &Refs,
                               double Rate, double Seconds, size_t Offset,
                               Result &R) {
  size_t N = std::max<size_t>(1, size_t(Rate * Seconds));
  OpenLoopRun Run;
  Run.Rate = Rate;
  Schedule Sch(N, Rate);
  std::mutex Mu;
  std::condition_variable Cv;
  size_t Finished = 0;
  for (size_t I = 0; I < N; ++I) {
    auto Due = Sch.due(I);
    waitUntil(Due);
    size_t Index = (Offset + I) % Items.size();
    const Item &It = Items[Index];
    ParseRequest Req;
    Req.Bundle = G.Bundles[size_t(It.Grammar)];
    Req.StartRule = G.Sources[size_t(It.Grammar)].StartRule;
    Req.Input = It.Text;
    Req.WantTree = true;
    auto Sent = Clock::now();
    S.submitAsync(std::move(Req), [&, Index, Due, Sent](ParseResult Res) {
      auto Now = Clock::now();
      uint64_t Hash = hashText(Res.TreeText);
      std::lock_guard<std::mutex> Lock(Mu);
      if (isRejection(uint8_t(Res.Status))) {
        ++Run.Rejected;
        ++R.Attempted;
        R.fail("service request #" + std::to_string(Index) + ": rejected");
      } else {
        checkParse(R, "service request", Index, Res.Status == ParseStatus::Ok,
                   Hash, Refs[Index]);
        Run.LatencyMs.push_back(msBetween(Due, Now));
        Run.LateMs.push_back(msBetween(Due, Sent));
        Run.ParseMs.push_back(Res.ParseMillis);
        Run.QueueWaitMs.push_back(
            std::max(0.0, msBetween(Sent, Now) - Res.ParseMillis));
      }
      ++Finished;
      Cv.notify_one();
    });
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Run.BacklogAtEnd = int64_t(N - Finished);
  }
  std::unique_lock<std::mutex> Lock(Mu);
  Cv.wait(Lock, [&] { return Finished == N; });
  Run.Sent = Run.Answered = int64_t(N);
  return Run;
}

} // namespace perfbench

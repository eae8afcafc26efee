#include "service/ParseService.h"

#include "compiled/CompiledParser.h"
#include "lexer/TokenStream.h"
#include "runtime/LLStarParser.h"

#include <algorithm>

using namespace llstar;

const char *llstar::statusName(ParseStatus S) {
  switch (S) {
  case ParseStatus::Ok:
    return "ok";
  case ParseStatus::SyntaxError:
    return "syntax-error";
  case ParseStatus::Recovered:
    return "recovered";
  case ParseStatus::LexError:
    return "lex-error";
  case ParseStatus::DeadlineExceeded:
    return "deadline-exceeded";
  case ParseStatus::TooManyTokens:
    return "too-many-tokens";
  case ParseStatus::QueueFull:
    return "queue-full";
  case ParseStatus::ShuttingDown:
    return "shutting-down";
  case ParseStatus::BadRequest:
    return "bad-request";
  }
  return "?";
}

std::string ServiceMetrics::json(bool IncludeDecisions,
                                 const std::vector<DecisionKey> *Keys) const {
  std::string Out = "{";
  auto Num = [&Out](const char *Key, int64_t V, bool Comma = true) {
    Out += '"';
    Out += Key;
    Out += "\":";
    Out += std::to_string(V);
    if (Comma)
      Out += ',';
  };
  Num("threads", Threads);
  Num("submitted", Submitted);
  Num("completed", Completed);
  Num("ok", Ok);
  Num("recovered", Recovered);
  Num("syntaxErrors", SyntaxErrors);
  Num("lexErrors", LexErrors);
  Num("rejectedQueueFull", RejectedQueueFull);
  Num("rejectedTooManyTokens", RejectedTooManyTokens);
  Num("deadlineExceeded", DeadlineExceeded);
  Num("rejectedShutdown", RejectedShutdown);
  Num("tokensParsed", TokensParsed);
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "\"parseMillis\":%.3f,", ParseMillis);
  Out += Buf;
  Out += "\"parser\":";
  Out += Parser.json(IncludeDecisions, Keys);
  Out += "}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

ParseService::ParseService(ServiceConfig Config) : Config(Config) {
  int N = Config.Threads;
  if (N <= 0)
    N = std::max(1u, std::thread::hardware_concurrency());
  this->Config.Threads = N;
  for (int I = 0; I < N; ++I)
    WorkerStates.push_back(std::make_unique<WorkerState>());
  if (Config.AutoStart)
    start();
}

ParseService::~ParseService() { shutdown(); }

void ParseService::start() {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (Started || Stopping)
      return;
    Started = true;
  }
  for (auto &State : WorkerStates)
    Workers.emplace_back([this, S = State.get()] { workerLoop(*S); });
}

void ParseService::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (Stopping)
      return;
    Stopping = true;
  }
  QueueCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();

  // With no workers ever started, queued jobs still need their futures
  // resolved; without this a never-started service would leak broken
  // promises.
  std::deque<Job> Leftover;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Leftover.swap(Queue);
  }
  for (Job &J : Leftover) {
    ParseResult R;
    R.Id = J.Req.Id;
    R.Status = ParseStatus::ShuttingDown;
    J.Done(std::move(R));
    std::lock_guard<std::mutex> Lock(CountersMu);
    ++ShutdownDrained;
  }
  // A drain() racing with shutdown may be waiting on the queue we just
  // resolved by hand.
  IdleCv.notify_all();
}

void ParseService::drain() {
  // Queued work can only drain through workers; a never-started service
  // (AutoStart=false) would otherwise wait forever.
  start();
  std::unique_lock<std::mutex> Lock(QueueMu);
  IdleCv.wait(Lock, [this] { return Queue.empty() && Active == 0; });
}

size_t ParseService::queueDepth() const {
  std::lock_guard<std::mutex> Lock(QueueMu);
  return Queue.size();
}

//===----------------------------------------------------------------------===//
// Submission and backpressure
//===----------------------------------------------------------------------===//

std::future<ParseResult> ParseService::submit(ParseRequest Req) {
  // std::function must be copyable, so the move-only promise rides behind
  // a shared_ptr.
  auto Promise = std::make_shared<std::promise<ParseResult>>();
  std::future<ParseResult> Future = Promise->get_future();
  submitAsync(std::move(Req), [Promise](ParseResult R) {
    Promise->set_value(std::move(R));
  });
  return Future;
}

void ParseService::submitAsync(ParseRequest Req, ParseCallback Done) {
  Job J;
  std::chrono::milliseconds Deadline =
      Req.Deadline.count() > 0 ? Req.Deadline : Config.DefaultDeadline;
  if (Deadline.count() > 0) {
    J.HasDeadline = true;
    J.DeadlineAt = std::chrono::steady_clock::now() + Deadline;
  }
  J.Req = std::move(Req);
  J.Done = std::move(Done);

  ParseStatus Reject;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    ++Submitted;
    if (Stopping) {
      Reject = ParseStatus::ShuttingDown;
      ++RejectedShutdown;
    } else if (Queue.size() >= Config.QueueCapacity) {
      Reject = ParseStatus::QueueFull;
      ++RejectedQueueFull;
    } else {
      Queue.push_back(std::move(J));
      QueueCv.notify_one();
      return;
    }
  }

  ParseResult R;
  R.Id = J.Req.Id;
  R.Status = Reject;
  J.Done(std::move(R));
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

void ParseService::workerLoop(WorkerState &State) {
  while (true) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      J = std::move(Queue.front());
      Queue.pop_front();
      ++Active; // drain() must wait for this job's callback too
    }
    ParseResult R = runJob(J, State);

    {
      std::lock_guard<std::mutex> Lock(CountersMu);
      switch (R.Status) {
      case ParseStatus::Ok:
        ++Ok;
        break;
      case ParseStatus::Recovered:
        ++Recovered;
        break;
      case ParseStatus::SyntaxError:
        ++SyntaxErrors;
        break;
      case ParseStatus::LexError:
        ++LexErrors;
        break;
      case ParseStatus::TooManyTokens:
        ++RejectedTooManyTokens;
        break;
      case ParseStatus::DeadlineExceeded:
        ++DeadlineExceeded;
        break;
      default:
        break;
      }
    }
    J.Done(std::move(R));
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      --Active;
      if (Active == 0 && Queue.empty())
        IdleCv.notify_all();
    }
  }
}

ParseResult ParseService::runJob(Job &J, WorkerState &State) {
  ParseResult R;
  R.Id = J.Req.Id;

  if (!J.Req.Bundle) {
    R.Status = ParseStatus::BadRequest;
    R.DiagText = "error: request carries no grammar bundle\n";
    return R;
  }
  const AnalyzedGrammar &AG = J.Req.Bundle->analyzed();

  if (!J.Req.StartRule.empty() &&
      AG.grammar().findRule(J.Req.StartRule) < 0) {
    R.Status = ParseStatus::BadRequest;
    R.DiagText = "error: unknown start rule '" + J.Req.StartRule + "'\n";
    return R;
  }

  if (J.HasDeadline && std::chrono::steady_clock::now() > J.DeadlineAt) {
    R.Status = ParseStatus::DeadlineExceeded;
    R.DiagText = "error: deadline expired while queued\n";
    return R;
  }

  // Each request gets its own DiagnosticEngine: engines accumulate state
  // during parsing and must never be shared across concurrent parses.
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = J.Req.Bundle->tokenize(J.Req.Input, Diags);
  R.NumTokens = int64_t(Tokens.size()) - 1; // exclude EOF
  if (Diags.hasErrors()) {
    R.Status = ParseStatus::LexError;
    R.DiagText = Diags.str();
    return R;
  }
  if (Config.MaxTokens > 0 && R.NumTokens > Config.MaxTokens) {
    R.Status = ParseStatus::TooManyTokens;
    R.DiagText = "error: input has " + std::to_string(R.NumTokens) +
                 " tokens, limit is " + std::to_string(Config.MaxTokens) +
                 "\n";
    return R;
  }

  TokenStream Stream(std::move(Tokens));
  ParserOptions Opts;
  Opts.Memoize = AG.grammar().Options.Memoize;
  Opts.BuildTree = J.Req.WantTree;
  Opts.CollectStats = Config.CollectStats;
  Opts.Recover = J.Req.Recover;
  Opts.TreeArena = &State.TreeArena;
  if (J.HasDeadline)
    Opts.Deadline = J.DeadlineAt;

  auto Start = std::chrono::steady_clock::now();
  // Post-parse handling shared by both engines; they expose the same parse
  // surface (ok/deadlineExpired/arenaTree/stats) with identical semantics.
  auto Finish = [&](auto &P) {
    double Millis = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count();

    if (P.deadlineExpired())
      R.Status = ParseStatus::DeadlineExceeded;
    else if (P.ok())
      R.Status = ParseStatus::Ok;
    else
      R.Status =
          J.Req.Recover ? ParseStatus::Recovered : ParseStatus::SyntaxError;
    R.DiagText = Diags.str();
    if (R.Status == ParseStatus::Recovered ||
        R.Status == ParseStatus::SyntaxError)
      for (Diagnostic &D : Diags.sorted())
        if (D.Severity == DiagSeverity::Error)
          R.Errors.push_back(std::move(D));
    R.ParseMillis = Millis;
    if (J.Req.WantTree && P.arenaTree()) {
      R.TreeText = P.arenaTree()->str(AG.grammar(), Stream);
      R.TreeNodes = int64_t(P.treeNodes());
    }
    // The tree (and every node allocated for it) dies here, in O(1).
    State.TreeArena.reset();

    {
      std::lock_guard<std::mutex> Lock(State.Mu);
      State.Stats.merge(P.stats());
      State.TokensParsed += R.NumTokens;
      State.ParseMillis += Millis;
    }
    return R;
  };

  if (Config.UseCompiled) {
    const compiled::CompiledResolution &CT = J.Req.Bundle->compiledTables();
    compiled::CompiledParser P(AG, CT.View, Stream, /*Env=*/nullptr, Diags,
                               Opts, CT.Native, CT.Rules);
    P.parse(J.Req.StartRule);
    return Finish(P);
  }
  LLStarParser P(AG, Stream, /*Env=*/nullptr, Diags, Opts);
  P.parse(J.Req.StartRule);
  return Finish(P);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

ServiceMetrics ParseService::metrics() const {
  ServiceMetrics M;
  M.Threads = int(WorkerStates.size());
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    M.Submitted = Submitted;
    M.RejectedQueueFull = RejectedQueueFull;
    M.RejectedShutdown = RejectedShutdown;
  }
  {
    std::lock_guard<std::mutex> Lock(CountersMu);
    M.Ok = Ok;
    M.Recovered = Recovered;
    M.SyntaxErrors = SyntaxErrors;
    M.LexErrors = LexErrors;
    M.RejectedTooManyTokens = RejectedTooManyTokens;
    M.DeadlineExceeded = DeadlineExceeded;
    M.RejectedShutdown += ShutdownDrained;
  }
  M.Completed = M.Ok + M.Recovered + M.SyntaxErrors + M.LexErrors;
  for (const auto &State : WorkerStates) {
    std::lock_guard<std::mutex> Lock(State->Mu);
    M.Parser.merge(State->Stats);
    M.TokensParsed += State->TokensParsed;
    M.ParseMillis += State->ParseMillis;
  }
  {
    std::lock_guard<std::mutex> Lock(ExternalMu);
    M.Parser.merge(ExternalStats);
  }
  return M;
}

void ParseService::recordExternalStats(const ParserStats &S) {
  std::lock_guard<std::mutex> Lock(ExternalMu);
  ExternalStats.merge(S);
}

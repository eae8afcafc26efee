#include "net/Daemon.h"

#include "incremental/IncrementalSession.h"
#include "support/StringUtils.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <unordered_set>

using namespace llstar;
using namespace llstar::net;
using namespace llstar::wire;

//===----------------------------------------------------------------------===//
// Connection state
//===----------------------------------------------------------------------===//

/// One accepted socket. The reader thread decodes requests and submits
/// them; service workers (or the reader, for inline rejections) enqueue
/// replies into Outbox; the writer thread flushes Outbox to the socket.
/// Replies therefore leave in completion order, not submission order —
/// the request id is the client's correlation key.
struct Daemon::Connection {
  int Fd = -1;
  std::thread Reader, Writer;
  std::atomic<bool> ReaderExited{false};
  std::atomic<bool> WriterExited{false};

  std::mutex Mu;
  std::condition_variable OutCv;      ///< writer wakeups
  std::condition_variable InFlightCv; ///< teardown waits for replies
  std::deque<std::string> Outbox;     ///< framed bytes awaiting write
  std::unordered_set<uint64_t> InFlight; ///< parse ids awaiting replies
  bool ReadDone = false; ///< reader finished and every reply is enqueued
  bool Dead = false;     ///< socket unusable; further output is dropped

  /// Incremental edit sessions, keyed by the client-chosen session id.
  /// Touched only by this connection's reader thread (Edit requests run
  /// synchronously there, like LoadBundle), so no lock is needed; the
  /// sessions die with the connection.
  std::unordered_map<uint32_t, std::unique_ptr<incremental::IncrementalSession>>
      EditSessions;

  /// Queues already-framed bytes for the writer (dropped once Dead).
  void enqueue(std::string Bytes) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Dead)
        return;
      Outbox.push_back(std::move(Bytes));
    }
    OutCv.notify_one();
  }
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Daemon::Daemon(DaemonConfig Config)
    : Config(Config), Service(Config.Service) {}

Daemon::~Daemon() { stop(); }

bool Daemon::start(std::string *Error) {
  auto Fail = [&](const std::string &What) {
    if (Error)
      *Error = What + ": " + std::strerror(errno);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };

  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Fail("socket");
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Config.Port);
  if (::inet_pton(AF_INET, Config.BindAddress.c_str(), &Addr.sin_addr) != 1) {
    if (Error)
      *Error = "bad bind address '" + Config.BindAddress + "'";
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind");
  if (::listen(ListenFd, 128) < 0)
    return Fail("listen");

  socklen_t Len = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) < 0)
    return Fail("getsockname");
  BoundPort = ntohs(Addr.sin_port);

  Acceptor = std::thread([this] { acceptLoop(); });
  AcceptorStarted = true;
  return true;
}

void Daemon::drain() {
  // Refuse new work first so the quiesced state is stable, then wait for
  // everything already accepted — including the flush of its replies
  // into per-connection outboxes (ParseService::drain waits for
  // callbacks, and the callbacks enqueue before releasing their id).
  Draining.store(true);
  Service.drain();
}

void Daemon::stop() {
  if (Stopped.exchange(true))
    return;

  // Unblock and join the acceptor: shutdown() on a listening socket makes
  // a blocked accept() return.
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  if (AcceptorStarted)
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }

  std::vector<std::shared_ptr<Connection>> Local;
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    Local = Conns;
  }
  // Stop the readers (blocked recv returns 0), then resolve everything
  // still queued in the service — readers wait for their in-flight
  // replies before exiting, and those replies can only come from the
  // service's workers or its shutdown path.
  for (const auto &Conn : Local)
    ::shutdown(Conn->Fd, SHUT_RDWR);
  Service.shutdown();
  for (const auto &Conn : Local) {
    if (Conn->Reader.joinable())
      Conn->Reader.join();
    if (Conn->Writer.joinable())
      Conn->Writer.join();
    ::close(Conn->Fd);
  }
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    Conns.clear();
  }
}

void Daemon::bumpCounter(int64_t DaemonCounters::*Field) {
  std::lock_guard<std::mutex> Lock(CountersMu);
  Counters.*Field += 1;
}

DaemonCounters Daemon::counters() const {
  std::lock_guard<std::mutex> Lock(CountersMu);
  return Counters;
}

//===----------------------------------------------------------------------===//
// Bundles
//===----------------------------------------------------------------------===//

std::shared_ptr<const GrammarBundle>
Daemon::loadBundleBytes(std::string_view Bytes, DiagnosticEngine &Diags,
                        bool *WasCached) {
  // Two first loads of the same bytes racing each other may both report a
  // miss; the cache still keeps one bundle.
  bool Known = Cache.find(hashBytes(Bytes)) != nullptr;
  auto Bundle = Cache.get(Bytes, Diags);
  if (!Bundle)
    return nullptr;
  if (WasCached)
    *WasCached = Known;
  // Hot reload: changed content arrives under a new hash and becomes the
  // new default; requests already in flight keep the old bundle alive
  // through their shared_ptr.
  std::lock_guard<std::mutex> Lock(DefaultMu);
  Default = Bundle;
  return Bundle;
}

std::shared_ptr<const GrammarBundle> Daemon::findBundle(uint64_t Hash) {
  if (Hash != 0)
    return Cache.find(Hash);
  std::lock_guard<std::mutex> Lock(DefaultMu);
  return Default;
}

//===----------------------------------------------------------------------===//
// Accepting
//===----------------------------------------------------------------------===//

void Daemon::acceptLoop() {
  while (true) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // listener shut down (stop()) or fatally broken
    }
    if (Stopped.load() || Draining.load()) {
      ::close(Fd);
      continue;
    }
    reapFinishedConnections();
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    {
      std::lock_guard<std::mutex> Lock(ConnsMu);
      Conns.push_back(Conn);
    }
    bumpCounter(&DaemonCounters::ConnectionsAccepted);
    Conn->Reader = std::thread([this, Conn] { readerLoop(Conn); });
    Conn->Writer = std::thread([this, Conn] { writerLoop(Conn); });
  }
}

void Daemon::reapFinishedConnections() {
  std::vector<std::shared_ptr<Connection>> Done;
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    for (size_t I = 0; I < Conns.size();) {
      if (Conns[I]->ReaderExited.load() && Conns[I]->WriterExited.load()) {
        Done.push_back(std::move(Conns[I]));
        Conns[I] = std::move(Conns.back());
        Conns.pop_back();
      } else {
        ++I;
      }
    }
  }
  for (const auto &Conn : Done) {
    Conn->Reader.join();
    Conn->Writer.join();
    ::close(Conn->Fd);
  }
}

//===----------------------------------------------------------------------===//
// Per-connection I/O
//===----------------------------------------------------------------------===//

void Daemon::writerLoop(std::shared_ptr<Connection> Conn) {
  while (true) {
    std::string Chunk;
    {
      std::unique_lock<std::mutex> Lock(Conn->Mu);
      Conn->OutCv.wait(Lock, [&] {
        return !Conn->Outbox.empty() || Conn->ReadDone || Conn->Dead;
      });
      if (Conn->Outbox.empty()) {
        // ReadDone guarantees no further replies will be enqueued.
        break;
      }
      Chunk = std::move(Conn->Outbox.front());
      Conn->Outbox.pop_front();
    }
    size_t Off = 0;
    while (Off < Chunk.size()) {
      ssize_t N = ::send(Conn->Fd, Chunk.data() + Off, Chunk.size() - Off,
                         MSG_NOSIGNAL);
      if (N <= 0) {
        std::lock_guard<std::mutex> Lock(Conn->Mu);
        Conn->Dead = true;
        Conn->Outbox.clear();
        Conn->InFlightCv.notify_all();
        Off = Chunk.size();
      } else {
        Off += size_t(N);
      }
    }
    {
      std::lock_guard<std::mutex> Lock(Conn->Mu);
      if (Conn->Dead)
        break;
    }
  }
  // The writer owns the send side: once it exits no more bytes can ever go
  // out, so tell the peer with a FIN now. Without this a client on a dead
  // or hung-up connection would block until its receive timeout, because
  // the fd itself is only closed when the acceptor reaps the connection.
  ::shutdown(Conn->Fd, SHUT_WR);
  Conn->WriterExited.store(true);
  Conn->OutCv.notify_all();
}

void Daemon::readerLoop(std::shared_ptr<Connection> Conn) {
  RecordReassembler Ra(Config.MaxRecordBytes, Config.MaxFragmentBytes);
  char Buf[64 * 1024];
  bool StreamOk = true;
  while (StreamOk) {
    ssize_t N = ::recv(Conn->Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    Ra.feed(std::string_view(Buf, size_t(N)));
    std::string Record;
    while (StreamOk) {
      RecordReassembler::Status St = Ra.next(Record);
      if (St == RecordReassembler::Status::Record) {
        handleRecord(Conn, Record);
        {
          std::lock_guard<std::mutex> Lock(Conn->Mu);
          if (Conn->Dead)
            StreamOk = false;
        }
      } else if (St == RecordReassembler::Status::Error) {
        // Framing violations are unrecoverable: the stream position is
        // lost. Report and stop reading; pending replies still flush.
        bumpCounter(&DaemonCounters::ProtocolErrors);
        Conn->enqueue([&] {
          std::string Out;
          frameRecord(Out,
                      encodeErrorReply(0, WireError::FrameTooLarge,
                                       Ra.error()),
                      Config.MaxFragmentBytes);
          return Out;
        }());
        StreamOk = false;
      } else {
        break; // NeedMore
      }
    }
  }
  // Let every accepted request finish and enqueue its reply before
  // declaring the outbox complete; the writer drains it and exits.
  {
    std::unique_lock<std::mutex> Lock(Conn->Mu);
    Conn->InFlightCv.wait(
        Lock, [&] { return Conn->InFlight.empty() || Conn->Dead; });
    Conn->ReadDone = true;
  }
  Conn->OutCv.notify_all();
  Conn->ReaderExited.store(true);
}

//===----------------------------------------------------------------------===//
// Request dispatch
//===----------------------------------------------------------------------===//

void Daemon::handleRecord(const std::shared_ptr<Connection> &Conn,
                          std::string_view Record) {
  auto Reply = [&](std::string RecordBytes) {
    std::string Out;
    frameRecord(Out, RecordBytes, Config.MaxFragmentBytes);
    Conn->enqueue(std::move(Out));
  };

  ByteReader R(Record);
  MessageHeader Hdr;
  WireError HdrErr = decodeHeader(R, Hdr);
  if (HdrErr != WireError::None) {
    bumpCounter(&DaemonCounters::ProtocolErrors);
    switch (HdrErr) {
    case WireError::BadMagic:
      // Not our protocol at all: answer once and hang up.
      Reply(encodeErrorReply(0, HdrErr, "expected LLSP magic"));
      {
        std::lock_guard<std::mutex> Lock(Conn->Mu);
        Conn->Dead = true; // stops the reader; outbox already has the reply
      }
      // The writer must still flush the reply before the Dead flag drops
      // output — re-enqueue is impossible now, but the reply above was
      // queued before Dead was set, and the writer drains the queue it
      // already holds. Close the read side so the client sees EOF.
      ::shutdown(Conn->Fd, SHUT_RD);
      return;
    case WireError::BadVersion:
      // Version negotiation: name the version this server speaks; the
      // connection stays usable for correctly-versioned requests.
      Reply(encodeErrorReply(Hdr.RequestId, HdrErr,
                             "server speaks protocol version " +
                                 std::to_string(ProtocolVersion)));
      return;
    default:
      Reply(encodeErrorReply(Hdr.RequestId, HdrErr, "unknown opcode"));
      return;
    }
  }

  bumpCounter(&DaemonCounters::RequestsDecoded);

  // While draining, only observation (Stats) and further Drain requests
  // are served; everything else is refused deterministically.
  if (Draining.load() && Hdr.Op != Opcode::Stats && Hdr.Op != Opcode::Drain) {
    bumpCounter(&DaemonCounters::RejectedDraining);
    Reply(encodeErrorReply(Hdr.RequestId, WireError::Draining,
                           "daemon is draining"));
    return;
  }

  switch (Hdr.Op) {
  case Opcode::Parse:
  case Opcode::ParseRecover:
    handleParse(Conn, Hdr, R, Hdr.Op == Opcode::ParseRecover);
    return;
  case Opcode::LoadBundle:
    handleLoadBundle(Conn, Hdr, R);
    return;
  case Opcode::Edit:
    handleEdit(Conn, Hdr, R);
    return;
  case Opcode::Stats: {
    if (!decodeStatsArgs(R)) {
      bumpCounter(&DaemonCounters::ProtocolErrors);
      Reply(encodeErrorReply(Hdr.RequestId, WireError::BadBody,
                             "stats takes no body"));
      return;
    }
    bool IncludeDecisions = Hdr.Flags & FlagIncludeDecisions;
    Reply(encodeStatsReply(Hdr.RequestId,
                           Service.metrics().json(IncludeDecisions)));
    return;
  }
  case Opcode::Drain: {
    if (!decodeDrainBody(R)) {
      bumpCounter(&DaemonCounters::ProtocolErrors);
      Reply(encodeErrorReply(Hdr.RequestId, WireError::BadBody,
                             "drain takes no body"));
      return;
    }
    // Every parse accepted before this record has its reply enqueued by
    // the time drain() returns, so the DrainReply is ordered after them
    // on every connection's outbox.
    drain();
    Reply(encodeDrainReply(Hdr.RequestId));
    return;
  }
  default:
    // Reply opcodes sent by a confused client.
    bumpCounter(&DaemonCounters::ProtocolErrors);
    Reply(encodeErrorReply(Hdr.RequestId, WireError::BadOpcode,
                           "reply opcode in a request"));
    return;
  }
}

void Daemon::handleParse(const std::shared_ptr<Connection> &Conn,
                         const MessageHeader &Hdr, ByteReader &Body,
                         bool Recover) {
  auto Reply = [&](std::string RecordBytes) {
    std::string Out;
    frameRecord(Out, RecordBytes, Config.MaxFragmentBytes);
    Conn->enqueue(std::move(Out));
  };

  ParseArgs Args;
  if (!decodeParseArgs(Body, Hdr.Flags, Args)) {
    bumpCounter(&DaemonCounters::ProtocolErrors);
    Reply(encodeErrorReply(Hdr.RequestId, WireError::BadBody,
                           "malformed parse arguments"));
    return;
  }

  const uint64_t Id = Hdr.RequestId;
  enum { Accept, Duplicate, OverCap } Decision;
  {
    std::lock_guard<std::mutex> Lock(Conn->Mu);
    if (!Conn->InFlight.insert(Id).second) {
      Decision = Duplicate;
    } else if (Conn->InFlight.size() > Config.MaxInFlightPerConn) {
      Conn->InFlight.erase(Id);
      Decision = OverCap;
    } else {
      Decision = Accept;
    }
  }
  if (Decision == Duplicate) {
    bumpCounter(&DaemonCounters::ProtocolErrors);
    Reply(encodeErrorReply(Id, WireError::DuplicateRequestId,
                           "request id already in flight"));
    return;
  }
  if (Decision == OverCap) {
    // Per-connection backpressure, same shape as the service's bounded
    // queue: a well-formed ParseReply carrying QueueFull.
    bumpCounter(&DaemonCounters::RejectedPipelineCap);
    ParseReply Over;
    Over.Status = uint8_t(ParseStatus::QueueFull);
    Over.DiagText = "error: connection pipeline limit of " +
                    std::to_string(Config.MaxInFlightPerConn) +
                    " in-flight requests reached\n";
    Reply(encodeParseReply(Id, Over, Recover));
    return;
  }

  std::shared_ptr<const GrammarBundle> Bundle = findBundle(Args.BundleHash);
  if (!Bundle) {
    {
      std::lock_guard<std::mutex> Lock(Conn->Mu);
      Conn->InFlight.erase(Id);
    }
    Conn->InFlightCv.notify_all();
    Reply(encodeErrorReply(Id, WireError::UnknownBundle,
                           Args.BundleHash == 0
                               ? "no bundle loaded yet"
                               : "no bundle with hash " +
                                     std::to_string(Args.BundleHash)));
    return;
  }

  ParseRequest Req;
  Req.Bundle = std::move(Bundle);
  Req.Id = std::to_string(Id);
  Req.Input = std::move(Args.Input);
  Req.StartRule = std::move(Args.StartRule);
  Req.Deadline = std::chrono::milliseconds(Args.DeadlineMs);
  Req.WantTree = Args.WantTree;
  Req.Recover = Recover;

  size_t MaxFragment = Config.MaxFragmentBytes;
  Service.submitAsync(std::move(Req), [Conn, Id, Recover,
                                       MaxFragment](ParseResult R) {
    // Enqueue before releasing the id: the reader's teardown wait (and
    // drain()) treat an empty InFlight set as "all replies queued".
    std::string Out;
    frameRecord(Out, encodeParseReply(Id, makeParseReply(R), Recover),
                MaxFragment);
    Conn->enqueue(std::move(Out));
    {
      std::lock_guard<std::mutex> Lock(Conn->Mu);
      Conn->InFlight.erase(Id);
    }
    Conn->InFlightCv.notify_all();
  });
}

void Daemon::handleEdit(const std::shared_ptr<Connection> &Conn,
                        const MessageHeader &Hdr, ByteReader &Body) {
  auto Reply = [&](std::string RecordBytes) {
    std::string Out;
    frameRecord(Out, RecordBytes, Config.MaxFragmentBytes);
    Conn->enqueue(std::move(Out));
  };

  EditArgs Args;
  if (!decodeEditArgs(Body, Hdr.Flags, Args)) {
    bumpCounter(&DaemonCounters::ProtocolErrors);
    Reply(encodeErrorReply(Hdr.RequestId, WireError::BadBody,
                           "malformed edit arguments"));
    return;
  }

  // Like LoadBundle, Edit runs synchronously on the reader thread: a
  // session's edits are inherently ordered, and the session itself is
  // reader-thread-local state.
  if (Args.Action == EditActionClose) {
    Conn->EditSessions.erase(Args.SessionId);
    EditReplyBody Out;
    Out.Status = uint8_t(ParseStatus::Ok);
    Reply(encodeEditReply(Hdr.RequestId, Out));
    return;
  }

  incremental::IncrementalSession *Session = nullptr;
  if (Args.Action == EditActionReset) {
    auto Bundle = findBundle(Args.BundleHash);
    if (!Bundle) {
      Reply(encodeErrorReply(Hdr.RequestId, WireError::UnknownBundle,
                             Args.BundleHash == 0
                                 ? "no bundle loaded yet"
                                 : "no bundle with hash " +
                                       std::to_string(Args.BundleHash)));
      return;
    }
    incremental::SessionOptions SO;
    SO.Recover = Args.Mode & EditModeRecover;
    SO.UseCompiled = Args.Mode & EditModeCompiled;
    SO.Reuse = !(Args.Mode & EditModeNoReuse);
    SO.StartRule = Args.StartRule;
    auto Fresh = std::make_unique<incremental::IncrementalSession>(
        std::move(Bundle), std::move(SO));
    Session = Fresh.get();
    Conn->EditSessions[Args.SessionId] = std::move(Fresh);
  } else {
    auto It = Conn->EditSessions.find(Args.SessionId);
    if (It == Conn->EditSessions.end()) {
      Reply(encodeErrorReply(Hdr.RequestId, WireError::UnknownSession,
                             "session " + std::to_string(Args.SessionId) +
                                 " has no reset yet"));
      return;
    }
    Session = It->second.get();
  }

  incremental::EditOutcome O =
      Args.Action == EditActionReset
          ? Session->reset(std::move(Args.NewText))
          : Session->applyEdit({int64_t(Args.Offset), int64_t(Args.OldLen),
                                std::move(Args.NewText)});
  Service.recordExternalStats(Session->takeStatsDelta());

  EditReplyBody Out;
  Out.EditError = uint16_t(O.Error);
  if (O.Error != incremental::EditScriptError::None)
    Out.Status = uint8_t(ParseStatus::BadRequest);
  else if (O.ParseOk)
    Out.Status = uint8_t(ParseStatus::Ok);
  else if (O.NumErrors > 0 && O.TreeNodes > 0)
    Out.Status = uint8_t(ParseStatus::Recovered);
  else
    Out.Status = uint8_t(ParseStatus::SyntaxError);
  Out.NumTokens = O.NumTokens;
  Out.TreeNodes = O.TreeNodes;
  Out.ErrorLeaves = O.ErrorLeaves;
  Out.NodesReused = O.NodesReused;
  Out.TokensRelexed = O.TokensRelexed;
  Out.DecisionsReparsed = O.DecisionsReparsed;
  Out.EditMillis = O.Millis;
  if (O.Error == incremental::EditScriptError::None) {
    if (Args.WantTree)
      Out.TreeText = Session->treeText();
    Out.DiagText = Session->diags().str();
  }
  Reply(encodeEditReply(Hdr.RequestId, Out));
}

void Daemon::handleLoadBundle(const std::shared_ptr<Connection> &Conn,
                              const MessageHeader &Hdr, ByteReader &Body) {
  auto Reply = [&](std::string RecordBytes) {
    std::string Out;
    frameRecord(Out, RecordBytes, Config.MaxFragmentBytes);
    Conn->enqueue(std::move(Out));
  };

  std::string Bytes;
  if (!decodeLoadBundleArgs(Body, Bytes)) {
    bumpCounter(&DaemonCounters::ProtocolErrors);
    Reply(encodeErrorReply(Hdr.RequestId, WireError::BadBody,
                           "malformed load-bundle arguments"));
    return;
  }
  // Loading runs synchronously on the reader thread: analysis can take
  // milliseconds, but ordering a connection's parses after its own
  // load-bundle is exactly what clients want.
  DiagnosticEngine Diags;
  bool WasCached = false;
  auto Bundle = loadBundleBytes(Bytes, Diags, &WasCached);
  if (!Bundle) {
    Reply(encodeErrorReply(Hdr.RequestId, WireError::BadBundle,
                           Diags.str()));
    return;
  }
  if (!WasCached)
    bumpCounter(&DaemonCounters::BundlesLoaded);
  LoadBundleReply Out;
  Out.Hash = Bundle->contentHash();
  Out.Cached = WasCached ? 1 : 0;
  Out.Name = Bundle->name();
  Reply(encodeLoadBundleReply(Hdr.RequestId, Out));
}

//===- net/Daemon.h - llstard network parse daemon --------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `llstard` TCP daemon: the record-marked wire protocol of
/// WireFormat.h served over sockets, in front of the in-process
/// ParseService. The daemon adds only transport concerns — everything a
/// request *means* is delegated to the service, which is what keeps
/// over-the-wire results byte-identical to in-process ones:
///
///   - one reader + one writer thread per connection; requests are
///     decoded off the reassembled record stream and submitted through
///     ParseService::submitAsync, so replies complete out of submission
///     order (request-id pipelining),
///   - per-connection backpressure: at most MaxInFlightPerConn
///     outstanding parses per connection (beyond it requests bounce with
///     QueueFull), on top of the service's own bounded queue,
///   - bundles are loaded over the wire and keyed by content hash via
///     GrammarBundleCache — re-loading identical bytes is a cache hit,
///     loading changed bytes is a hot reload under a new hash while
///     in-flight requests keep their old bundle alive,
///   - Edit requests give each connection stateful incremental sessions
///     (incremental::IncrementalSession keyed by a client-chosen id):
///     Reset creates one, Apply re-lexes and reparses only the damaged
///     region, Close discards it. They run synchronously on the reader
///     thread — a session's edits are inherently ordered — and their
///     parser stats fold into the service metrics via
///     ParseService::recordExternalStats,
///   - drain() (the Drain opcode, or SIGTERM in the llstard tool)
///     finishes every accepted request, flushes its replies, and only
///     then refuses new work.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_NET_DAEMON_H
#define LLSTAR_NET_DAEMON_H

#include "net/WireFormat.h"
#include "service/GrammarBundleCache.h"
#include "service/ParseService.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace llstar {
namespace net {

struct DaemonConfig {
  /// Address to bind; tests and single-host deployments stay on loopback.
  std::string BindAddress = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  uint16_t Port = 0;
  /// Configuration of the backing ParseService.
  ServiceConfig Service;
  /// Outstanding parse requests allowed per connection before the daemon
  /// answers with QueueFull (deterministic per-connection backpressure).
  size_t MaxInFlightPerConn = 256;
  /// Wire limits, enforced by the per-connection reassembler.
  size_t MaxRecordBytes = wire::DefaultMaxRecordBytes;
  size_t MaxFragmentBytes = wire::DefaultMaxFragmentBytes;
};

/// Transport-level counters (service-level ones live in ServiceMetrics).
struct DaemonCounters {
  int64_t ConnectionsAccepted = 0;
  int64_t RequestsDecoded = 0;
  int64_t ProtocolErrors = 0;
  int64_t BundlesLoaded = 0;
  int64_t RejectedPipelineCap = 0;
  int64_t RejectedDraining = 0;
};

class Daemon {
public:
  explicit Daemon(DaemonConfig Config = {});
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds, listens, and starts the accept loop. Returns false with
  /// \p Error set if the socket could not be bound.
  bool start(std::string *Error = nullptr);

  /// The bound port (after start(); meaningful with Config.Port == 0).
  uint16_t port() const { return BoundPort; }

  /// Graceful drain: refuse new work, finish and flush everything
  /// accepted so far, leave connections open. Idempotent.
  void drain();

  /// Full stop: drain-less teardown — closes the listener and every
  /// connection, resolves queued work as ShuttingDown, joins all
  /// threads. Call drain() first for the graceful path. Idempotent.
  void stop();

  bool draining() const { return Draining.load(); }

  /// Loads grammar text or .llb bytes exactly as the LoadBundle opcode
  /// would (cache insert + default-bundle update); used by llstard to
  /// preload grammars from the command line.
  std::shared_ptr<const GrammarBundle> loadBundleBytes(std::string_view Bytes,
                                                       DiagnosticEngine &Diags,
                                                       bool *WasCached = nullptr);

  ParseService &service() { return Service; }
  GrammarBundleCache &bundles() { return Cache; }
  DaemonCounters counters() const;

private:
  struct Connection;

  void acceptLoop();
  void readerLoop(std::shared_ptr<Connection> Conn);
  void writerLoop(std::shared_ptr<Connection> Conn);
  void handleRecord(const std::shared_ptr<Connection> &Conn,
                    std::string_view Record);
  void handleParse(const std::shared_ptr<Connection> &Conn,
                   const wire::MessageHeader &Hdr, wire::ByteReader &Body,
                   bool Recover);
  void handleLoadBundle(const std::shared_ptr<Connection> &Conn,
                        const wire::MessageHeader &Hdr,
                        wire::ByteReader &Body);
  void handleEdit(const std::shared_ptr<Connection> &Conn,
                  const wire::MessageHeader &Hdr, wire::ByteReader &Body);
  std::shared_ptr<const GrammarBundle> findBundle(uint64_t Hash);
  void reapFinishedConnections();
  void bumpCounter(int64_t DaemonCounters::*Field);

  DaemonConfig Config;
  GrammarBundleCache Cache;
  ParseService Service;

  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::thread Acceptor;
  std::atomic<bool> Draining{false};
  std::atomic<bool> Stopped{false};
  bool AcceptorStarted = false;

  mutable std::mutex ConnsMu;
  std::vector<std::shared_ptr<Connection>> Conns;

  /// Bundles by hash live in \ref Cache; this is only the default.
  std::mutex DefaultMu;
  std::shared_ptr<const GrammarBundle> Default; ///< most recently loaded

  mutable std::mutex CountersMu;
  DaemonCounters Counters;
};

} // namespace net
} // namespace llstar

#endif // LLSTAR_NET_DAEMON_H

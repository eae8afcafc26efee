//===- perfbench/src/Engine.h - Loops shared by the workloads ---*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload is assembled from, each driving the library
/// only through its public entry points:
///
///   - grammar bundles and the oracles' reference parses,
///   - a closed loop over an in-process ParseService (bulk),
///   - an open loop over loopback TCP to a net::Daemon, or straight into
///     a ParseService on the same schedule (daemon),
///   - an edit loop over incremental::IncrementalSession (edit),
///   - the traced layer pass: the calls ParseService::runJob makes, made
///     one at a time with a span around each.
///
/// A traced run of one workload also puts that workload's inputs through
/// the loops of the other two, so every per-layer metric is measured on
/// every workload.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_PERFBENCH_ENGINE_H
#define LLSTAR_PERFBENCH_ENGINE_H

#include "Common.h"
#include "Inputs.h"
#include "Trace.h"

#include "incremental/IncrementalSession.h"
#include "service/GrammarBundleCache.h"
#include "service/ParseService.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using BundlePtr = std::shared_ptr<const llstar::GrammarBundle>;

/// Grammar sources plus their bundles, index-aligned.
struct GrammarSet {
  std::vector<GrammarSource> Sources;
  std::vector<BundlePtr> Bundles;
};

/// Builds a bundle per source (analysis, lexer DFA) and, when
/// \p ResolveCompiled, resolves its compiled tables. Returns wall seconds.
double buildBundles(GrammarSet &G, bool ResolveCompiled);

/// Reference output of one input: the interpreter's heap-tree parse.
struct Reference {
  bool Ok = false;
  uint64_t TreeHash = 0;
};
Reference referenceParse(const GrammarSet &G, const Item &It);

/// The packrat oracle on a sample document: verdict, and the tree unless
/// the grammar has precedence rules (whose trees the left-recursion
/// rewrite shapes differently).
struct PackratCheck {
  bool Ok = false;
  bool TreeCompared = false;
  uint64_t TreeHash = 0;
};
PackratCheck packratParse(const GrammarSet &G, const Item &It);

/// Runs \p Fn(I) for I in [0, N) on \p Threads threads. Only for the
/// reference child process.
void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Fn);

/// Outcome of checking one answered operation against its reference.
void checkParse(Result &R, const char *What, size_t Index, bool StatusOk,
                uint64_t TreeHash, const Reference &Ref);

//===----------------------------------------------------------------------===//
// Closed loop over an in-process ParseService
//===----------------------------------------------------------------------===//

struct ClosedLoopRun {
  /// Throughput of each cycle through the items (one completion per item,
  /// counted in completion order) inside the timed region, as MB/s.
  std::vector<double> CycleMbS;
  std::vector<double> LatencyMs;   ///< submit to callback, per document
  std::vector<double> QueueWaitMs; ///< latency minus ParseMillis
  std::vector<double> ParseMs;     ///< ParseResult::ParseMillis
  /// Per completed document: its index and ParseMillis (reconciliation).
  std::vector<std::pair<size_t, double>> Completed;
  int64_t Rejected = 0;
};

/// Keeps \p InFlight documents of \p Items submitted, cycling through
/// them in order, for \p Seconds, checking every result against \p Refs.
ClosedLoopRun runClosedLoop(llstar::ParseService &S, const GrammarSet &G,
                            const std::vector<Item> &Items,
                            const std::vector<Reference> &Refs,
                            size_t InFlight, double Seconds, Result &R,
                            Tracer *T);

//===----------------------------------------------------------------------===//
// Open loop (daemon over loopback TCP, or a ParseService directly)
//===----------------------------------------------------------------------===//

struct OpenLoopRun {
  double Rate = 0;
  int64_t Sent = 0;
  int64_t Answered = 0;
  int64_t Rejected = 0; ///< non-Ok statuses that are overload rejections
  int64_t Mismatched = 0;
  int64_t BacklogAtEnd = 0; ///< requests outstanding when the schedule ended
  std::vector<double> LatencyMs; ///< from the due time
  std::vector<double> LateMs;    ///< send time minus due time
  std::vector<double> ClientMs;  ///< send to reply, minus reply ParseMillis
  std::vector<double> ParseMs;   ///< reply ParseMillis
  std::vector<double> QueueWaitMs; ///< service target only
};

/// A daemon with \p Grammars loaded over the wire.
class DaemonHost {
public:
  DaemonHost(const GrammarSet &Grammars, bool UseCompiled);
  ~DaemonHost();
  DaemonHost(const DaemonHost &) = delete;
  DaemonHost &operator=(const DaemonHost &) = delete;
  uint16_t port() const;
  /// Bundle hash the daemon assigned to grammar \p I.
  uint64_t hashOf(size_t I) const { return Hashes[I]; }

private:
  struct Impl;
  std::unique_ptr<Impl> P;
  std::vector<uint64_t> Hashes;
};

/// Offers \p Items (cycled from \p Offset) at \p Rate req/s for
/// \p Seconds over \p Conns pipelined client connections. Mismatches
/// always count as failures in \p R; rejections and the operations
/// themselves only when \p Count is set (ladder probes past saturation are
/// expected to be rejected).
OpenLoopRun runOpenLoopDaemon(const DaemonHost &D, const GrammarSet &G,
                              const std::vector<Item> &Items,
                              const std::vector<Reference> &Refs, double Rate,
                              double Seconds, unsigned Conns, size_t Offset,
                              bool Count, Result &R, Tracer *T);

/// The same schedule submitted straight to \p S (no wire, no sockets).
OpenLoopRun runOpenLoopService(llstar::ParseService &S, const GrammarSet &G,
                               const std::vector<Item> &Items,
                               const std::vector<Reference> &Refs,
                               double Rate, double Seconds, size_t Offset,
                               Result &R);

//===----------------------------------------------------------------------===//
// Edit loop
//===----------------------------------------------------------------------===//

/// One document under edit: its grammar, base text and script, plus the
/// reference tree/diagnostics hash after every step.
struct EditDoc {
  int Grammar = 0;
  std::string Base;
  std::vector<llstar::incremental::Edit> Script;
  std::vector<uint64_t> RefTree, RefDiags; ///< one per script step
};

/// Computes \ref EditDoc::RefTree / RefDiags with scratchParse (child only).
void editReferences(const GrammarSet &G, std::vector<EditDoc> &Docs,
                    unsigned Threads);

struct EditLoopRun {
  std::vector<double> EditMs; ///< applyEdit wall time per edit
  std::vector<std::vector<double>> DocEditMs; ///< the same, per document
  int64_t Edits = 0;
  int64_t TokensRelexed = 0, DecisionsReparsed = 0, Repairs = 0;
  double DocBytes = 0; ///< mean document size
};

/// Replays every document's script round-robin (one step per document in
/// turn) for \p Seconds, checking each edit against the references.
EditLoopRun runEditLoop(const GrammarSet &G, std::vector<EditDoc> &Docs,
                        double Seconds, Result &R, Tracer *T);

//===----------------------------------------------------------------------===//
// Traced layer pass
//===----------------------------------------------------------------------===//

/// Which engine and tree representation the workload's own path uses.
struct LayerConfig {
  bool Compiled = false;
  bool Arena = true;
};

struct LayerPass {
  int64_t Items = 0, Bytes = 0, Tokens = 0;
  double LexMs = 0;
  double CompiledMs = 0, RuntimeMs = 0; ///< tree-less parses, both engines
  int64_t CompiledEvents = 0, NativeEvents = 0;
  llstar::ParserStats RuntimeStats;
  double TreeParseMs = 0; ///< workload engine with its tree
  double TreeBuildMs = 0; ///< TreeParseMs minus that engine's tree-less parse
  int64_t TreeAllocs = 0, Nodes = 0;
  double RenderMs = 0;
  int64_t RenderBytes = 0;
  double EncodeMs = 0, DecodeMs = 0;
  int64_t ReqBytes = 0, ReplyBytes = 0;
  /// Per item: the tree parse alone, which is the interval the service's
  /// ParseResult::ParseMillis times (index-aligned with the items).
  std::vector<double> ParseMillisLayersMs;
};

/// One pass over \p Items (each exactly once) with a span per layer call.
LayerPass runLayerPass(const GrammarSet &G, const std::vector<Item> &Items,
                       const std::vector<Reference> &Refs, LayerConfig C,
                       Result &R, Tracer &T);

/// Analysis-layer figures of a grammar set: analyze wall ms (fresh
/// bundles), DFA states, backtracking decisions, compiled-resolve ms.
struct AnalysisFigures {
  double AnalyzeMs = 0, ResolveMs = 0;
  int64_t DfaStates = 0, BacktrackDecisions = 0;
};
AnalysisFigures measureAnalysis(const std::vector<GrammarSource> &Sources,
                                Tracer &T);

} // namespace perfbench

#endif // LLSTAR_PERFBENCH_ENGINE_H

//===- perfbench/src/Trace.h - In-memory spans ------------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded around the benchmark's calls into each layer: layer name,
/// start, end, the request they belong to and the span that caused them.
/// Spans stay in memory and are written once, as Chrome trace_event JSON,
/// when the traced run ends. A layer's self time is its spans' duration
/// minus the part covered by their child spans.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_PERFBENCH_TRACE_H
#define LLSTAR_PERFBENCH_TRACE_H

#include "Common.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Layer = "";
  int64_t Request = -1;
  int32_t Parent = -1;
  Clock::time_point Start, End;
};

class Tracer {
public:
  /// Opens a span; returns its id for \ref end and for children.
  int32_t begin(const char *Layer, int64_t Request, int32_t Parent = -1);
  void end(int32_t Id);
  /// Records an already-measured interval (for spans that start on one
  /// thread and end on another, such as submit-to-callback).
  int32_t record(const char *Layer, int64_t Request, Clock::time_point Start,
                 Clock::time_point End, int32_t Parent = -1);

  /// Self time per layer, in milliseconds.
  std::map<std::string, double> selfMs() const;

  /// Writes every span as Chrome trace_event JSON; \p Meta is added as the
  /// top-level "metadata" object (already JSON).
  bool write(const std::string &Path, const std::string &Meta) const;

private:
  mutable std::mutex Mu;
  std::vector<Span> Spans;
  Clock::time_point Epoch = Clock::now();
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, const char *Layer, int64_t Request, int32_t Parent = -1)
      : T(T), Id(T.begin(Layer, Request, Parent)) {}
  ~Scope() { T.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int32_t id() const { return Id; }

private:
  Tracer &T;
  int32_t Id;
};

} // namespace perfbench

#endif // LLSTAR_PERFBENCH_TRACE_H

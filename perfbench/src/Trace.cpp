//===- perfbench/src/Trace.cpp - In-memory spans --------------------------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>
#include <filesystem>

namespace perfbench {

int32_t Tracer::begin(const char *Layer, int64_t Request, int32_t Parent) {
  Clock::time_point Now = Clock::now();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Layer, Request, Parent, Now, Now});
  return int32_t(Spans.size() - 1);
}

void Tracer::end(int32_t Id) {
  Clock::time_point Now = Clock::now();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[size_t(Id)].End = Now;
}

int32_t Tracer::record(const char *Layer, int64_t Request,
                       Clock::time_point Start, Clock::time_point End,
                       int32_t Parent) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Layer, Request, Parent, Start, End});
  return int32_t(Spans.size() - 1);
}

std::map<std::string, double> Tracer::selfMs() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = msBetween(Spans[I].Start, Spans[I].End);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[size_t(S.Parent)] -= msBetween(S.Start, S.End);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Layer] += Self[I];
  return Out;
}

bool Tracer::write(const std::string &Path, const std::string &Meta) const {
  std::error_code Ec;
  std::filesystem::create_directories(
      std::filesystem::path(Path).parent_path(), Ec);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  std::fprintf(F, "{\"metadata\": %s,\n\"traceEvents\": [\n", Meta.c_str());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    using Us = std::chrono::duration<double, std::micro>;
    double Ts = Us(S.Start - Epoch).count();
    double Dur = Us(S.End - S.Start).count();
    long long Tid = S.Request < 0 ? 0 : S.Request;
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"span\": %zu, \"parent\": %d, \"request\": %lld}}\n",
                 I ? "," : "", S.Layer, Tid, Ts, Dur, I, S.Parent,
                 (long long)S.Request);
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench

//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload {bulk|daemon|edit} --seed N --seconds S --trace 0|1
//             [--root DIR] [--out-dir DIR] [--corrupt-reference]
//
// Prints a human-readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 0 only when every
// output matched its reference. perfbench/run.py builds this binary from
// the checkout and runs it; perfbench/README.md documents the workloads
// and metrics.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include "CompiledManifest.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {
int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload {bulk|daemon|edit} --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--out-dir DIR] "
               "[--corrupt-reference]\n");
  return 2;
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End && *End == '\0' && End != S;
}
} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    bool HasValue = I + 1 < Argc;
    double V = 0;
    if (A == "--workload" && HasValue)
      O.Workload = Argv[++I];
    else if (A == "--seed" && HasValue && parseNumber(Argv[++I], V) && V >= 0)
      O.Seed = uint64_t(V);
    else if (A == "--seconds" && HasValue && parseNumber(Argv[++I], V) && V > 0)
      O.Seconds = V;
    else if (A == "--trace" && HasValue && parseNumber(Argv[++I], V) &&
             (V == 0 || V == 1))
      O.Trace = V == 1;
    else if (A == "--root" && HasValue)
      O.Root = Argv[++I];
    else if (A == "--out-dir" && HasValue)
      O.OutDir = Argv[++I];
    else if (A == "--corrupt-reference")
      O.CorruptReference = true;
    else
      return usage();
  }
  llstar::compiled::registerShippedGrammars();
  Result R;
  if (O.Workload == "bulk")
    R = runBulk(O);
  else if (O.Workload == "daemon")
    R = runDaemon(O);
  else if (O.Workload == "edit")
    R = runEdit(O);
  else
    return usage();
  HostStamp H = probeHost();
  return emitResult(O, H, R);
}

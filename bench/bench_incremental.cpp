//===- bench/bench_incremental.cpp - Edit-loop reparse throughput ---------===//
//
// Measures the incremental subsystem (src/incremental/) on its target
// workload: a long-lived session absorbing a stream of small edits, the
// way an editor integration would drive it. For the two largest synthetic
// corpus inputs (json and lua, the same generators bench_compiled sizes
// by --units) it replays an identical sequence of single-byte edits
// through two sessions that differ only in SessionOptions::Reuse:
//
//   full — Reuse off: every edit re-lexes and re-parses the whole text
//          (the from-scratch cost an editor would pay without this
//          subsystem);
//   inc  — Reuse on: the damaged window is re-lexed, disjoint subtrees
//          are spliced, and only the seam is re-predicted.
//
// Edits are digit-for-digit replacements, so the text stays valid and
// both sessions do identical semantic work; every edit is <= 16 bytes
// (they are 1 byte). Per-edit wall time comes from EditOutcome::Millis
// (the whole applyEdit call), best-of --repeat over the whole edit
// sequence.
// The reuse counters in the report prove the incremental side actually
// spliced (nodesReused) instead of winning by measurement error.
//
//   bench_incremental [--units N] [--edits N] [--repeat N] [--json FILE]
//
// BENCH_incremental.json at the repo root is a committed baseline, stamped
// with the host and build it ran on.
//
//===----------------------------------------------------------------------===//

#include "incremental/IncrementalSession.h"
#include "service/GrammarBundleCache.h"
#include "support/StringUtils.h"

#include "BenchHarness.h"
#include "CompiledManifest.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace llstar;
using namespace llstar::incremental;

namespace {

// The two largest bench workloads, same shapes as bench_compiled's.
std::string jsonWorkload(int Units) {
  std::string Out = "{\"items\": [";
  for (int I = 0; I < Units; ++I) {
    if (I)
      Out += ", ";
    Out += "{\"id\": " + std::to_string(I) +
           ", \"name\": \"item" + std::to_string(I) +
           "\", \"score\": " + std::to_string(I % 10) + "." +
           std::to_string(I % 100) +
           ", \"tags\": [\"a\", \"b\"], \"ok\": " +
           (I % 2 ? "true" : "false") + ", \"extra\": null}";
  }
  Out += "], \"total\": " + std::to_string(Units) + "}";
  return Out;
}

std::string luaWorkload(int Units) {
  std::string Out;
  for (int I = 0; I < Units; ++I) {
    std::string N = std::to_string(I);
    Out += "local acc" + N + " = obj.field[" + N + "].next\n";
    Out += "acc" + N + ".slot, t = 1 + 2 * " + N + " ^ 2, \"s\" .. \"t\"\n";
    Out += "obj:method(acc" + N + ", { k = " + N + ", [2] = false })\n";
    Out += "if acc" + N + " ~= nil and " + N +
           " < 10 then\n  print(acc" + N + ")\nelse\n  call(" + N +
           ")\nend\n";
    Out += "for i = 1, " + N + ", 2 do work(i) end\n";
  }
  Out += "return acc0\n";
  return Out;
}

struct Workload {
  const char *File; ///< grammars/<File>.g
  std::string (*Generate)(int Units);
};

const Workload Workloads[] = {
    {"json", jsonWorkload},
    {"lua", luaWorkload},
};

/// Single-byte digit replacements spread across the input: edit K rotates
/// the K-th sampled digit position to a different digit, so the text stays
/// valid for every grammar that accepts the original.
std::vector<Edit> makeEdits(const std::string &Text, int Count) {
  std::vector<size_t> Digits;
  for (size_t I = 0; I < Text.size(); ++I)
    if (std::isdigit(uint8_t(Text[I])))
      Digits.push_back(I);
  std::vector<Edit> Edits;
  if (Digits.empty())
    return Edits;
  size_t Stride = Digits.size() / size_t(Count) + 1;
  for (int K = 0; K < Count; ++K) {
    size_t At = Digits[(size_t(K) * Stride + 7) % Digits.size()];
    char Old = Text[At];
    // Replacements stay in 1-9: a 0 at a number's first digit would split
    // the token under grammars that forbid leading zeros (json).
    char New = char('1' + (Old - '0' + K) % 9);
    Edits.push_back({int64_t(At), 1, std::string(1, New)});
  }
  return Edits;
}

struct EngineReport {
  const char *Engine = "";
  double FullMsPerEdit = 0, IncMsPerEdit = 0, Speedup = 0;
  long long NodesReused = 0, TokensRelexed = 0, DecisionsReparsed = 0;
};

struct WorkloadReport {
  std::string Name;
  long long Bytes = 0, Tokens = 0;
  std::vector<EngineReport> Engines;
};

/// Total EditOutcome::Millis of replaying \p Edits once, best of \p Repeat
/// full replays. Each replay starts from a fresh reset so every repetition
/// does identical work. Counters are captured from the last replay.
double replay(std::shared_ptr<const GrammarBundle> Bundle,
              const std::string &Base, const std::vector<Edit> &Edits,
              const SessionOptions &SO, int Repeat, EngineReport *Counters) {
  double Best = 1e18;
  for (int Rep = 0; Rep < Repeat; ++Rep) {
    IncrementalSession S(Bundle, SO);
    EditOutcome R = S.reset(Base);
    if (R.Error != EditScriptError::None || !R.ParseOk) {
      std::fprintf(stderr, "error: workload does not parse:\n%s",
                   S.diags().str().c_str());
      std::exit(1);
    }
    double Total = 0;
    long long Reused = 0, Relexed = 0, Decisions = 0;
    for (const Edit &E : Edits) {
      EditOutcome O = S.applyEdit(E);
      if (O.Error != EditScriptError::None || !O.ParseOk) {
        std::fprintf(stderr, "error: edit at %lld broke the workload:\n%s",
                     (long long)E.Offset, S.diags().str().c_str());
        std::exit(1);
      }
      Total += O.Millis;
      Reused += O.NodesReused;
      Relexed += O.TokensRelexed;
      Decisions += O.DecisionsReparsed;
    }
    if (Total < Best) {
      Best = Total;
      if (Counters) {
        Counters->NodesReused = Reused;
        Counters->TokensRelexed = Relexed;
        Counters->DecisionsReparsed = Decisions;
      }
    }
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  int Units = 400, NumEdits = 32, Repeat = 5;
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--units") && I + 1 < Argc)
      Units = std::atoi(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--edits") && I + 1 < Argc)
      NumEdits = std::atoi(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--repeat") && I + 1 < Argc)
      Repeat = std::atoi(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: bench_incremental [--units N] [--edits N] "
                   "[--repeat N] [--json FILE]\n");
      return 2;
    }
  }

  compiled::registerShippedGrammars();
  std::printf("incremental reparse vs full reparse: %d units, %d one-byte "
              "edits, best of %d\n\n",
              Units, NumEdits, Repeat);
  std::printf("%-6s %-9s %9s %8s %12s %12s %8s %10s %9s\n", "input",
              "engine", "bytes", "tokens", "full ms/ed", "inc ms/ed",
              "speedup", "reused", "relexed");

  std::vector<WorkloadReport> Reports;
  for (const Workload &W : Workloads) {
    std::string Text;
    readFile(std::string(LLSTAR_SOURCE_DIR) + "/grammars/" + W.File + ".g",
             Text);
    DiagnosticEngine Diags;
    auto Bundle = makeGrammarBundle(Text, Diags);
    if (!Bundle) {
      std::fprintf(stderr, "grammar %s failed to build:\n%s", W.File,
                   Diags.str().c_str());
      return 1;
    }
    std::string Base = W.Generate(Units);
    std::vector<Edit> Edits = makeEdits(Base, NumEdits);

    WorkloadReport R;
    R.Name = W.File;
    R.Bytes = (long long)Base.size();
    {
      ScratchResult SR = scratchParse(*Bundle, Base, SessionOptions());
      R.Tokens = (long long)SR.Tokens.size();
    }
    for (bool Compiled : {false, true}) {
      EngineReport E;
      E.Engine = Compiled ? "compiled" : "interp";
      SessionOptions Full;
      Full.UseCompiled = Compiled;
      Full.Reuse = false;
      SessionOptions Inc = Full;
      Inc.Reuse = true;
      double FullMs = replay(Bundle, Base, Edits, Full, Repeat, nullptr);
      double IncMs = replay(Bundle, Base, Edits, Inc, Repeat, &E);
      E.FullMsPerEdit = FullMs / NumEdits;
      E.IncMsPerEdit = IncMs / NumEdits;
      E.Speedup = FullMs / IncMs;
      std::printf("%-6s %-9s %9lld %8lld %12.4f %12.4f %7.2fx %10lld %9lld\n",
                  W.File, E.Engine, R.Bytes, R.Tokens, E.FullMsPerEdit,
                  E.IncMsPerEdit, E.Speedup, E.NodesReused, E.TokensRelexed);
      R.Engines.push_back(E);
    }
    Reports.push_back(std::move(R));
  }

  if (!JsonPath.empty()) {
    std::string Out = "{\n  \"host\": " + bench::hostJson() +
                      ",\n  \"units\": " + std::to_string(Units) +
                      ",\n  \"edits\": " + std::to_string(NumEdits) +
                      ",\n  \"repeat\": " + std::to_string(Repeat) +
                      ",\n  \"workloads\": [\n";
    char Buf[512];
    for (size_t G = 0; G < Reports.size(); ++G) {
      const WorkloadReport &R = Reports[G];
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"name\": \"%s\", \"bytes\": %lld, "
                    "\"tokens\": %lld, \"engines\": [\n",
                    R.Name.c_str(), R.Bytes, R.Tokens);
      Out += Buf;
      for (size_t K = 0; K < R.Engines.size(); ++K) {
        const EngineReport &E = R.Engines[K];
        std::snprintf(
            Buf, sizeof(Buf),
            "     {\"engine\": \"%s\", \"fullMsPerEdit\": %.4f, "
            "\"incMsPerEdit\": %.4f, \"speedup\": %.2f, "
            "\"nodesReused\": %lld, \"tokensRelexed\": %lld, "
            "\"decisionsReparsed\": %lld}%s\n",
            E.Engine, E.FullMsPerEdit, E.IncMsPerEdit, E.Speedup,
            E.NodesReused, E.TokensRelexed, E.DecisionsReparsed,
            K + 1 < R.Engines.size() ? "," : "");
        Out += Buf;
      }
      Out += G + 1 < Reports.size() ? "    ]},\n" : "    ]}\n";
    }
    Out += "  ]\n}\n";
    std::ofstream F(JsonPath);
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    F << Out;
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }
  return 0;
}

//===- bench/bench_compiled.cpp - Compiled fast path vs interpreter -------===//
//
// Measures the ahead-of-time compiled parser fast path (src/compiled/,
// grammars/compiled/) against the interpreting runtime on every shipped
// grammar:
//
//   1. lexer — the grammar's one compiled lexer (AnalyzedGrammar::lexer),
//      which both engines share (tokens/s; no comparison: modules carry no
//      lexer of their own);
//   2. full parse — LLStarParser vs CompiledParser over the same token
//      stream, trees and stats off, so the number isolates prediction and
//      matching throughput (the layer the dense tables and generated
//      predictors replace; tree building costs the same in both engines).
//
// Workloads are synthetic but idiomatic per grammar, sized by --units.
// `--json FILE` records the results; BENCH_compiled.json at the repo root
// is a committed baseline. Every shipped grammar is expected to resolve
// its checked-in module (hash gate open); the report says so per grammar.
//
//   bench_compiled [--units N] [--repeat N] [--json FILE]
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalyzedGrammar.h"
#include "codegen/Serializer.h"
#include "compiled/CompiledParser.h"
#include "compiled/CompiledRegistry.h"
#include "lexer/TokenStream.h"
#include "support/StringUtils.h"
#include "runtime/LLStarParser.h"

#include "BenchHarness.h"
#include "CompiledManifest.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace llstar;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Per-grammar workloads
//===----------------------------------------------------------------------===//

std::string csvWorkload(int Units) {
  std::string Out = "name,kind,count,comment\n";
  for (int I = 0; I < Units; ++I) {
    Out += "row" + std::to_string(I) + ",\"quoted \"\"v" +
           std::to_string(I % 7) + "\"\" field\"," + std::to_string(I * 3) +
           ",plain text\n";
  }
  return Out;
}

std::string dotWorkload(int Units) {
  std::string Out = "digraph bench {\n  graph [rankdir=LR, label=\"b\"]\n";
  for (int I = 0; I < Units; ++I) {
    std::string A = "n" + std::to_string(I);
    std::string B = "n" + std::to_string((I + 1) % Units);
    Out += "  " + A + " [shape=box, weight=" + std::to_string(I % 9) +
           "]\n";
    Out += "  " + A + " -> " + B + " -> n" +
           std::to_string((I + 2) % Units) + " [color=\"red\"]\n";
    if (I % 8 == 0)
      Out += "  subgraph c" + std::to_string(I) + " { " + A + ":p -> " + B +
             " }\n";
  }
  Out += "}\n";
  return Out;
}

std::string iniWorkload(int Units) {
  std::string Out;
  for (int I = 0; I < Units; ++I) {
    Out += "[section" + std::to_string(I) + "]\n";
    Out += "count = " + std::to_string(I * 17) + "\n";
    Out += "name = \"value " + std::to_string(I) + "\"\n";
    Out += "tags = alpha, beta, gamma\n";
    Out += "path = usr.local.share\n";
  }
  return Out;
}

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

std::string lambdaWorkload(int Units) {
  std::string Out;
  for (int I = 0; I < Units; ++I)
    Out += "let f" + std::to_string(I) +
           " = lambda x. lambda y. f x (y " + std::to_string(I) + ") in\n";
  Out += "f0 ";
  for (int I = 0; I < Units; ++I)
    Out += "(g " + std::to_string(I) + ") ";
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

std::string sexprWorkload(int Units) {
  std::string Out;
  for (int I = 0; I < Units; ++I)
    Out += "(define (fn" + std::to_string(I) + " x y) (+ (* x " +
           std::to_string(I) + ") (- y 1.5) 'sym \"str\"))\n";
  return Out;
}

struct Workload {
  const char *File; ///< grammars/<File>.g
  std::string (*Generate)(int Units);
};

const Workload Workloads[] = {
    {"csv", csvWorkload},     {"dot", dotWorkload},
    {"ini", iniWorkload},     {"json", jsonWorkload},
    {"lambda", lambdaWorkload}, {"lua", luaWorkload},
    {"sexpr", sexprWorkload},
};

//===----------------------------------------------------------------------===//
// Timing
//===----------------------------------------------------------------------===//

/// Best-of-N wall time of \p Fn.
template <class FnT> double bestOf(int Repeat, FnT &&Fn) {
  double Best = 1e9;
  for (int Rep = 0; Rep < Repeat; ++Rep) {
    double T0 = now();
    Fn();
    Best = std::min(Best, now() - T0);
  }
  return Best;
}

struct Split {
  double InterpSecs = 0, CompiledSecs = 0;
  double InterpTps = 0, CompiledTps = 0;
  double Speedup = 0;

  void finish(int64_t Tokens) {
    InterpTps = double(Tokens) / InterpSecs;
    CompiledTps = double(Tokens) / CompiledSecs;
    Speedup = InterpSecs / CompiledSecs;
  }
};

struct GrammarReport {
  std::string Name;
  bool FromModule = false;
  int NativePredictors = 0;
  int Decisions = 0;
  int64_t Tokens = 0;
  double LexSecs = 0, LexTps = 0;
  Split Parse;
};

} // namespace

int main(int Argc, char **Argv) {
  int Units = 400, Repeat = 5;
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--units") && I + 1 < Argc)
      Units = std::atoi(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--repeat") && I + 1 < Argc)
      Repeat = std::atoi(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: bench_compiled [--units N] [--repeat N] "
                   "[--json FILE]\n");
      return 2;
    }
  }

  compiled::registerShippedGrammars();
  std::vector<GrammarReport> Reports;
  std::printf("compiled fast path vs interpreter: %d units, best of %d\n\n",
              Units, Repeat);
  std::printf("%-8s %-7s %-8s %12s %12s %12s %8s\n", "grammar", "module",
              "native", "lexer t/s", "par-int t/s", "par-cmp t/s", "par-x");

  for (const Workload &W : Workloads) {
    std::string Text;
    readFile(std::string(LLSTAR_SOURCE_DIR) + "/grammars/" + W.File + ".g",
             Text);
    DiagnosticEngine GDiags;
    auto AG = analyzeGrammarText(Text, GDiags);
    if (!AG) {
      std::fprintf(stderr, "grammar %s failed to analyze:\n%s", W.File,
                   GDiags.str().c_str());
      return 1;
    }
    compiled::CompiledResolution Res =
        compiled::resolveCompiledTables(*AG, serializeGrammar(*AG));

    GrammarReport R;
    R.Name = AG->grammar().Name;
    R.FromModule = Res.fromModule();
    R.Decisions = int(AG->numDecisions());
    if (Res.Native)
      for (int32_t D = 0; D < int32_t(AG->numDecisions()); ++D)
        if (Res.Native[D])
          ++R.NativePredictors;

    std::string Input = W.Generate(Units);
    DiagnosticEngine LexDiags;
    std::vector<Token> Tokens = AG->lexer().tokenize(Input, LexDiags);
    if (LexDiags.hasErrors()) {
      std::fprintf(stderr, "%s workload does not lex:\n%s", W.File,
                   LexDiags.str().c_str());
      return 1;
    }
    R.Tokens = int64_t(Tokens.size()) - 1; // exclude EOF

    R.LexSecs = bestOf(Repeat, [&] {
      DiagnosticEngine D;
      AG->lexer().tokenize(Input, D);
    });
    R.LexTps = double(R.Tokens) / R.LexSecs;

    // Full-parse split: trees and stats off so the measurement isolates
    // prediction + matching, the layer the compiled tables replace.
    TokenStream Stream(std::move(Tokens));
    ParserOptions Opts;
    Opts.Memoize = AG->grammar().Options.Memoize;
    Opts.BuildTree = false;
    Opts.CollectStats = false;
    auto CheckOk = [&](bool Ok, const DiagnosticEngine &D,
                       const char *Engine) {
      if (!Ok) {
        std::fprintf(stderr, "%s workload does not parse (%s):\n%s", W.File,
                     Engine, D.str().c_str());
        std::exit(1);
      }
    };
    R.Parse.InterpSecs = bestOf(Repeat, [&] {
      Stream.seek(0);
      DiagnosticEngine D;
      LLStarParser P(*AG, Stream, nullptr, D, Opts);
      P.parse();
      CheckOk(P.ok(), D, "interpreted");
    });
    R.Parse.CompiledSecs = bestOf(Repeat, [&] {
      Stream.seek(0);
      DiagnosticEngine D;
      compiled::CompiledParser P(*AG, Res.View, Stream, nullptr, D, Opts,
                                 Res.Native, Res.Rules);
      P.parse();
      CheckOk(P.ok(), D, "compiled");
    });
    R.Parse.finish(R.Tokens);

    char Native[16];
    std::snprintf(Native, sizeof(Native), "%d/%d", R.NativePredictors,
                  R.Decisions);
    std::printf("%-8s %-7s %-8s %12.0f %12.0f %12.0f %7.2fx\n",
                R.Name.c_str(), R.FromModule ? "yes" : "STALE", Native,
                R.LexTps, R.Parse.InterpTps, R.Parse.CompiledTps,
                R.Parse.Speedup);
    Reports.push_back(std::move(R));
  }

  if (!JsonPath.empty()) {
    std::string Out = "{\n  \"host\": " + bench::hostJson() + ",\n" +
                      "  \"units\": " + std::to_string(Units) +
                      ",\n  \"repeat\": " + std::to_string(Repeat) +
                      ",\n  \"grammars\": [\n";
    char Buf[512];
    for (size_t G = 0; G < Reports.size(); ++G) {
      const GrammarReport &R = Reports[G];
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"name\": \"%s\", \"module\": %s, "
                    "\"nativePredictors\": %d, \"decisions\": %d, "
                    "\"tokens\": %lld,\n",
                    R.Name.c_str(), R.FromModule ? "true" : "false",
                    R.NativePredictors, R.Decisions, (long long)R.Tokens);
      Out += Buf;
      std::snprintf(Buf, sizeof(Buf),
                    "     \"lexer\": {\"secs\": %.6f, "
                    "\"tokensPerSec\": %.0f},\n",
                    R.LexSecs, R.LexTps);
      Out += Buf;
      const Split &S = R.Parse;
      std::snprintf(Buf, sizeof(Buf),
                    "     \"parse\": {\"interpSecs\": %.6f, "
                    "\"compiledSecs\": %.6f, \"interpTokensPerSec\": %.0f, "
                    "\"compiledTokensPerSec\": %.0f, \"speedup\": %.2f}",
                    S.InterpSecs, S.CompiledSecs, S.InterpTps, S.CompiledTps,
                    S.Speedup);
      Out += Buf;
      Out += G + 1 < Reports.size() ? "},\n" : "}\n";
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

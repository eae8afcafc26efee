//===- perfbench/src/Inputs.cpp - Seeded benchmark inputs -----------------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "BenchGrammars.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// The RNG plus a few drawing helpers shared by the generators.
class Gen {
public:
  explicit Gen(uint64_t Seed) : Rng(Seed) {}
  /// Uniform in [0, N).
  int pick(int N) { return int(Rng() % uint64_t(N)); }
  /// Uniform in [Lo, Hi].
  int range(int Lo, int Hi) { return Lo + pick(Hi - Lo + 1); }
  bool chance(int Percent) { return pick(100) < Percent; }
  std::string num(int N = 1000) { return std::to_string(pick(N)); }
  std::string name(const char *Prefix) {
    return Prefix + std::to_string(pick(500));
  }
  std::string word() {
    static const char *const Words[] = {"alpha", "beta",  "gamma", "delta",
                                        "omega", "kappa", "sigma", "theta"};
    return Words[pick(8)];
  }
  std::mt19937_64 Rng;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", Path.c_str());
    std::exit(2);
  }
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

// One top-level unit per call for each shipped grammar. Nesting is bounded
// so that no document drives the recursive-descent parsers or the
// recursive tree renderers deeper than a few dozen frames.

std::string csvUnit(Gen &G) {
  std::string Out;
  int Fields = G.range(3, 8);
  for (int F = 0; F < Fields; ++F) {
    if (F)
      Out += ',';
    switch (G.pick(5)) {
    case 0:
      Out += G.word() + G.num();
      break;
    case 1:
      Out += G.num(100000);
      break;
    case 2:
      Out += "\"" + G.word() + " \"\"" + G.word() + "\"\", " + G.num() + "\"";
      break;
    case 3:
      Out += G.word() + " " + G.word();
      break;
    default:
      break; // empty field
    }
  }
  return Out + "\n";
}

std::string dotId(Gen &G) { return G.name("n"); }

std::string dotAttrs(Gen &G) {
  std::string Out = "[";
  int N = G.range(1, 3);
  for (int I = 0; I < N; ++I) {
    if (I)
      Out += ", ";
    switch (G.pick(3)) {
    case 0:
      Out += "color=\"" + G.word() + "\"";
      break;
    case 1:
      Out += "weight=" + G.num(20) + "." + G.num(10);
      break;
    default:
      Out += "shape=" + G.word();
      break;
    }
  }
  return Out + "]";
}

std::string dotStmt(Gen &G, int Depth) {
  switch (G.pick(Depth ? 5 : 6)) {
  case 0:
    return dotId(G) + " " + dotAttrs(G) + ";\n";
  case 1: {
    std::string Out = dotId(G) + (G.chance(20) ? ":p" : "");
    int Hops = G.range(1, 4);
    for (int I = 0; I < Hops; ++I)
      Out += " -> " + dotId(G);
    return Out + (G.chance(50) ? " " + dotAttrs(G) : "") + "\n";
  }
  case 2:
    return std::string(G.chance(50) ? "node " : "edge ") + dotAttrs(G) + "\n";
  case 3:
    return "label = \"" + G.word() + " " + G.num() + "\";\n";
  case 4:
    return dotId(G) + "\n";
  default: {
    std::string Out = "subgraph " + G.name("cluster") + " {\n";
    int N = G.range(1, 4);
    for (int I = 0; I < N; ++I)
      Out += "  " + dotStmt(G, Depth + 1);
    return Out + "}\n";
  }
  }
}

std::string iniUnit(Gen &G) {
  std::string Out = "[" + G.name("section") + "]\n";
  int N = G.range(1, 5);
  for (int I = 0; I < N; ++I) {
    Out += G.name("key") + " = ";
    switch (G.pick(4)) {
    case 0:
      Out += (G.chance(20) ? "-" : "") + G.num(100000);
      break;
    case 1:
      Out += "\"" + G.word() + " " + G.num() + "\"";
      break;
    case 2:
      Out += G.word() + ", " + G.word() + ", " + G.word();
      break;
    default:
      Out += "usr.local." + G.word();
      break;
    }
    Out += "\n";
    if (G.chance(10))
      Out += "# " + G.word() + "\n";
  }
  return Out;
}

std::string jsonValue(Gen &G, int Depth) {
  switch (G.pick(Depth >= 3 ? 5 : 7)) {
  case 0:
    return "\"" + G.word() + G.num() + "\"";
  case 1:
    return G.num(100000);
  case 2:
    return "-" + G.num(100) + "." + G.num(1000) + "e" + G.num(10);
  case 3:
    return G.chance(50) ? "true" : "false";
  case 4:
    return "null";
  case 5: {
    std::string Out = "[";
    int N = G.range(0, 4);
    for (int I = 0; I < N; ++I)
      Out += (I ? ", " : "") + jsonValue(G, Depth + 1);
    return Out + "]";
  }
  default: {
    std::string Out = "{";
    int N = G.range(0, 5);
    for (int I = 0; I < N; ++I)
      Out += std::string(I ? ", " : "") + "\"" + G.name("k") +
             "\": " + jsonValue(G, Depth + 1);
    return Out + "}";
  }
  }
}

std::string lambdaTerm(Gen &G, int Depth) {
  int Choice = G.pick(Depth >= 3 ? 2 : 5);
  switch (Choice) {
  case 0:
    return G.name("x");
  case 1:
    return G.num();
  case 2:
    return "(lambda " + G.name("v") + ". " + lambdaTerm(G, Depth + 1) + " " +
           lambdaTerm(G, Depth + 1) + ")";
  case 3:
    return "(let " + G.name("y") + " = " + lambdaTerm(G, Depth + 1) + " in " +
           lambdaTerm(G, Depth + 1) + ")";
  default:
    return "(" + G.name("f") + " " + lambdaTerm(G, Depth + 1) + " " +
           lambdaTerm(G, Depth + 1) + ")";
  }
}

std::string luaExp(Gen &G, int Depth);

std::string luaPrefix(Gen &G, int Depth) {
  std::string Out = G.name("v");
  int Suffixes = G.pick(3);
  for (int I = 0; I < Suffixes; ++I) {
    switch (G.pick(3)) {
    case 0:
      Out += "." + G.name("f");
      break;
    case 1:
      Out += "[" + (Depth < 2 ? luaExp(G, Depth + 1) : G.num()) + "]";
      break;
    default:
      Out += ":" + G.name("m") + "(" + G.num() + ")";
      break;
    }
  }
  return Out;
}

std::string luaExp(Gen &G, int Depth) {
  if (Depth >= 3)
    return G.chance(50) ? G.num() : G.name("v");
  static const char *const Ops[] = {"+", "-", "*", "/", "..", "<", "==",
                                    "and", "or", "^", "~=", ">="};
  switch (G.pick(8)) {
  case 0:
    return G.num() + "." + G.num(100);
  case 1:
    return "\"" + G.word() + "\"";
  case 2:
    return luaPrefix(G, Depth + 1);
  case 3:
    return "{ " + G.name("k") + " = " + luaExp(G, Depth + 1) + ", [" +
           G.num(10) + "] = " + luaExp(G, Depth + 1) + " }";
  case 4:
    return (G.chance(50) ? "not " : "- ") + luaExp(G, Depth + 1);
  case 5:
    return "(" + luaExp(G, Depth + 1) + ")";
  default:
    return luaExp(G, Depth + 1) + " " + Ops[G.pick(12)] + " " +
           luaExp(G, Depth + 1);
  }
}

std::string luaBlock(Gen &G, int Depth, const std::string &Indent);

std::string luaStat(Gen &G, int Depth, const std::string &In) {
  int Choice = G.pick(Depth >= 2 ? 4 : 9);
  switch (Choice) {
  case 0:
    return In + "local " + G.name("v") + " = " + luaExp(G, 0) + "\n";
  case 1:
    return In + luaPrefix(G, 0) + ", " + G.name("v") + " = " + luaExp(G, 0) +
           ", " + luaExp(G, 1) + "\n";
  case 2:
    return In + luaPrefix(G, 1) + "(" + luaExp(G, 1) + ", " + G.num() + ")\n";
  case 3:
    return In + G.name("obj") + ":" + G.name("m") + "{ " + luaExp(G, 1) +
           " }\n";
  case 4:
    return In + "if " + luaExp(G, 1) + " then\n" + luaBlock(G, Depth + 1, In) +
           (G.chance(40) ? In + "elseif " + luaExp(G, 1) + " then\n" +
                               luaBlock(G, Depth + 1, In)
                         : "") +
           (G.chance(50) ? In + "else\n" + luaBlock(G, Depth + 1, In) : "") +
           In + "end\n";
  case 5:
    return In + "for i = 1, " + G.num(100) + (G.chance(30) ? ", 2" : "") +
           " do\n" + luaBlock(G, Depth + 1, In) + In + "end\n";
  case 6:
    return In + "for k, v in pairs(" + G.name("t") + ") do\n" +
           luaBlock(G, Depth + 1, In) + In + "end\n";
  case 7:
    return In + "while " + luaExp(G, 1) + " do\n" + luaBlock(G, Depth + 1, In) +
           In + "end\n";
  default:
    return In + "function " + G.name("M") + "." + G.name("fn") +
           "(a, b, ...)\n" + luaBlock(G, Depth + 1, In) + In + "  return a\n" +
           In + "end\n";
  }
}

std::string luaBlock(Gen &G, int Depth, const std::string &Indent) {
  std::string Out;
  int N = G.range(1, 3);
  for (int I = 0; I < N; ++I)
    Out += luaStat(G, Depth, Indent + "  ");
  return Out;
}

std::string sexpr(Gen &G, int Depth) {
  switch (G.pick(Depth >= 3 ? 3 : 6)) {
  case 0:
    return G.word() + "-" + G.num();
  case 1:
    return G.chance(50) ? G.num() : "-" + G.num() + "." + G.num(100);
  case 2:
    return "\"" + G.word() + " \\\"q\\\"\"";
  case 3:
    return "'" + sexpr(G, Depth + 1);
  default: {
    std::string Out = "(" + G.word();
    int N = G.range(1, 4);
    for (int I = 0; I < N; ++I)
      Out += " " + sexpr(G, Depth + 1);
    return Out + ")";
  }
  }
}

/// Shipped-grammar document of \p Units units.
std::string shippedDocument(const std::string &Name, int Units, Gen &G) {
  std::string Out;
  if (Name == "Csv") {
    Out = "id,name,kind,count,comment,extra\n";
    for (int I = 0; I < Units; ++I)
      Out += csvUnit(G);
  } else if (Name == "Dot") {
    Out = "digraph " + G.name("g") + " {\n";
    for (int I = 0; I < Units; ++I)
      Out += "  " + dotStmt(G, 0);
    Out += "}\n";
  } else if (Name == "Ini") {
    for (int I = 0; I < Units; ++I)
      Out += iniUnit(G);
  } else if (Name == "Json") {
    Out = "{\"items\": [";
    for (int I = 0; I < Units; ++I)
      Out += (I ? ",\n  " : "\n  ") + jsonValue(G, 1);
    Out += "\n], \"total\": " + std::to_string(Units) + "}\n";
  } else if (Name == "Lambda") {
    // One term: a left-associative application spine whose arguments are
    // bounded-depth lets, lambdas and applications.
    Out = G.name("main");
    for (int I = 0; I < Units; ++I)
      Out += (I % 8 ? " " : "\n  ") + lambdaTerm(G, 1);
    Out += "\n";
  } else if (Name == "Lua") {
    for (int I = 0; I < Units; ++I)
      Out += luaStat(G, 0, "");
    Out += "return " + G.name("v") + "\n";
  } else if (Name == "Sexpr") {
    for (int I = 0; I < Units; ++I) {
      Out += sexpr(G, 0) + "\n";
      if (G.chance(5))
        Out += "; " + G.word() + "\n";
    }
  } else {
    std::fprintf(stderr, "perfbench: no generator for grammar %s\n",
                 Name.c_str());
    std::exit(2);
  }
  return Out;
}

} // namespace

std::vector<GrammarSource> shippedGrammars(const std::string &Root) {
  static const char *const Files[][2] = {
      {"Csv", "csv"},       {"Dot", "dot"}, {"Ini", "ini"},
      {"Json", "json"},     {"Lambda", "lambda"},
      {"Lua", "lua"},       {"Sexpr", "sexpr"},
  };
  std::vector<GrammarSource> Out;
  for (const auto &F : Files)
    Out.push_back(
        {F[0], readFile(Root + "/grammars/" + F[1] + ".g"), "", true});
  return Out;
}

std::vector<GrammarSource> analogGrammars() {
  std::vector<GrammarSource> Out;
  for (const char *Name : {"Java", "RatsJava", "CSharp", "Sql", "Basic"}) {
    const llstar::bench::BenchGrammar &B = llstar::bench::benchGrammar(Name);
    Out.push_back({B.Name, B.Text, B.StartRule, false});
  }
  return Out;
}

std::string generateUnits(const GrammarSource &G, int Units, uint64_t Seed) {
  if (!G.Shipped) {
    const llstar::bench::BenchGrammar &B = llstar::bench::benchGrammar(G.Name);
    return B.Workload(Units, unsigned(Seed ^ (Seed >> 32)));
  }
  Gen R(Seed);
  return shippedDocument(G.Name, Units, R);
}

std::string generateBytes(const GrammarSource &G, size_t Bytes,
                          uint64_t Seed) {
  // Size from a probe document, then top up: generation is cheap next to
  // parsing, and regenerating keeps the document a single seeded draw.
  std::string Probe = generateUnits(G, 64, Seed);
  int Units = int(double(Bytes) / double(Probe.size()) * 64.0) + 1;
  for (;;) {
    std::string Doc = generateUnits(G, Units, Seed);
    if (Doc.size() >= Bytes)
      return Doc;
    Units += Units / 16 + 1;
  }
}

size_t bulkIndex(size_t Grammars, size_t Grammar, size_t SizeClass) {
  size_t I = 0;
  while (I % Grammars != Grammar || I % 3 != SizeClass)
    ++I;
  return I;
}

std::vector<Item> bulkCorpus(const std::vector<GrammarSource> &Grammars,
                             uint64_t Seed) {
  static const size_t Sizes[] = {size_t(64) << 10, size_t(256) << 10,
                                 size_t(1) << 20};
  size_t NG = Grammars.size();
  if (NG % 3 == 0) {
    std::fprintf(stderr, "perfbench: bulk needs a grammar count prime to 3\n");
    std::exit(2);
  }
  std::vector<Item> Out(3 * NG);
  for (size_t I = 0; I < Out.size(); ++I) {
    size_t GI = I % NG, Size = Sizes[I % 3];
    Out[I] = {int(GI), generateBytes(Grammars[GI], Size,
                                     Seed * 1000003 + GI * 31 + Size)};
  }
  return Out;
}

std::vector<Item> daemonPool(const std::vector<GrammarSource> &Grammars,
                             size_t Count, uint64_t Seed) {
  // Stratified, so every seed draws the same mix: each grammar gets an
  // equal share of light and heavy requests, and sizes step evenly through
  // their ranges. Only the content and the order depend on the seed.
  Gen R(Seed);
  size_t NG = Grammars.size();
  size_t Heavy = Count / 25; // 4%
  std::vector<Item> Out;
  Out.reserve(Count);
  for (size_t I = 0; I < Count; ++I) {
    bool IsHeavy = I < Heavy;
    size_t K = IsHeavy ? I : I - Heavy;
    size_t GI = K % NG;
    size_t Stratum = K / NG;
    bool Shipped = Grammars[GI].Shipped;
    int Units;
    if (IsHeavy) {
      size_t PerGrammar = (Heavy + NG - 1) / NG;
      double At = (double(Stratum) + 0.5) / double(PerGrammar);
      Units = Shipped ? 64 + int(At * 192) : 8 + int(At * 24);
    } else {
      Units = Shipped ? 1 + int(Stratum % 8) : 1 + int(Stratum % 2);
    }
    Out.push_back({int(GI), generateUnits(Grammars[GI], Units, R.Rng())});
  }
  std::shuffle(Out.begin(), Out.end(), R.Rng);
  return Out;
}

void applyEditTo(std::string &Text, const llstar::incremental::Edit &E) {
  Text.erase(size_t(E.Offset), size_t(E.OldLen));
  Text.insert(size_t(E.Offset), E.NewText);
}

std::vector<llstar::incremental::Edit>
editScript(const std::string &Doc, int Excursions, uint64_t Seed) {
  using llstar::incremental::Edit;
  Gen R(Seed);
  std::vector<Edit> Out;
  std::string Text = Doc;
  auto Push = [&](Edit E) {
    applyEditTo(Text, E);
    Out.push_back(std::move(E));
  };
  auto Pos = [&] { return int64_t(R.pick(int(Text.size()))); };
  // Stratified: the excursion kinds take turns, their sizes step through
  // fixed ranges, and excursion X edits inside its own slice of the
  // document (slices visited in a seeded order). The seed moves edits
  // within their slices and picks the copied text.
  std::vector<int> Slice(size_t(std::max(Excursions, 0)));
  for (int X = 0; X < Excursions; ++X)
    Slice[size_t(X)] = X;
  std::shuffle(Slice.begin(), Slice.end(), R.Rng);
  auto SlicePos = [&](int X) {
    double U = (double(Slice[size_t(X)]) + double(R.pick(1000)) / 1000.0) /
               double(Excursions);
    return std::min(int64_t(U * double(Text.size())), int64_t(Text.size()) - 1);
  };
  for (int X = 0; X < Excursions; ++X) {
    int Round = X / 4;
    switch (X % 4) {
    case 0: { // typing burst of text copied from the document, then undo
      int64_t At = SlicePos(X);
      int Len = 3 + Round % 8;
      std::string Snippet = Text.substr(size_t(Pos()), size_t(Len));
      for (size_t I = 0; I < Snippet.size(); ++I)
        Push({At + int64_t(I), 0, Snippet.substr(I, 1)});
      Push({At, int64_t(Snippet.size()), ""});
      break;
    }
    case 1: { // block delete, then paste it back
      int64_t At = SlicePos(X);
      int64_t Len = std::min<int64_t>(int64_t(64) << (Round % 6),
                                      int64_t(Text.size()) - At);
      if (Len <= 0)
        break;
      std::string Block = Text.substr(size_t(At), size_t(Len));
      Push({At, Len, ""});
      Push({At, 0, Block});
      break;
    }
    case 2: { // paste a copied block elsewhere, then remove it
      std::string Block =
          Text.substr(size_t(Pos()), size_t(int64_t(64) << (Round % 5)));
      int64_t At = SlicePos(X);
      if (Block.empty())
        break;
      Push({At, 0, Block});
      Push({At, int64_t(Block.size()), ""});
      break;
    }
    default: { // break the syntax, edit elsewhere while broken, repair
      static const char *const Breakers[] = {"(", "{", "[", ",", "=", "end "};
      std::string Breaker = Breakers[Round % 6];
      int64_t At = SlicePos(X);
      Push({At, 0, Breaker});
      std::vector<Edit> Undo;
      int Digits = 1 + Round % 3;
      for (int D = 0; D < Digits; ++D) {
        int64_t P = Pos();
        auto IsDigit = [&](int64_t At) {
          return std::isdigit(uint8_t(Text[size_t(At)])) != 0;
        };
        for (int Tries = 0; Tries < 64 && !IsDigit(P); ++Tries)
          P = Pos();
        if (!IsDigit(P))
          continue;
        std::string Old = Text.substr(size_t(P), 1);
        char New = char('0' + (Old[0] - '0' + 1 + R.pick(8)) % 10);
        Push({P, 1, std::string(1, New)});
        Undo.push_back({P, 1, Old});
      }
      for (auto It = Undo.rbegin(); It != Undo.rend(); ++It)
        Push(*It);
      // Every undo restored the bytes at its own position, so the breaker
      // is back where it was inserted.
      Push({At, int64_t(Breaker.size()), ""});
      break;
    }
    }
  }
  if (Text != Doc) {
    std::fprintf(stderr, "perfbench: edit script does not round-trip\n");
    std::exit(2);
  }
  return Out;
}

} // namespace perfbench

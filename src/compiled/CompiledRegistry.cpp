#include "compiled/CompiledRegistry.h"

#include "analysis/AnalyzedGrammar.h"

#include <mutex>

using namespace llstar;
using namespace llstar::compiled;

uint64_t llstar::compiled::hashPayload(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

namespace {
struct Registry {
  std::mutex Lock;
  std::vector<const CompiledGrammarModule *> Modules;
};

Registry &registry() {
  static Registry R;
  return R;
}
} // namespace

void llstar::compiled::registerCompiledModule(const CompiledGrammarModule &M) {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  for (const CompiledGrammarModule *&Existing : R.Modules) {
    if (std::string_view(Existing->GrammarName) ==
        std::string_view(M.GrammarName)) {
      Existing = &M;
      return;
    }
  }
  R.Modules.push_back(&M);
}

const CompiledGrammarModule *
llstar::compiled::findCompiledModule(std::string_view GrammarName) {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  for (const CompiledGrammarModule *M : R.Modules)
    if (std::string_view(M->GrammarName) == GrammarName)
      return M;
  return nullptr;
}

std::vector<const CompiledGrammarModule *> llstar::compiled::compiledModules() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  return R.Modules;
}

CompiledResolution
llstar::compiled::resolveCompiledTables(const AnalyzedGrammar &AG,
                                        std::string_view SerializedPayload) {
  CompiledResolution Res;
  if (!SerializedPayload.empty()) {
    if (const CompiledGrammarModule *M =
            findCompiledModule(AG.grammar().Name)) {
      if (M->PayloadHash == hashPayload(SerializedPayload)) {
        Res.View = M->Tables;
        Res.Native = M->Native;
        Res.Rules = M->Rules;
        Res.Module = M;
        return Res;
      }
    }
  }
  auto Owned = std::make_shared<CompiledTables>(CompiledTables::build(AG));
  Res.View = Owned->view();
  Res.Owned = std::move(Owned);
  return Res;
}

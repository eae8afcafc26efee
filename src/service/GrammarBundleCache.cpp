#include "service/GrammarBundleCache.h"

#include "codegen/Serializer.h"
#include "support/StringUtils.h"

using namespace llstar;

std::shared_ptr<const GrammarBundle>
llstar::makeGrammarBundle(std::string_view Bytes, DiagnosticEngine &Diags) {
  auto Bundle = std::shared_ptr<GrammarBundle>(new GrammarBundle());
  Bundle->Hash = hashBytes(Bytes);

  Bundle->AG = looksLikeBundle(Bytes) ? readBundle(Bytes, Diags)
                                      : analyzeGrammarText(Bytes, Diags);
  return Bundle->AG ? Bundle : nullptr;
}

const compiled::CompiledResolution &GrammarBundle::compiledTables() const {
  std::call_once(CompiledOnce, [this] {
    // The serialized payload keys the module-registry hash gate; one
    // serialization per bundle, amortized over every request.
    Compiled = compiled::resolveCompiledTables(*AG, serializeGrammar(*AG));
  });
  return Compiled;
}

std::shared_ptr<const GrammarBundle>
GrammarBundleCache::get(std::string_view Bytes, DiagnosticEngine &Diags) {
  uint64_t Key = hashBytes(Bytes);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      ++Stats.Hits;
      return It->second;
    }
  }

  // Load outside the lock: analysis can be slow and must not stall workers
  // fetching unrelated bundles. Two threads racing on the same new content
  // both load; the first insert wins and the duplicate is dropped.
  std::shared_ptr<const GrammarBundle> Bundle =
      makeGrammarBundle(Bytes, Diags);

  std::lock_guard<std::mutex> Lock(Mu);
  if (!Bundle) {
    ++Stats.LoadFailures;
    return nullptr;
  }
  ++Stats.Misses;
  auto [It, Inserted] = Map.emplace(Key, std::move(Bundle));
  return It->second;
}

std::shared_ptr<const GrammarBundle>
GrammarBundleCache::find(uint64_t Hash) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Hash);
  return It == Map.end() ? nullptr : It->second;
}

std::shared_ptr<const GrammarBundle>
GrammarBundleCache::getFile(const std::string &Path, DiagnosticEngine &Diags) {
  std::string Bytes;
  if (!readFile(Path, Bytes)) {
    Diags.error("cannot read grammar file '" + Path + "'");
    return nullptr;
  }
  return get(Bytes, Diags);
}

GrammarBundleCache::CacheStats GrammarBundleCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheStats S = Stats;
  S.Entries = Map.size();
  return S;
}

void GrammarBundleCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.clear();
  Stats = CacheStats();
}

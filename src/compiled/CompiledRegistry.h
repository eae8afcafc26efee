//===- compiled/CompiledRegistry.h - Compiled-grammar registry --*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conformance-gated registry of ahead-of-time compiled grammar
/// modules. `llstar compile --emit-cpp` turns a grammar into a
/// self-contained C++ module holding the flat dispatch tables of
/// compiled/CompiledTables.h as static data, generated switch predictors
/// for its predicate-free decisions and goto-threaded rule bodies; the
/// module registers itself here under the grammar's name plus the FNV-1a
/// hash of its serialized analysis payload. A module carries no lexer: the
/// grammar's one compiled lexer is \ref AnalyzedGrammar::lexer.
///
/// The hash is the gate: \ref resolveCompiledTables only serves a module
/// when the payload hash of the grammar just loaded matches the hash the
/// module was generated from. A stale module (grammar edited after the
/// last `--emit-cpp` run) silently falls back to flattening the fresh
/// analysis at load time — same engine, same behavior, only the zero-cost
/// static tables and native predictors are skipped. CI additionally fails
/// the build when regenerating a module produces a diff, so shipped
/// modules cannot go stale unnoticed.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_COMPILED_COMPILEDREGISTRY_H
#define LLSTAR_COMPILED_COMPILEDREGISTRY_H

#include "compiled/CompiledTables.h"

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace llstar {

class AnalyzedGrammar;

namespace compiled {

/// One generated grammar module: every pointer references static storage
/// inside the generated translation unit, so modules are trivially
/// shareable across threads and live for the whole process.
struct CompiledGrammarModule {
  const char *GrammarName = nullptr;
  /// FNV-1a hash of serializeGrammar() output for the grammar this module
  /// was generated from (see \ref hashPayload).
  uint64_t PayloadHash = 0;

  /// The flat parser tables (static-storage twin of CompiledTables).
  TablesView Tables;
  /// Per decision: generated switch predictor, or null for decisions that
  /// need the table walk (predicated DFAs). Null when none were generated.
  const NativePredictFn *Native = nullptr;
  /// Per rule: generated goto-threaded rule body (every jump target and
  /// token label folded to a constant), or null to fall back to the table
  /// walk. Null when none were generated.
  const NativeRuleFn *Rules = nullptr;
};

/// FNV-1a over \p Bytes; the hash \ref CompiledGrammarModule::PayloadHash
/// is computed with (matches the bundle-container content hash).
uint64_t hashPayload(std::string_view Bytes);

/// Registers \p M (idempotent per grammar name + hash; a new hash for an
/// existing name replaces the older module). \p M must live for the whole
/// process — generated modules pass static-storage objects.
void registerCompiledModule(const CompiledGrammarModule &M);

/// Module registered under \p GrammarName, or null.
const CompiledGrammarModule *findCompiledModule(std::string_view GrammarName);

/// All registered modules (stable registration order).
std::vector<const CompiledGrammarModule *> compiledModules();

/// A resolved set of compiled tables for one grammar: either a registered
/// module whose payload hash matched (zero-cost static tables + native
/// predictors) or a load-time flattening of the analysis.
struct CompiledResolution {
  /// Owns the tables when flattened at load time; null for module hits.
  std::shared_ptr<const CompiledTables> Owned;
  TablesView View;
  const NativePredictFn *Native = nullptr;
  const NativeRuleFn *Rules = nullptr;
  /// The matched module, or null when flattened at load time.
  const CompiledGrammarModule *Module = nullptr;

  bool fromModule() const { return Module != nullptr; }
};

/// Resolves tables for \p AG. \p SerializedPayload is the output of
/// serializeGrammar(AG) (the caller computes it because this library must
/// not depend on the serializer); pass empty to skip the module lookup and
/// always flatten.
CompiledResolution resolveCompiledTables(const AnalyzedGrammar &AG,
                                         std::string_view SerializedPayload);

} // namespace compiled
} // namespace llstar

#endif // LLSTAR_COMPILED_COMPILEDREGISTRY_H

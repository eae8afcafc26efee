//===- codegen/CompiledModuleEmitter.h - Grammar -> C++ module --*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits an analyzed grammar as a self-contained C++ translation unit: the
/// flat dispatch tables of compiled/CompiledTables.h as static arrays, a
/// generated switch-dispatch predictor function per predicate-free
/// decision, a goto-threaded function per rule, and one extern
/// \ref llstar::compiled::CompiledGrammarModule object stamped with the
/// FNV-1a hash of the grammar's serialized analysis payload. The emitted
/// file compiles against compiled/CompiledRegistry.h only. It carries no
/// lexer: loaders tokenize with \ref AnalyzedGrammar::lexer.
///
/// This is the `llstar compile --emit-cpp` backend and the generator for
/// the checked-in grammars/compiled/ registry; emission is deterministic
/// (byte-identical output for an unchanged grammar) so CI can diff
/// regenerated modules against the committed ones to catch staleness.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_CODEGEN_COMPILEDMODULEEMITTER_H
#define LLSTAR_CODEGEN_COMPILEDMODULEEMITTER_H

#include <cstdint>
#include <string>

namespace llstar {

class AnalyzedGrammar;

/// Result of emitting one grammar module.
struct EmittedCompiledModule {
  /// Complete C++ source of the module.
  std::string Source;
  /// Name of the extern module object (`kModule_<grammar>`).
  std::string SymbolName;
  /// Decisions that received a generated switch predictor (the rest use
  /// the dense-table walk at run time).
  int32_t NumNativePredictors = 0;
  int32_t NumDecisions = 0;
  /// Rules that received a generated goto-threaded body (always all of
  /// them; kept as a count for tool diagnostics).
  int32_t NumNativeRules = 0;
  int32_t NumRules = 0;
  /// Approximate static-data footprint of the emitted tables, in bytes.
  size_t TableBytes = 0;
};

/// Emits the compiled module for \p AG.
EmittedCompiledModule emitCompiledModule(const AnalyzedGrammar &AG);

} // namespace llstar

#endif // LLSTAR_CODEGEN_COMPILEDMODULEEMITTER_H

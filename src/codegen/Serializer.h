//===- codegen/Serializer.h - Compiled-grammar serialization ----*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes an analyzed grammar — vocabulary, rule table, options, the
/// compiled lexer DFA, the ATN, and every decision's lookahead DFA — to a
/// compact line-based text form, and loads it back. This is the ANTLR
/// "serialized ATN" idea: grammar analysis runs once at generation time;
/// deployed parsers just load tables.
///
/// The deserialized \ref AnalyzedGrammar drives \ref LLStarParser and
/// tokenizes exactly like a freshly analyzed grammar (the Grammar object
/// carries names, vocabulary, and options, but no rule bodies or lexer
/// spec — the ATN is the program and the lexer tables are the tokenizer).
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_CODEGEN_SERIALIZER_H
#define LLSTAR_CODEGEN_SERIALIZER_H

#include "analysis/AnalyzedGrammar.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <string_view>

namespace llstar {

/// Serializes \p AG, its compiled lexer (\ref AnalyzedGrammar::lexer)
/// included, into the v1 text format. Compiles nothing.
std::string serializeGrammar(const AnalyzedGrammar &AG);

/// Parses the v1 text format; returns null and reports to \p Diags on any
/// structural error. All table indices (ATN targets, DFA edges, lexer
/// transitions, rule/predicate/action references) are bounds-checked, so a
/// corrupt payload is a diagnostic, never undefined behavior at parse time.
/// The result's lexer is the decoded tables; no regex is compiled.
std::unique_ptr<AnalyzedGrammar>
deserializeGrammar(std::string_view Text, DiagnosticEngine &Diags);

//===----------------------------------------------------------------------===//
// Bundle container
//===----------------------------------------------------------------------===//
//
// The on-disk / over-the-wire form used by the parse service and the
// `llstar compile` command: a versioned header line
//
//   llstarbundle <format-version> <payload-bytes> <payload-fnv1a> llstar\n
//
// followed by the serialized-grammar payload. The header lets loaders
// reject wrong-version and corrupt (truncated, bit-flipped) bundles with a
// clean diagnostic before touching the payload parser. The trailing
// analysis word is new in v3. Earlier builds with a second analysis
// backend could write that backend's name there; readBundle accepts only
// "llstar" and rejects the removed backend with its own diagnostic. The
// word lives in the container, not the payload, so payload bytes — and
// the checked-in compiled-module hashes keyed on them — are identical
// across versions.

/// Version stamped into bundle headers written by \ref writeBundle.
/// v2 added the `recover` payload section (per-state recovery tables);
/// v3 added the analysis word to the container header (v2 bundles still
/// load).
constexpr int64_t BundleFormatVersion = 3;

/// Serializes \p AG and wraps it in the versioned bundle container.
std::string writeBundle(const AnalyzedGrammar &AG);

/// True if \p Bytes starts with the bundle container magic (cheap sniff
/// used to distinguish bundle files from grammar source).
bool looksLikeBundle(std::string_view Bytes);

/// Verifies the container (magic, version, declared size, content hash)
/// and deserializes the payload. Returns null with a diagnostic on any
/// mismatch.
std::unique_ptr<AnalyzedGrammar> readBundle(std::string_view Bytes,
                                            DiagnosticEngine &Diags);

} // namespace llstar

#endif // LLSTAR_CODEGEN_SERIALIZER_H

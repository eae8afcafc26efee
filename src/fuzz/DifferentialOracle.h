//===- fuzz/DifferentialOracle.h - Cross-engine conformance -----*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conformance oracle of the fuzzing harness. For one grammar it runs
/// three classes of checks, any failure of which is a bug somewhere in the
/// toolkit (given a generator-envelope grammar, see GrammarGenerator.h):
///
///  1. **Differential**: every sentence is parsed by the LL(*)
///     predictor-driven parser and by the packrat/PEG baseline; the
///     verdicts must agree, and when both accept (and the grammar has no
///     precedence-rewritten rules, whose trees legitimately differ) the
///     parse trees must be identical.
///  2. **Determinism**: analyzing the same grammar text twice must produce
///     byte-identical serialized automata (ATN + every lookahead DFA +
///     lexer DFA).
///  3. **Serializer round-trip**: serialize -> reload -> the compiled
///     grammar must tokenize identically and its LL(*) parser must return
///     the same verdict and tree as the freshly analyzed grammar.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_FUZZ_DIFFERENTIALORACLE_H
#define LLSTAR_FUZZ_DIFFERENTIALORACLE_H

#include "analysis/AnalyzedGrammar.h"
#include "codegen/Serializer.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>

namespace llstar {
namespace fuzz {

/// Outcome of one oracle check. `Check` is a stable failure-kind tag so
/// minimizers can verify a shrunken case still fails *the same way*.
struct OracleVerdict {
  bool Failed = false;
  std::string Check;  ///< e.g. "accept-mismatch", "tree-mismatch"
  std::string Detail; ///< human-readable explanation

  static OracleVerdict ok() { return {}; }
  static OracleVerdict fail(std::string Check, std::string Detail) {
    return {true, std::move(Check), std::move(Detail)};
  }
};

/// Conformance oracle for one grammar text.
class DifferentialOracle {
public:
  /// Analyzes \p GrammarText once (plus the serializer round-trip). Check
  /// \ref valid() before calling the per-sentence oracle.
  explicit DifferentialOracle(std::string GrammarText);

  /// False when the grammar failed to parse/analyze; \ref grammarError
  /// then explains why. For generator-produced grammars this is itself a
  /// generator bug.
  bool valid() const { return AG != nullptr; }
  const std::string &grammarError() const { return GrammarErr; }

  /// Grammar-level checks: analysis determinism and serializer reload.
  OracleVerdict checkGrammar();

  /// Sentence-level checks: differential verdict/tree agreement plus
  /// re-prediction through the deserialized grammar.
  OracleVerdict checkSentence(const std::string &Input);

  /// Packrat verdict of the most recent checkSentence (in-language
  /// labeling for samplers/mutators).
  bool lastAccepted() const { return LastAccepted; }

  const AnalyzedGrammar &analyzed() const { return *AG; }

  /// True when LL(*) and packrat trees are expected to match: grammars
  /// with precedence-rewritten rules nest operators differently (packrat
  /// ignores precedence predicates), so only verdicts are compared there.
  bool treesComparable() const { return TreesCmp; }

private:
  std::string Text;
  std::string GrammarErr;
  std::unique_ptr<AnalyzedGrammar> AG;
  /// The grammar reloaded from its own serialized tables.
  std::unique_ptr<AnalyzedGrammar> Reloaded;
  bool TreesCmp = true;
  bool LastAccepted = false;
};

} // namespace fuzz
} // namespace llstar

#endif // LLSTAR_FUZZ_DIFFERENTIALORACLE_H

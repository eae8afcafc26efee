//===- lexer/Lexer.h - DFA-driven tokenizer ---------------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a \ref LexerSpec into a single byte-DFA (via the regex
/// substrate) and tokenizes input text with maximal munch; ties resolve by
/// rule priority. Unrecognized characters produce a diagnostic and are
/// skipped so lexing always terminates.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_LEXER_LEXER_H
#define LLSTAR_LEXER_LEXER_H

#include "lexer/LexerSpec.h"
#include "lexer/Token.h"
#include "regex/CharDFA.h"
#include "support/Diagnostics.h"

#include <string>
#include <string_view>
#include <vector>

namespace llstar {

/// A compiled tokenizer.
class Lexer {
public:
  /// Compiles \p Spec; reports problems (e.g. a rule matching the empty
  /// string) to \p Diags.
  Lexer(const LexerSpec &Spec, DiagnosticEngine &Diags);

  /// Constructs from precompiled tables (deserialized grammars; see
  /// codegen/Serializer.h).
  Lexer(regex::CharDfa Dfa, std::vector<LexerAction> Actions,
        std::vector<TokenType> Types)
      : Dfa(std::move(Dfa)), Actions(std::move(Actions)),
        Types(std::move(Types)) {}

  /// Tokenizes all of \p Input. The result always ends with an EOF token.
  /// Skipped tokens are dropped. Hidden-channel tokens (whitespace,
  /// comments marked `-> hidden`) are omitted from the parse stream but
  /// collected into \p HiddenOut when provided — the hook tools use to
  /// preserve trivia for reformatting or comment extraction.
  ///
  /// The tokens are views into \p Input (see \ref Token): they stay valid
  /// only while the caller keeps that buffer alive and unmodified.
  std::vector<Token> tokenize(std::string_view Input, DiagnosticEngine &Diags,
                              std::vector<Token> *HiddenOut = nullptr) const;
  std::vector<Token> tokenize(const char *Input, DiagnosticEngine &Diags,
                              std::vector<Token> *HiddenOut = nullptr) const {
    return tokenize(std::string_view(Input), Diags, HiddenOut);
  }
  /// Tokens of a temporary string would dangle as soon as it dies.
  std::vector<Token> tokenize(std::string &&, DiagnosticEngine &,
                              std::vector<Token> * = nullptr) const = delete;

  /// Number of DFA states in the compiled automaton (after minimization).
  size_t numDfaStates() const { return Dfa.size(); }

  /// Table access for serialization.
  const regex::CharDfa &dfa() const { return Dfa; }
  const std::vector<LexerAction> &actions() const { return Actions; }
  const std::vector<TokenType> &types() const { return Types; }

private:
  regex::CharDfa Dfa;
  std::vector<LexerAction> Actions; // indexed by rule tag
  std::vector<TokenType> Types;     // indexed by rule tag
};

} // namespace llstar

#endif // LLSTAR_LEXER_LEXER_H

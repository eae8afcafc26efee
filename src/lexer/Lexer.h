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

class Vocabulary;

/// A compiled tokenizer.
class Lexer {
public:
  /// Compiles \p Spec, whose token types \p Vocab names; reports problems
  /// (e.g. a rule matching the empty string) to \p Diags, by rule name and
  /// at the rule's location.
  Lexer(const LexerSpec &Spec, const Vocabulary &Vocab,
        DiagnosticEngine &Diags);

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

  /// One maximal-munch step (see \ref scan).
  struct Step {
    /// Rule tag of the longest match, or -1 when no rule matches at the
    /// start position (one unrecognized byte).
    int32_t Tag;
    /// Bytes the step consumes: the match length, or 1 for an
    /// unrecognized byte.
    int64_t Len;
    /// One past the last byte the DFA walk examined; `Input.size() + 1`
    /// when the walk ran off the end in a live state (appended bytes could
    /// change the match).
    int64_t LookEnd;
  };

  /// Scans the token at \p Pos (< Input.size()) and advances \p Line /
  /// \p Col past the bytes the step consumes. One fused pass: the
  /// maximal-munch DFA walk (see CharDfa::matchLongestPrefix) with
  /// line/column tracking folded in. The walk may overshoot the last accept
  /// before dying, so the position is snapshotted at every accept and
  /// restored from the snapshot instead of re-walking the matched bytes.
  /// Both the batch and the incremental lexer tokenize with this.
  Step scan(std::string_view Input, size_t Pos, uint32_t &Line,
            uint32_t &Col) const {
    const std::vector<regex::CharDfaState> &States = Dfa.states();
    int32_t State = 0;
    int32_t Tag = States[0].AcceptTag;
    int64_t BestLen = Tag >= 0 ? 0 : -1;
    uint32_t BestLine = Line, BestCol = Col;
    uint32_t CurLine = Line, CurCol = Col;
    int64_t LookEnd = int64_t(Input.size()) + 1;
    for (size_t I = Pos; I < Input.size(); ++I) {
      State = States[size_t(State)].Next[static_cast<unsigned char>(Input[I])];
      if (State < 0) {
        LookEnd = int64_t(I) + 1;
        break;
      }
      if (Input[I] == '\n') {
        ++CurLine;
        CurCol = 0;
      } else {
        ++CurCol;
      }
      int32_t Accept = States[size_t(State)].AcceptTag;
      if (Accept >= 0) {
        BestLen = int64_t(I - Pos) + 1;
        Tag = Accept;
        BestLine = CurLine;
        BestCol = CurCol;
      }
    }
    if (BestLen <= 0) {
      if (Input[Pos] == '\n') {
        ++Line;
        Col = 0;
      } else {
        ++Col;
      }
      return {-1, 1, LookEnd};
    }
    Line = BestLine;
    Col = BestCol;
    return {Tag, BestLen, LookEnd};
  }

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

//===- incremental/IncrementalLexer.h - Damage-window relexing --*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental tokenization: re-lex only the window an edit damaged and
/// splice the result into the previous token stream.
///
/// The lexer keeps a session-side index of *lexemes* — every maximal-munch
/// unit the DFA produced, including skipped whitespace, hidden trivia, and
/// unrecognized bytes (which the batch lexer reports and skips). Each
/// lexeme records, besides its span and start position, `LookEnd`: one
/// past the last byte its DFA walk examined. Maximal munch overshoots —
/// the walk runs past the final accept until the automaton dies — so a
/// lexeme's result can depend on bytes well beyond its own span, and a
/// lexeme whose walk reached the end of input with a live state is marked
/// as having examined the end itself (appends may extend it).
///
/// An edit at byte `Offset` damages exactly the lexemes whose walks
/// examined any byte at or past `Offset`; everything before them is
/// retained verbatim. Because overshoot can leapfrog later short lexemes,
/// the damage test uses the running maximum of `LookEnd`, so the retained
/// prefix is the longest prefix in which *no* walk saw the edit. Re-lexing
/// restarts at the first damaged lexeme and stops at the first fresh
/// lexeme boundary past the inserted text that lands on a former lexeme
/// start: from that point the bytes are untouched, and a DFA walk from a
/// clean boundary over identical bytes is identical, so the old suffix is
/// retained with its offsets, indices, and line/column positions shifted.
///
/// The resulting token vector is byte-for-byte the one Lexer::tokenize
/// would produce for the whole new text — same types, texts, offsets,
/// line/column positions, and indices — which `llstar-fuzz --edit-smoke`
/// enforces across random edit scripts.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_INCREMENTAL_INCREMENTALLEXER_H
#define LLSTAR_INCREMENTAL_INCREMENTALLEXER_H

#include "lexer/Lexer.h"
#include "lexer/Token.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace llstar {
namespace incremental {

/// One maximal-munch unit of the session text (emitted token, skipped or
/// hidden trivia, or a single unrecognized byte).
struct Lexeme {
  int64_t Off = 0;     ///< byte offset of the first byte
  int64_t Len = 0;     ///< bytes matched (1 for unrecognized bytes)
  int64_t LookEnd = 0; ///< one past the last byte the DFA walk examined;
                       ///< text size + 1 when the walk reached the end of
                       ///< input with a live state
  int64_t MaxLook = 0; ///< running max of LookEnd over this and all
                       ///< earlier lexemes (the damage test)
  int32_t Tag = -1;    ///< DFA rule tag; -1 = unrecognized byte
  uint32_t Line = 1;   ///< start position (1-based line, 0-based column)
  uint32_t Col = 0;
};

/// Maintains the lexeme index and parser-visible token vector for one
/// evolving text. The referenced Lexer supplies the DFA tables and must
/// outlive this object.
class IncrementalLexer {
public:
  explicit IncrementalLexer(const Lexer &Lex) : Lex(Lex) {}

  /// The damaged region of one \ref relex call, in token indices.
  /// Tokens [0, InvalidLo) are retained unchanged; old tokens
  /// [OldInvalidHi, oldCount) survive as new tokens [NewInvalidHi,
  /// newCount) with offset/index/position shifted. Everything between
  /// was re-lexed.
  struct Damage {
    int64_t InvalidLo = 0;
    int64_t OldInvalidHi = 0;
    int64_t NewInvalidHi = 0;
    int64_t TokenDelta = 0;  ///< new token count - old token count
    int64_t Relexed = 0;     ///< lexemes produced by the damage walk
  };

  /// Tokenizes \p Text from scratch, replacing all state. The tokens are
  /// views into \p Text, which the caller keeps alive.
  void lexAll(std::string_view Text);

  /// Applies an edit: \p NewText is the already-spliced text, and
  /// (\p Offset, \p OldLen, \p NewLen) describe the replacement. Only the
  /// damaged window is re-lexed; the token vector is spliced in place, and
  /// every token views \p NewText afterwards — re-pointed wholesale only
  /// when the splice moved the buffer.
  Damage relex(std::string_view NewText, int64_t Offset, int64_t OldLen,
               int64_t NewLen);

  /// Re-reports the "unrecognized character" diagnostics for every error
  /// lexeme, exactly as a from-scratch Lexer::tokenize over \p Text would.
  void emitLexDiagnostics(std::string_view Text, DiagnosticEngine &Diags) const;

  /// The parser-visible tokens (always ending with EOF), identical to
  /// Lexer::tokenize output for the current text.
  const std::vector<Token> &tokens() const { return Toks; }

  const std::vector<Lexeme> &lexemes() const { return Lexemes; }

private:
  /// One maximal-munch walk at \p Pos; \p Line / \p Col are the position
  /// of \p Pos on entry and of the following lexeme on return.
  Lexeme scanOne(std::string_view Text, int64_t Pos, uint32_t &Line,
                 uint32_t &Col) const;

  /// Index of the first lexeme whose damage test covers \p Offset
  /// (binary search over the monotonic MaxLook), or lexemes().size().
  size_t firstDamaged(int64_t Offset) const;

  /// Index of the lexeme starting exactly at \p Off, or SIZE_MAX.
  size_t lexemeAt(int64_t Off) const;

  /// Rebuilds MaxLook from \p From to the end.
  void recomputeMaxLook(size_t From);

  /// The view token for emitted lexeme \p L of \p Text.
  Token tokenOf(std::string_view Text, const Lexeme &L) const;

  /// Re-points the views of tokens [0, \p End) at \p Text when the text
  /// buffer moved since the last lex (an edit that reallocated it).
  void rebase(std::string_view Text, int64_t End = INT64_MAX);

  const Lexer &Lex;
  std::vector<Lexeme> Lexemes;
  std::vector<Token> Toks; ///< emitted tokens + EOF, views into the text
  /// The text buffer the views in Toks point into.
  const char *Base = nullptr;
  /// Position one past the final lexeme (the EOF token's location).
  uint32_t EndLine = 1, EndCol = 0;
};

} // namespace incremental
} // namespace llstar

#endif // LLSTAR_INCREMENTAL_INCREMENTALLEXER_H

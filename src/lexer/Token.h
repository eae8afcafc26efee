//===- lexer/Token.h - Tokens and token type constants ----------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The token record produced by the lexer and consumed by parsers, plus the
/// distinguished token-type constants.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_LEXER_TOKEN_H
#define LLSTAR_LEXER_TOKEN_H

#include "support/SourceLocation.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace llstar {

/// Token types are small integers assigned by the grammar's vocabulary.
using TokenType = int32_t;

/// End of input. Every token stream ends with exactly one EOF token.
constexpr TokenType TokenEof = -1;
/// Never assigned to a real token; the "no type" sentinel.
constexpr TokenType TokenInvalid = 0;
/// First token type available for user-defined tokens.
constexpr TokenType TokenMinUserType = 1;

/// Which stream a token is visible on.
enum class TokenChannel : uint8_t {
  Default, ///< Visible to the parser.
  Hidden,  ///< Kept in the stream but skipped by parsers (whitespace etc.).
};

/// One lexed token: a trivially copyable view over the lexer's input.
///
/// \ref Text points into the buffer the token was lexed from (the EOF
/// token's points at a static "<EOF>"), so a token — and every vector,
/// stream or arena tree holding tokens — is valid only while that buffer
/// lives and is not modified. The ParseTree that parse() returns copies
/// the texts into storage it owns and so outlives the input.
struct Token {
  TokenType Type = TokenInvalid;
  TokenChannel Channel = TokenChannel::Default;
  SourceLocation Loc;
  /// Byte offset of the token's first character in the original input (the
  /// EOF token's offset is the input length). Edit-range mapping in
  /// src/incremental/ relies on this being set uniformly by every lexer
  /// path, interpreted and compiled alike; -1 only for hand-built tokens.
  int64_t Offset = -1;
  /// Index within the (channel-filtered) token stream; set by the lexer.
  int64_t Index = -1;
  /// The lexeme; a view into the input (see the lifetime rule above).
  std::string_view Text;

  Token() = default;
  Token(TokenType Type, std::string_view Text, SourceLocation Loc)
      : Type(Type), Loc(Loc), Text(Text) {}
  /// String literals have static storage and are always safe to view;
  /// any other C string must outlive the token like every input.
  Token(TokenType Type, const char *Text, SourceLocation Loc)
      : Token(Type, std::string_view(Text), Loc) {}
  /// A temporary string would leave the view dangling.
  Token(TokenType, std::string &&, SourceLocation) = delete;

  /// The token lexed at [\p Offset, \p Offset + \p Len) of \p Input; every
  /// lexer path builds its tokens through this one helper.
  static Token lexed(std::string_view Input, TokenType Type, int64_t Offset,
                     int64_t Len, SourceLocation Loc) {
    Token T(Type, Input.substr(size_t(Offset), size_t(Len)), Loc);
    T.Offset = Offset;
    return T;
  }
  /// The EOF token ending a stream over an input of \p InputSize bytes.
  static Token eof(int64_t InputSize, SourceLocation Loc) {
    Token T(TokenEof, "<EOF>", Loc);
    T.Offset = InputSize;
    return T;
  }

  bool isEof() const { return Type == TokenEof; }
};

} // namespace llstar

#endif // LLSTAR_LEXER_TOKEN_H

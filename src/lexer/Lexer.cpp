#include "lexer/Lexer.h"

#include "lexer/Vocabulary.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace llstar;

Lexer::Lexer(const LexerSpec &Spec, const Vocabulary &Vocab,
             DiagnosticEngine &Diags) {
  regex::Nfa N;
  for (size_t I = 0; I < Spec.Rules.size(); ++I) {
    const LexerRule &Rule = Spec.Rules[I];
    const std::string &Name = Vocab.name(Rule.Type);
    if (!Rule.Pattern) {
      Diags.error(Rule.Loc, "lexer rule " + Name + " has no pattern");
      continue;
    }
    if (Rule.Pattern->matchesEmpty())
      Diags.error(Rule.Loc,
                  "lexer rule " + Name + " can match the empty string");
    N.addPattern(*Rule.Pattern, int32_t(I), Rule.Priority);
    Actions.push_back(Rule.Action);
    Types.push_back(Rule.Type);
  }
  Dfa = regex::CharDfa::fromNfa(N).minimized();
}

namespace {
/// Tokens to reserve up front for an input of \p InputSize bytes. The
/// shipped grammars average 3-6 bytes per token, so one allocation covers
/// them; capacity never touched costs only address space. The cap keeps a
/// huge input from committing memory before it has produced a token.
size_t reserveHint(size_t InputSize) {
  constexpr size_t BytesPerToken = 2, MaxTokens = size_t(1) << 20;
  return std::min(InputSize / BytesPerToken, MaxTokens) + 1;
}
} // namespace

std::vector<Token> Lexer::tokenize(std::string_view Input,
                                   DiagnosticEngine &Diags,
                                   std::vector<Token> *HiddenOut) const {
  std::vector<Token> Result;
  Result.reserve(reserveHint(Input.size()));
  size_t Pos = 0;
  uint32_t Line = 1, Column = 0;

  while (Pos < Input.size()) {
    SourceLocation Start(Line, Column);
    Step S = scan(Input, Pos, Line, Column);
    if (S.Tag < 0) {
      Diags.error(Start,
                  "unrecognized character '" + escapeChar(Input[Pos]) + "'");
      ++Pos;
      continue;
    }
    LexerAction Action = Actions[size_t(S.Tag)];
    if (Action == LexerAction::Emit) {
      Result.push_back(Token::lexed(Input, Types[size_t(S.Tag)], int64_t(Pos),
                                    S.Len, Start));
      Result.back().Index = int64_t(Result.size()) - 1;
    } else if (Action == LexerAction::Hidden && HiddenOut) {
      HiddenOut->push_back(Token::lexed(Input, Types[size_t(S.Tag)],
                                        int64_t(Pos), S.Len, Start));
      HiddenOut->back().Channel = TokenChannel::Hidden;
    }
    // Hidden and Skip tokens are both invisible to the parsers; hidden
    // ones are preserved in HiddenOut for trivia-aware tooling.
    Pos += size_t(S.Len);
  }

  Result.push_back(
      Token::eof(int64_t(Input.size()), SourceLocation(Line, Column)));
  Result.back().Index = int64_t(Result.size()) - 1;
  return Result;
}

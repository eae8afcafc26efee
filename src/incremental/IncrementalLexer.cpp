#include "incremental/IncrementalLexer.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace llstar;
using namespace llstar::incremental;

Lexeme IncrementalLexer::scanOne(std::string_view Text, int64_t Pos,
                                 uint32_t &Line, uint32_t &Col) const {
  Lexeme L;
  L.Off = Pos;
  L.Line = Line;
  L.Col = Col;
  Lexer::Step S = Lex.scan(Text, size_t(Pos), Line, Col);
  L.Tag = S.Tag;
  L.Len = S.Len;
  L.LookEnd = S.LookEnd;
  return L;
}

size_t IncrementalLexer::firstDamaged(int64_t Offset) const {
  // MaxLook is non-decreasing, so the damaged region is a suffix.
  auto It = std::lower_bound(
      Lexemes.begin(), Lexemes.end(), Offset,
      [](const Lexeme &L, int64_t Off) { return L.MaxLook <= Off; });
  return size_t(It - Lexemes.begin());
}

size_t IncrementalLexer::lexemeAt(int64_t Off) const {
  auto It = std::lower_bound(
      Lexemes.begin(), Lexemes.end(), Off,
      [](const Lexeme &L, int64_t O) { return L.Off < O; });
  if (It == Lexemes.end() || It->Off != Off)
    return SIZE_MAX;
  return size_t(It - Lexemes.begin());
}

void IncrementalLexer::recomputeMaxLook(size_t From) {
  int64_t Cum = From > 0 ? Lexemes[From - 1].MaxLook : 0;
  for (size_t I = From; I < Lexemes.size(); ++I) {
    Cum = std::max(Cum, Lexemes[I].LookEnd);
    Lexemes[I].MaxLook = Cum;
  }
}

Token IncrementalLexer::tokenOf(std::string_view Text, const Lexeme &L) const {
  return Token::lexed(Text, Lex.types()[size_t(L.Tag)], L.Off, L.Len,
                      SourceLocation(L.Line, L.Col));
}

void IncrementalLexer::rebase(std::string_view Text, int64_t End) {
  if (Text.data() == Base)
    return;
  Base = Text.data();
  End = std::min(End, int64_t(Toks.size()));
  for (int64_t I = 0; I < End; ++I) {
    Token &T = Toks[size_t(I)];
    if (!T.isEof())
      T.Text = Text.substr(size_t(T.Offset), T.Text.size());
  }
}

void IncrementalLexer::lexAll(std::string_view Text) {
  Lexemes.clear();
  Toks.clear();
  uint32_t Line = 1, Col = 0;
  int64_t Pos = 0;
  while (Pos < int64_t(Text.size())) {
    Lexeme L = scanOne(Text, Pos, Line, Col);
    Pos += L.Len;
    Lexemes.push_back(L);
  }
  EndLine = Line;
  EndCol = Col;
  recomputeMaxLook(0);

  const std::vector<LexerAction> &Actions = Lex.actions();
  for (const Lexeme &L : Lexemes) {
    if (L.Tag < 0 || Actions[size_t(L.Tag)] != LexerAction::Emit)
      continue;
    Toks.push_back(tokenOf(Text, L));
    Toks.back().Index = int64_t(Toks.size()) - 1;
  }
  Toks.push_back(
      Token::eof(int64_t(Text.size()), SourceLocation(EndLine, EndCol)));
  Toks.back().Index = int64_t(Toks.size()) - 1;
  Base = Text.data();
}

IncrementalLexer::Damage IncrementalLexer::relex(std::string_view NewText,
                                                 int64_t Offset, int64_t OldLen,
                                                 int64_t NewLen) {
  const int64_t Delta = NewLen - OldLen;
  const int64_t OldSize = int64_t(NewText.size()) - Delta;
  assert(Offset >= 0 && OldLen >= 0 && Offset + OldLen <= OldSize &&
         "edit must have been validated against the old text");

  // Retained prefix: the longest prefix of lexemes in which no DFA walk
  // examined a byte at or past the edit.
  const size_t First = firstDamaged(Offset);

  int64_t P;
  uint32_t Line, Col;
  if (First < Lexemes.size()) {
    P = Lexemes[First].Off;
    Line = Lexemes[First].Line;
    Col = Lexemes[First].Col;
  } else {
    // Pure append past everything any walk examined.
    P = OldSize;
    Line = EndLine;
    Col = EndCol;
  }

  // Walk the damaged window, probing each fresh boundary past the
  // inserted text for an old lexeme start to resynchronize on.
  const int64_t ResyncMin = Offset + NewLen;
  std::vector<Lexeme> Fresh;
  size_t OldSuffix = Lexemes.size();
  bool Resynced = false;
  while (P < int64_t(NewText.size())) {
    if (P >= ResyncMin) {
      size_t R = lexemeAt(P - Delta);
      if (R != SIZE_MAX && R >= First) {
        OldSuffix = R;
        Resynced = true;
        break;
      }
    }
    Lexeme L = scanOne(NewText, P, Line, Col);
    P += L.Len;
    Fresh.push_back(L);
  }

  // Position shift for the retained suffix: lines move by the line delta
  // at the resync point; columns move only on the resync lexeme's old
  // line (later lines start fresh at column 0 either way).
  int64_t LineDelta = 0, ColDelta = 0;
  uint32_t OldResyncLine = 0;
  if (Resynced) {
    const Lexeme &R = Lexemes[OldSuffix];
    OldResyncLine = R.Line;
    LineDelta = int64_t(Line) - int64_t(R.Line);
    ColDelta = int64_t(Col) - int64_t(R.Col);
  }

  // Token-space damage bounds, computed against the old vectors before
  // any splicing. Tokens are sorted by offset (EOF last, at text size).
  const int64_t OldTokCount = int64_t(Toks.size());
  auto tokLowerBound = [&](int64_t Off) {
    auto It = std::lower_bound(
        Toks.begin(), Toks.end(), Off,
        [](const Token &T, int64_t O) { return T.Offset < O; });
    return int64_t(It - Toks.begin());
  };
  const int64_t FirstOff = First < Lexemes.size() ? Lexemes[First].Off : OldSize;
  Damage D;
  D.InvalidLo = tokLowerBound(FirstOff);
  D.OldInvalidHi =
      Resynced ? tokLowerBound(Lexemes[OldSuffix].Off) : OldTokCount;
  D.Relexed = int64_t(Fresh.size());

  const std::vector<LexerAction> &Actions = Lex.actions();

  // In-place fast path: an edit that kept every downstream byte, line,
  // column, lexeme, and token where it was (the overwhelmingly common
  // overtype) only needs the damaged window overwritten — no vector
  // rebuild, no suffix rewrite.
  if (Resynced && Delta == 0 && LineDelta == 0 && ColDelta == 0 &&
      Fresh.size() == OldSuffix - First) {
    int64_t FreshEmitted = 0;
    for (const Lexeme &L : Fresh)
      if (L.Tag >= 0 && Actions[size_t(L.Tag)] == LexerAction::Emit)
        ++FreshEmitted;
    if (FreshEmitted == D.OldInvalidHi - D.InvalidLo) {
      std::copy(Fresh.begin(), Fresh.end(), Lexemes.begin() + int64_t(First));
      recomputeMaxLook(First);
      int64_t TI = D.InvalidLo;
      for (const Lexeme &L : Fresh) {
        if (L.Tag < 0 || Actions[size_t(L.Tag)] != LexerAction::Emit)
          continue;
        Toks[size_t(TI)] = tokenOf(NewText, L);
        Toks[size_t(TI)].Index = TI;
        ++TI;
      }
      rebase(NewText);
      D.NewInvalidHi = D.OldInvalidHi;
      D.TokenDelta = 0;
      return D;
    }
  }

  // Splice the lexeme index.
  std::vector<Lexeme> NewLex;
  NewLex.reserve(First + Fresh.size() + (Lexemes.size() - OldSuffix));
  NewLex.insert(NewLex.end(), Lexemes.begin(), Lexemes.begin() + First);
  NewLex.insert(NewLex.end(), Fresh.begin(), Fresh.end());
  for (size_t I = OldSuffix; I < Lexemes.size(); ++I) {
    Lexeme L = Lexemes[I];
    L.Off += Delta;
    L.LookEnd += Delta; // the end-of-input sentinel shifts with the size
    if (L.Line == OldResyncLine)
      L.Col = uint32_t(int64_t(L.Col) + ColDelta);
    L.Line = uint32_t(int64_t(L.Line) + LineDelta);
    NewLex.push_back(L);
  }
  Lexemes = std::move(NewLex);
  recomputeMaxLook(First);

  if (Resynced) {
    if (EndLine == OldResyncLine)
      EndCol = uint32_t(int64_t(EndCol) + ColDelta);
    EndLine = uint32_t(int64_t(EndLine) + LineDelta);
  } else {
    EndLine = Line;
    EndCol = Col;
  }

  // Splice the token vector: retained prefix, freshly lexed middle,
  // shifted suffix (which includes EOF when we resynchronized).
  std::vector<Token> NewToks;
  NewToks.reserve(Toks.size() + size_t(std::max<int64_t>(Delta, 0)) + 1);
  NewToks.insert(NewToks.end(), Toks.begin(), Toks.begin() + D.InvalidLo);
  for (const Lexeme &L : Fresh) {
    if (L.Tag < 0 || Actions[size_t(L.Tag)] != LexerAction::Emit)
      continue;
    NewToks.push_back(tokenOf(NewText, L));
  }
  D.NewInvalidHi = int64_t(NewToks.size());
  for (int64_t I = D.OldInvalidHi; I < OldTokCount; ++I) {
    Token T = Toks[size_t(I)];
    T.Offset += Delta;
    if (!T.isEof())
      T.Text = NewText.substr(size_t(T.Offset), T.Text.size());
    if (T.Loc.Line == OldResyncLine)
      T.Loc.Column = uint32_t(int64_t(T.Loc.Column) + ColDelta);
    T.Loc.Line = uint32_t(int64_t(T.Loc.Line) + LineDelta);
    NewToks.push_back(T);
  }
  if (!Resynced) {
    NewToks.push_back(Token::eof(int64_t(NewText.size()),
                                 SourceLocation(EndLine, EndCol)));
    // No old token survived the damage, so the fresh EOF belongs to the
    // damaged window and both retained-suffix ranges are empty.
    D.NewInvalidHi = int64_t(NewToks.size());
  }
  Toks = std::move(NewToks);
  for (int64_t I = D.InvalidLo; I < int64_t(Toks.size()); ++I)
    Toks[size_t(I)].Index = I;
  // The suffix views already point into NewText; the prefix ones still
  // point at the old buffer if the edit moved it.
  rebase(NewText, D.InvalidLo);

  D.TokenDelta = int64_t(Toks.size()) - OldTokCount;
  return D;
}

void IncrementalLexer::emitLexDiagnostics(std::string_view Text,
                                          DiagnosticEngine &Diags) const {
  for (const Lexeme &L : Lexemes)
    if (L.Tag < 0)
      Diags.error(SourceLocation(L.Line, L.Col),
                  "unrecognized character '" +
                      escapeChar(Text[size_t(L.Off)]) + "'");
}

#include "support/StringUtils.h"

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace llstar;

std::string llstar::escapeChar(char C) {
  switch (C) {
  case '\n':
    return "\\n";
  case '\t':
    return "\\t";
  case '\r':
    return "\\r";
  case '\\':
    return "\\\\";
  case '\'':
    return "\\'";
  case '"':
    return "\\\"";
  case '\0':
    return "\\0";
  default:
    break;
  }
  unsigned char U = static_cast<unsigned char>(C);
  if (U < 0x20 || U >= 0x7f) {
    char Buf[8];
    std::snprintf(Buf, sizeof(Buf), "\\x%02x", U);
    return Buf;
  }
  return std::string(1, C);
}

std::string llstar::escapeString(std::string_view S) {
  std::string Result;
  Result.reserve(S.size());
  for (char C : S)
    Result += escapeChar(C);
  return Result;
}

bool llstar::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

std::string llstar::join(const std::vector<std::string> &Parts,
                         std::string_view Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string llstar::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Result;
  if (Len > 0) {
    Result.resize(size_t(Len));
    std::vsnprintf(Result.data(), size_t(Len) + 1, Fmt, ArgsCopy);
  }
  va_end(ArgsCopy);
  return Result;
}

//===- support/StringUtils.h - Small string helpers -------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String escaping and formatting helpers shared across the toolkit.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_SUPPORT_STRINGUTILS_H
#define LLSTAR_SUPPORT_STRINGUTILS_H

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace llstar {

/// FNV-1a 64-bit hash of \p Bytes. Stable across platforms; used as the
/// grammar-bundle content key and integrity check (not cryptographic).
constexpr uint64_t hashBytes(std::string_view Bytes) {
  uint64_t H = 1469598103934665603ull;
  for (char C : Bytes) {
    H ^= uint8_t(C);
    H *= 1099511628211ull;
  }
  return H;
}

/// Escapes one character for display inside quotes ("\n", "\t", "\\", ...).
std::string escapeChar(char C);

/// Escapes a whole string for display inside double quotes.
std::string escapeString(std::string_view S);

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts, std::string_view Sep);

/// Reads the whole file at \p Path, in binary mode, into \p Out. False
/// (and \p Out untouched) when the file cannot be opened.
bool readFile(const std::string &Path, std::string &Out);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses all of \p Text as a base-10 integer in [\p Min, \p Max] into
/// \p Out. Built on std::from_chars, so an empty string, whitespace, a
/// '+' (or a '-' for an unsigned type), trailing characters and values
/// that overflow \p T or fall outside the range all fail and leave \p Out
/// unchanged.
template <typename T>
bool parseInteger(std::string_view Text, T &Out,
                  std::type_identity_t<T> Min = std::numeric_limits<T>::min(),
                  std::type_identity_t<T> Max = std::numeric_limits<T>::max()) {
  T V{};
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Ptr != End || V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

/// The command-line form of \ref parseInteger: parses the value following
/// the flag at \p Args[I] and advances \p I past it. False when the value
/// is missing, malformed or out of range; the tools treat that as a usage
/// error.
template <typename T>
bool parseIntegerFlag(
    const std::vector<std::string> &Args, size_t &I, T &Out,
    std::type_identity_t<T> Min = std::numeric_limits<T>::min(),
    std::type_identity_t<T> Max = std::numeric_limits<T>::max()) {
  return I + 1 < Args.size() && parseInteger(Args[++I], Out, Min, Max);
}

} // namespace llstar

#endif // LLSTAR_SUPPORT_STRINGUTILS_H

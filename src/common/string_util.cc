#include "common/string_util.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace udt {

std::vector<std::string> SplitString(std::string_view text, char delimiter) {
  std::vector<std::string_view> views;
  SplitStringViews(text, delimiter, &views);
  return std::vector<std::string>(views.begin(), views.end());
}

void SplitStringViews(std::string_view text, char delimiter,
                      std::vector<std::string_view>* fields) {
  fields->clear();
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      fields->push_back(text.substr(start));
      return;
    }
    fields->push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view TrimWhitespace(std::string_view text) {
  const char* kWhitespace = " \t\r\n\f\v";
  size_t begin = text.find_first_not_of(kWhitespace);
  if (begin == std::string_view::npos) return std::string_view();
  size_t end = text.find_last_not_of(kWhitespace);
  return text.substr(begin, end - begin + 1);
}

std::optional<double> ParseDouble(std::string_view text) {
  text = TrimWhitespace(text);
  if (text.empty()) return std::nullopt;
  // Fast path: from_chars reads the plain decimal tokens a CSV is made of
  // without copying them, correctly rounded like strtod. Everything it
  // rejects, stops short on, or reads as NaN or out of range ('+1', hex,
  // '1e400', NaN payloads) falls through to strtod, which keeps the
  // accept/reject set and every value as they were.
  double fast = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), fast);
  if (ec == std::errc() && ptr == text.data() + text.size() &&
      !std::isnan(fast)) {
    return fast;
  }
  std::string buffer(text);
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return std::nullopt;
  return value;
}

std::optional<int> ParseInt(std::string_view text) {
  // Fast path: an unsigned from_chars that consumes the whole token saw
  // nothing but digits, where strtol reads the same value. Everything else
  // (whitespace, a sign, junk, more than 32 bits) takes the strtol path,
  // which keeps the accept/reject set as it was.
  uint32_t fast = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), fast);
  if (ec == std::errc() && ptr == text.data() + text.size()) {
    if (fast > 2147483647u) return std::nullopt;
    return static_cast<int>(fast);
  }
  text = TrimWhitespace(text);
  if (text.empty()) return std::nullopt;
  std::string buffer(text);
  char* end = nullptr;
  long value = std::strtol(buffer.c_str(), &end, 10);
  if (end != buffer.c_str() + buffer.size()) return std::nullopt;
  if (value < 0 || value > 2147483647L) return std::nullopt;
  return static_cast<int>(value);
}

std::optional<uint64_t> ParseUint64(std::string_view text) {
  // Fast path, as in ParseInt: a token of digits only that fits 64 bits.
  uint64_t fast = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), fast);
  if (ec == std::errc() && ptr == text.data() + text.size()) return fast;
  text = TrimWhitespace(text);
  if (text.empty()) return std::nullopt;
  // strtoull silently accepts "-1" (wrapping) and "+1"; digits only here.
  for (char ch : text) {
    if (ch < '0' || ch > '9') return std::nullopt;
  }
  std::string buffer(text);
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(buffer.c_str(), &end, 10);
  if (end != buffer.c_str() + buffer.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(value);
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int size = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (size < 0) {
    va_end(args_copy);
    return std::string();
  }
  std::string result(static_cast<size_t>(size), '\0');
  std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  va_end(args_copy);
  return result;
}

}  // namespace udt

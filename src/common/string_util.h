// String helpers: splitting, trimming, printf-style formatting and number
// parsing used by the CSV reader and the bench/report printers.

#ifndef UDT_COMMON_STRING_UTIL_H_
#define UDT_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace udt {

// Splits `text` on `delimiter`; keeps empty fields ("a,,b" -> 3 fields).
std::vector<std::string> SplitString(std::string_view text, char delimiter);

// SplitString without copies: replaces `fields` with views into `text`
// (which must outlive them). Reusing one `fields` vector across lines makes
// the split allocation-free.
void SplitStringViews(std::string_view text, char delimiter,
                      std::vector<std::string_view>* fields);

// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view text);

// Parses a double; returns nullopt on malformed input or trailing garbage.
std::optional<double> ParseDouble(std::string_view text);

// Parses a non-negative integer; returns nullopt on malformed input.
// Surrounding whitespace, a sign ("+5", "-0") and leading zeros are
// accepted. A plain run of digits parses in place; anything else takes a
// copy through strtol.
std::optional<int> ParseInt(std::string_view text);

// Parses a non-negative 64-bit integer (decimal); returns nullopt on
// malformed input, a sign character, or overflow. Surrounding whitespace
// is accepted. A plain run of digits parses in place.
std::optional<uint64_t> ParseUint64(std::string_view text);

// printf-style formatting into std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace udt

#endif  // UDT_COMMON_STRING_UTIL_H_

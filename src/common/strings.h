#ifndef GREATER_COMMON_STRINGS_H_
#define GREATER_COMMON_STRINGS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace greater {

/// Hashes std::string and std::string_view alike. With std::equal_to<> it
/// makes an unordered container of strings probe-able by view, without
/// building a key.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>()(s);
  }
};

/// Splits `text` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char delim);

/// Splits on `delim` but drops empty fields.
std::vector<std::string> SplitSkipEmpty(std::string_view text, char delim);

/// Splits on any whitespace run, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string Strip(std::string_view text);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

/// Lowercases ASCII letters.
std::string ToLower(std::string_view text);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

/// Strict int64 parse of the whole string; nullopt on any trailing junk.
std::optional<int64_t> ParseInt(std::string_view text);

/// Strict double parse of the whole string; nullopt on any trailing junk.
std::optional<double> ParseDouble(std::string_view text);

/// Formats a double the way table cells are rendered: integral values
/// without a decimal point ("3" not "3.000000"), otherwise shortest
/// round-trip representation.
std::string FormatDouble(double value);

}  // namespace greater

#endif  // GREATER_COMMON_STRINGS_H_

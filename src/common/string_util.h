#ifndef GRAFT_COMMON_STRING_UTIL_H_
#define GRAFT_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace graft {

/// Splits on a single delimiter character. Empty tokens are kept unless
/// `skip_empty` is true.
std::vector<std::string_view> SplitString(std::string_view input,
                                          char delimiter,
                                          bool skip_empty = false);

/// Splits on arbitrary whitespace runs; never yields empty tokens.
std::vector<std::string_view> SplitWhitespace(std::string_view input);

/// Removes leading/trailing ASCII whitespace.
std::string_view TrimString(std::string_view input);

/// Joins with a separator.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view separator);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// 12345678 -> "12,345,678" (for paper-style table output).
std::string WithThousandsSeparators(uint64_t value);

/// 1234.5 -> "1.23 KB" etc.
std::string HumanBytes(uint64_t bytes);

/// Parses a signed decimal integer. The whole string must match -?[0-9]+
/// and fit in int64: no surrounding whitespace and no '+' sign, so request
/// parameters such as "%20%2B1" are rejected instead of read as 1.
bool ParseInt64(std::string_view s, int64_t* out);
/// Parses a double; the full string must be consumed.
bool ParseDouble(std::string_view s, double* out);

/// N of a store path starting "<prefix><N>/" with N all decimal digits
/// ("superstep_000012/x" gives 12); nullopt otherwise, so layout parsers
/// skip stray names such as "superstep_/" or "topology_x/".
std::optional<int64_t> ParseNumberedDir(std::string_view path,
                                        std::string_view prefix);

/// Truncates to `max_len` characters appending "..." when truncated.
std::string Ellipsize(std::string_view s, size_t max_len);

}  // namespace graft

#endif  // GRAFT_COMMON_STRING_UTIL_H_

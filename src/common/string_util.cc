#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cstring>

namespace graft {

std::vector<std::string_view> SplitString(std::string_view input,
                                          char delimiter, bool skip_empty) {
  std::vector<std::string_view> result;
  size_t start = 0;
  while (start <= input.size()) {
    size_t end = input.find(delimiter, start);
    if (end == std::string_view::npos) end = input.size();
    std::string_view token = input.substr(start, end - start);
    if (!skip_empty || !token.empty()) result.push_back(token);
    if (end == input.size()) break;
    start = end + 1;
  }
  return result;
}

std::vector<std::string_view> SplitWhitespace(std::string_view input) {
  std::vector<std::string_view> result;
  size_t i = 0;
  while (i < input.size()) {
    while (i < input.size() && std::isspace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < input.size() && !std::isspace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    if (i > start) result.push_back(input.substr(start, i - start));
  }
  return result;
}

std::string_view TrimString(std::string_view input) {
  size_t begin = 0;
  while (begin < input.size() &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  size_t end = input.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view separator) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result.append(separator);
    result.append(parts[i]);
  }
  return result;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string result;
  if (needed > 0) {
    result.resize(static_cast<size_t>(needed));
    std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return result;
}

std::string WithThousandsSeparators(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string result;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) result.push_back(',');
    result.push_back(*it);
    ++count;
  }
  return std::string(result.rbegin(), result.rend());
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < sizeof(kUnits) / sizeof(kUnits[0])) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
  return StrFormat("%.2f %s", value, kUnits[unit]);
}

bool ParseInt64(std::string_view s, int64_t* out) {
  // from_chars takes exactly -?[0-9]+: no whitespace, no '+', no base prefix.
  int64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

std::optional<int64_t> ParseNumberedDir(std::string_view path,
                                        std::string_view prefix) {
  if (!path.starts_with(prefix)) return std::nullopt;
  const size_t slash = path.find('/', prefix.size());
  if (slash == std::string_view::npos) return std::nullopt;
  const std::string_view digits =
      path.substr(prefix.size(), slash - prefix.size());
  int64_t n = 0;
  if (digits.find_first_not_of("0123456789") != std::string_view::npos ||
      !ParseInt64(digits, &n)) {
    return std::nullopt;
  }
  return n;
}

std::string Ellipsize(std::string_view s, size_t max_len) {
  if (s.size() <= max_len) return std::string(s);
  if (max_len <= 3) return std::string(s.substr(0, max_len));
  return std::string(s.substr(0, max_len - 3)) + "...";
}

}  // namespace graft

// Strict numeric parsing for environment knobs and tool flags. Every
// numeric FPGASIM_* variable and every numeric tool flag goes through the
// one parser below, so a typo is caught instead of being half-read ("3x"
// is not 3, "-1" is not 2^64 - 1).
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace fpgasim {

/// `text` as a decimal count: digits only, with no sign, space or suffix.
/// nullopt for empty text, trailing characters, a sign or an overflow.
inline std::optional<std::uint64_t> parse_count(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// The value of `tool`'s numeric flag `flag`: a parse_count() within
/// [min, max], the range of T by default. Anything else is a usage error:
/// a message on stderr and exit status 2.
template <typename T>
T count_arg(const char* tool, const std::string& flag, const char* text, T min = 0,
            T max = std::numeric_limits<T>::max()) {
  const auto value = parse_count(text);
  if (value && *value >= static_cast<std::uint64_t>(min) &&
      *value <= static_cast<std::uint64_t>(max)) {
    return static_cast<T>(*value);
  }
  std::fprintf(stderr, "%s: %s expects a whole number in [%s, %s], got '%s'\n", tool,
               flag.c_str(), std::to_string(min).c_str(), std::to_string(max).c_str(), text);
  std::exit(2);
}

/// Value of environment variable `name` when it is a positive count; 0
/// when unset, empty, zero or not a count.
inline std::size_t env_positive(const char* name) {
  const char* env = std::getenv(name);
  return env == nullptr ? 0 : static_cast<std::size_t>(parse_count(env).value_or(0));
}

}  // namespace fpgasim

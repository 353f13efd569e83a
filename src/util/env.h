// Environment knobs. Every numeric FPGASIM_* variable goes through the one
// strict parser below, so a typo falls back to the default instead of
// being half-read ("3x" is not 3).
#pragma once

#include <cstddef>
#include <cstdlib>

namespace fpgasim {

/// Value of environment variable `name` when it is a positive decimal
/// integer with nothing after it; 0 when unset, empty, non-positive or
/// followed by other characters.
inline std::size_t env_positive(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(env, &end, 10);
  return end != env && *end == '\0' && parsed > 0 ? static_cast<std::size_t>(parsed) : 0;
}

}  // namespace fpgasim

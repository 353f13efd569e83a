// Lightweight leveled logger. Thread-safe; writes to stderr.
//
// Usage:
//   LOG_WARN("skipped %zu malformed line(s)", n);
//   fpgasim::set_log_level(fpgasim::LogLevel::kWarn);
#pragma once

#include <cstdarg>

namespace fpgasim {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level that will be emitted.
void set_log_level(LogLevel level);
LogLevel log_level();

/// printf-style log emission; prefer the LOG_WARN macro below.
void log_message(LogLevel level, const char* file, int line, const char* fmt, ...)
    __attribute__((format(printf, 4, 5)));

}  // namespace fpgasim

#define LOG_WARN(...) ::fpgasim::log_message(::fpgasim::LogLevel::kWarn, __FILE__, __LINE__, __VA_ARGS__)

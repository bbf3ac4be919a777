// Minimal leveled logger for the mimostat library.
//
// The library is deterministic and mostly silent; logging exists for the
// builder / engines to report progress on large models and for benches to
// explain what they are doing. Thread-safe: concurrent pool tasks log
// freely — each message is formatted into a buffer and emitted as one
// stream write under flockfile, so lines never interleave.
#pragma once

#include <cstdio>
#include <string>

namespace mimostat::util {

enum class LogLevel : int {
  kError = 0,
  kWarn = 1,
  kInfo = 2,
  kDebug = 3,
};

/// printf-style logging. Prefer the LOG_* macros below.
void logMessage(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace mimostat::util

#define MS_LOG_ERROR(...) \
  ::mimostat::util::logMessage(::mimostat::util::LogLevel::kError, __VA_ARGS__)
#define MS_LOG_WARN(...) \
  ::mimostat::util::logMessage(::mimostat::util::LogLevel::kWarn, __VA_ARGS__)
#define MS_LOG_INFO(...) \
  ::mimostat::util::logMessage(::mimostat::util::LogLevel::kInfo, __VA_ARGS__)
#define MS_LOG_DEBUG(...) \
  ::mimostat::util::logMessage(::mimostat::util::LogLevel::kDebug, __VA_ARGS__)

#include "util/log.hpp"

#include <cstdarg>
#include <cstring>
#include <string>

namespace mimostat::util {

namespace {
constexpr LogLevel kLevel = LogLevel::kWarn;

const char* levelName(LogLevel level) {
  switch (level) {
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kDebug:
      return "DEBUG";
  }
  return "?";
}
}  // namespace

void logMessage(LogLevel level, const char* fmt, ...) {
  if (static_cast<int>(level) > static_cast<int>(kLevel)) return;

  // Format the whole line into one buffer first, then emit it with a
  // single fwrite under the stream lock: concurrent pool tasks must never
  // interleave partial lines.
  char stack[512];
  int prefix = std::snprintf(stack, sizeof(stack), "[mimostat %s] ",
                             levelName(level));
  if (prefix < 0) return;

  va_list args;
  va_start(args, fmt);
  va_list measure;
  va_copy(measure, args);
  const int body = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  if (body < 0) {
    va_end(args);
    return;
  }

  const std::size_t total =
      static_cast<std::size_t>(prefix) + static_cast<std::size_t>(body) + 1;
  std::string heap;
  char* line = stack;
  if (total + 1 > sizeof(stack)) {
    heap.resize(total + 1);
    line = heap.data();
    std::memcpy(line, stack, static_cast<std::size_t>(prefix));
  }
  std::vsnprintf(line + prefix, total + 1 - static_cast<std::size_t>(prefix),
                 fmt, args);
  va_end(args);
  line[total - 1] = '\n';

  flockfile(stderr);
  std::fwrite(line, 1, total, stderr);
  funlockfile(stderr);
}

}  // namespace mimostat::util

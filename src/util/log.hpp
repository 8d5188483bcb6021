// Tiny leveled logger.  Logging is off by default so simulations stay quiet;
// examples/tests opt in.  Safe to call from any thread: the level is a
// relaxed atomic, and each line reaches stderr in one insertion, so lines
// from concurrent nodes (harness::FleetRunner) never tear.
#pragma once

#include <sstream>
#include <string>

namespace rdtgc::util {

enum class LogLevel { kOff = 0, kInfo = 1, kDebug = 2 };

/// Global log level (process-wide; set it before starting threads whose
/// output should follow the new level).
LogLevel log_level();
void set_log_level(LogLevel level);

/// Emit one line at the given level to stderr if enabled.
void log_line(LogLevel level, const std::string& line);

}  // namespace rdtgc::util

#define RDTGC_LOG(level, expr)                                      \
  do {                                                              \
    if (static_cast<int>(::rdtgc::util::log_level()) >=             \
        static_cast<int>(level)) {                                  \
      std::ostringstream rdtgc_log_os;                              \
      rdtgc_log_os << expr;                                         \
      ::rdtgc::util::log_line(level, rdtgc_log_os.str());           \
    }                                                               \
  } while (false)

#define RDTGC_INFO(expr) RDTGC_LOG(::rdtgc::util::LogLevel::kInfo, expr)
#define RDTGC_DEBUG(expr) RDTGC_LOG(::rdtgc::util::LogLevel::kDebug, expr)

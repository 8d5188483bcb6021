#include "util/log.hpp"

#include <atomic>
#include <iostream>

namespace rdtgc::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kOff};
}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }
void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

void log_line(LogLevel level, const std::string& line) {
  // One insertion per line: concurrent writers (FleetRunner threads, the
  // durability pipeline's writer) interleave whole lines, never fragments.
  if (static_cast<int>(log_level()) >= static_cast<int>(level))
    std::cerr << (line + '\n');
}

}  // namespace rdtgc::util

#include "util/log.hpp"

#include <cstdio>

namespace ace::util {

namespace {
const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::debug: return "DEBUG";
    case LogLevel::info: return "INFO";
    case LogLevel::warn: return "WARN";
    case LogLevel::error: return "ERROR";
    case LogLevel::off: return "OFF";
  }
  return "?";
}
}  // namespace

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_level(LogLevel level) {
  std::scoped_lock lock(mu_);
  level_ = level;
}

LogLevel Logger::level() const {
  std::scoped_lock lock(mu_);
  return level_;
}

void Logger::log(LogLevel level, const std::string& component,
                 const std::string& message) {
  std::scoped_lock lock(mu_);
  if (level < level_) return;
  std::fprintf(stderr, "[%s] %s: %s\n", level_tag(level), component.c_str(),
               message.c_str());
}

}  // namespace ace::util

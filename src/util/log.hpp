// Thread-safe leveled logger. Kept deliberately small: the ACE Network
// Logger *service* (paper §4.14) is the system-level log; this is only
// local process diagnostics.
#pragma once

#include <chrono>
#include <mutex>
#include <sstream>
#include <string>

namespace ace::util {

enum class LogLevel { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level);
  LogLevel level() const;

  void log(LogLevel level, const std::string& component,
           const std::string& message);

 private:
  Logger() = default;

  mutable std::mutex mu_;
  LogLevel level_ = LogLevel::warn;
};

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogLine() { Logger::instance().log(level_, component_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogLine log_debug(std::string component) {
  return detail::LogLine(LogLevel::debug, std::move(component));
}
inline detail::LogLine log_info(std::string component) {
  return detail::LogLine(LogLevel::info, std::move(component));
}
inline detail::LogLine log_warn(std::string component) {
  return detail::LogLine(LogLevel::warn, std::move(component));
}
inline detail::LogLine log_error(std::string component) {
  return detail::LogLine(LogLevel::error, std::move(component));
}

}  // namespace ace::util

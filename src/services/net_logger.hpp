// ACE Network Logger service (paper §4.14): the system-wide activity and
// security log — "to record what kinds of activities are present within an
// ACE system and to serve as a history so that ... system administrators
// can investigate them for security holes or system bugs".
//
// Command set:
//   log source= level= message=;                    (usually fire-and-forget)
//   queryLog source=<glob>? level=? limit=?;        -> ok entries={...}
//   logCount level=?;                               -> ok count=
//   clearLog;
//
// Includes the paper's intrusion example: repeated auth failures from one
// source raise a `securityAlert` notification.
#pragma once

#include <deque>

#include "daemon/daemon.hpp"

namespace ace::services {

struct NetLoggerOptions {
  std::size_t max_entries = 10000;  // rotation bound
  int alert_threshold = 3;          // auth failures before securityAlert
};

class NetLoggerDaemon : public daemon::ServiceDaemon {
 public:
  struct Entry {
    std::uint64_t id = 0;
    std::string source;
    std::string level;
    std::string message;
    std::chrono::steady_clock::time_point at;
  };

  NetLoggerDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                  daemon::DaemonConfig config, NetLoggerOptions options = {});

  std::size_t entry_count() const;
  std::vector<Entry> entries_from(const std::string& source_glob) const;
  std::uint64_t alerts_raised() const;

 private:
  NetLoggerOptions options_;
  mutable std::mutex mu_;
  std::deque<Entry> entries_;
  std::uint64_t next_id_ = 1;
  std::map<std::string, int> auth_failures_;
  std::uint64_t alerts_ = 0;
};

}  // namespace ace::services

#include "services/net_logger.hpp"

#include "util/strings.hpp"

namespace ace::services {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::integer_arg;
using cmdlang::string_arg;
using cmdlang::Word;
using cmdlang::word_arg;
using daemon::CallerInfo;

namespace {
daemon::DaemonConfig logger_defaults(daemon::DaemonConfig config) {
  config.log_to_net_logger = false;  // it *is* the logger
  if (config.service_class.empty())
    config.service_class = "Service/NetworkLogger";
  return config;
}
}  // namespace

NetLoggerDaemon::NetLoggerDaemon(daemon::Environment& env,
                                 daemon::DaemonHost& host,
                                 daemon::DaemonConfig config,
                                 NetLoggerOptions options)
    : ServiceDaemon(env, host, logger_defaults(std::move(config))),
      options_(options) {
  register_command(
      CommandSpec("log", "append a log entry")
          .arg(string_arg("source"))
          .arg(word_arg("level").choices({"debug", "info", "warn", "error",
                                          "security"}))
          .arg(string_arg("message")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        Entry e;
        e.source = cmd.get_text("source");
        e.level = cmd.get_text("level");
        e.message = cmd.get_text("message");
        e.at = std::chrono::steady_clock::now();
        bool alert = false;
        {
          std::scoped_lock lock(mu_);
          e.id = next_id_++;
          entries_.push_back(e);
          while (entries_.size() > options_.max_entries)
            entries_.pop_front();
          // §4.14's example: repeated invalid-identification attempts from
          // the same source should draw administrator attention.
          if (e.level == "security") {
            if (++auth_failures_[e.source] >= options_.alert_threshold) {
              auth_failures_[e.source] = 0;
              alerts_++;
              alert = true;
            }
          }
        }
        if (alert) {
          CmdLine event("securityAlert");
          event.arg("source", e.source);
          event.arg("message", e.message);
          emit_notification(event);
        }
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("queryLog", "retrieve matching log entries")
          .arg(string_arg("source").optional_arg())
          .arg(word_arg("level").optional_arg())
          .arg(integer_arg("limit").optional_arg().range(1, 1000)),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::string source_glob = cmd.get_text("source", "*");
        std::string level = cmd.get_text("level");
        std::size_t limit =
            static_cast<std::size_t>(cmd.get_integer("limit", 100));
        std::vector<std::string> out;
        {
          std::scoped_lock lock(mu_);
          for (auto it = entries_.rbegin();
               it != entries_.rend() && out.size() < limit; ++it) {
            if (!util::glob_match(source_glob, it->source)) continue;
            if (!level.empty() && it->level != level) continue;
            out.push_back(std::to_string(it->id) + "|" + it->level + "|" +
                          it->source + "|" + it->message);
          }
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("entries", cmdlang::string_vector(std::move(out)));
        return reply;
      });

  register_command(
      CommandSpec("logCount", "count entries, optionally by level")
          .arg(word_arg("level").optional_arg()),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::string level = cmd.get_text("level");
        std::size_t n = 0;
        {
          std::scoped_lock lock(mu_);
          if (level.empty()) {
            n = entries_.size();
          } else {
            for (const Entry& e : entries_)
              if (e.level == level) ++n;
          }
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("count", static_cast<std::int64_t>(n));
        return reply;
      });

  register_command(CommandSpec("clearLog", "drop all entries"),
                   [this](const CmdLine&, const CallerInfo&) {
                     std::scoped_lock lock(mu_);
                     entries_.clear();
                     auth_failures_.clear();
                     return cmdlang::make_ok();
                   });
}

std::vector<NetLoggerDaemon::Entry> NetLoggerDaemon::entries_from(
    const std::string& source_glob) const {
  std::scoped_lock lock(mu_);
  std::vector<Entry> out;
  for (const Entry& e : entries_)
    if (util::glob_match(source_glob, e.source)) out.push_back(e);
  return out;
}

std::uint64_t NetLoggerDaemon::alerts_raised() const {
  std::scoped_lock lock(mu_);
  return alerts_;
}

}  // namespace ace::services

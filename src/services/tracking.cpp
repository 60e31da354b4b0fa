#include "services/tracking.hpp"

#include "services/asd.hpp"

namespace ace::services {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::integer_arg;
using cmdlang::string_arg;
using cmdlang::Word;
using cmdlang::word_arg;
using daemon::CallerInfo;

namespace {
daemon::DaemonConfig tracker_defaults(daemon::DaemonConfig config) {
  if (config.service_class.empty())
    config.service_class = "Service/Monitor/Tracker";
  return config;
}

// Sightings kept per user; older ones are dropped.
constexpr std::size_t kMaxHistoryPerUser = 64;
}  // namespace

TrackerDaemon::TrackerDaemon(daemon::Environment& env,
                             daemon::DaemonHost& host,
                             daemon::DaemonConfig config)
    : ServiceDaemon(env, host, tracker_defaults(std::move(config))) {
  register_command(
      CommandSpec("trackWatchAll",
                  "subscribe to all identification devices in the ACE"),
      [this](const CmdLine&, const CallerInfo&) {
        auto n = watch_all_devices();
        if (!n.ok())
          return cmdlang::make_error(n.error().code, n.error().message);
        CmdLine reply = cmdlang::make_ok();
        reply.arg("devices", n.value());
        return reply;
      });

  register_command(
      CommandSpec("trackNotify", "notification sink for identified events")
          .arg(string_arg("source"))
          .arg(word_arg("command"))
          .arg(string_arg("detail")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto detail = cmdlang::Parser::parse(cmd.get_text("detail"));
        if (!detail.ok() || detail->name() != "identified")
          return cmdlang::make_ok();  // ignore other events
        std::string user = detail->get_text("user");
        if (user.empty()) return cmdlang::make_ok();
        Sighting s;
        s.room = detail->get_text("room");
        s.station = detail->get_text("station");
        s.device = detail->get_text("device");
        s.at = std::chrono::steady_clock::now();
        std::scoped_lock lock(mu_);
        auto& h = history_[user];
        h.push_back(std::move(s));
        while (h.size() > kMaxHistoryPerUser) h.pop_front();
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("trackWhereIs", "last known location of a user")
          .arg(word_arg("user")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::scoped_lock lock(mu_);
        auto it = history_.find(cmd.get_text("user"));
        if (it == history_.end() || it->second.empty())
          return cmdlang::make_error(util::Errc::not_found,
                                     "user never sighted");
        const Sighting& s = it->second.back();
        CmdLine reply = cmdlang::make_ok();
        reply.arg("room", Word{s.room});
        reply.arg("station", s.station);
        reply.arg("sightings", static_cast<std::int64_t>(it->second.size()));
        return reply;
      });

  register_command(
      CommandSpec("trackHistory", "movement history of a user")
          .arg(word_arg("user"))
          .arg(integer_arg("limit").optional_arg().range(1, 1000)),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::size_t limit =
            static_cast<std::size_t>(cmd.get_integer("limit", 20));
        std::vector<std::string> rows;
        {
          std::scoped_lock lock(mu_);
          auto it = history_.find(cmd.get_text("user"));
          if (it != history_.end()) {
            for (auto rit = it->second.rbegin();
                 rit != it->second.rend() && rows.size() < limit; ++rit)
              rows.push_back(rit->room + "|" + rit->station + "|" +
                             rit->device);
          }
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("entries", cmdlang::string_vector(std::move(rows)));
        return reply;
      });

  register_command(
      CommandSpec("trackPresent", "users last sighted in a room")
          .arg(word_arg("room")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::string room = cmd.get_text("room");
        std::vector<std::string> users;
        {
          std::scoped_lock lock(mu_);
          for (const auto& [user, h] : history_)
            if (!h.empty() && h.back().room == room) users.push_back(user);
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("users", cmdlang::string_vector(std::move(users)));
        return reply;
      });
}

util::Result<std::int64_t> TrackerDaemon::watch_all_devices() {
  auto devices = AsdClient(control_client(), env().asd_address).query("*", "Service/Device/Identification*", "*");
  if (!devices.ok()) return devices.error();
  std::int64_t subscribed = 0;
  for (const ServiceLocation& loc : devices.value()) {
    CmdLine sub("addNotification");
    sub.arg("command", Word{"identified"});
    sub.arg("service", address().to_string());
    sub.arg("method", Word{"trackNotify"});
    auto r = control_client().call(loc.address, sub, daemon::kCallOk);
    if (r.ok()) ++subscribed;
  }
  return subscribed;
}

std::optional<TrackerDaemon::Sighting> TrackerDaemon::last_sighting(
    const std::string& user) const {
  std::scoped_lock lock(mu_);
  auto it = history_.find(user);
  if (it == history_.end() || it->second.empty()) return std::nullopt;
  return it->second.back();
}

std::size_t TrackerDaemon::tracked_users() const {
  std::scoped_lock lock(mu_);
  return history_.size();
}

}  // namespace ace::services

#include "services/identification.hpp"

#include <cmath>

#include "services/asd.hpp"

namespace ace::services {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::string_arg;
using cmdlang::vector_arg;
using cmdlang::Word;
using cmdlang::word_arg;
using daemon::CallerInfo;

namespace {

daemon::DaemonConfig fiu_defaults(daemon::DaemonConfig config) {
  if (config.service_class.empty())
    config.service_class = "Service/Device/Identification/FIU";
  return config;
}
daemon::DaemonConfig ibutton_defaults(daemon::DaemonConfig config) {
  if (config.service_class.empty())
    config.service_class = "Service/Device/Identification/IButton";
  return config;
}
daemon::DaemonConfig idmon_defaults(daemon::DaemonConfig config) {
  if (config.service_class.empty())
    config.service_class = "Service/Monitor/IDMonitor";
  return config;
}

FingerprintFeatures features_from(const cmdlang::Vector& vec) {
  FingerprintFeatures out;
  for (const auto& v : vec.elements)
    if (v.is_real() || v.is_integer()) out.push_back(v.as_real());
  return out;
}

double feature_distance(const FingerprintFeatures& a,
                        const FingerprintFeatures& b) {
  if (a.size() != b.size()) return 1e9;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

// Identification events the ID monitor keeps; older ones are dropped.
constexpr std::size_t kMaxIdEvents = 256;

}  // namespace

// ----------------------------------------------------------------------- FIU

FiuDaemon::FiuDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                     daemon::DaemonConfig config, FiuOptions options)
    : DeviceDaemon(env, host, fiu_defaults(std::move(config))),
      options_(options) {
  powered_ = true;  // identification devices come up powered

  register_command(
      CommandSpec("fiuEnroll", "load a fingerprint template into the unit")
          .arg(word_arg("template"))
          .arg(vector_arg("features", cmdlang::ArgType::vector_real)),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto vec = cmd.get_vector("features");
        if (!vec || vec->elements.empty())
          return cmdlang::make_error(util::Errc::invalid, "empty features");
        std::scoped_lock lock(mu_);
        templates_[cmd.get_text("template")] = features_from(*vec);
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("fiuScan", "match a scanned fingerprint")
          .arg(vector_arg("features", cmdlang::ArgType::vector_real))
          .arg(string_arg("station").optional_arg()),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto vec = cmd.get_vector("features");
        if (!vec)
          return cmdlang::make_error(util::Errc::invalid, "missing features");
        return identify(features_from(*vec), cmd.get_text("station"));
      });

  register_command(
      CommandSpec("fiuTemplates", "list loaded template ids"),
      [this](const CmdLine&, const CallerInfo&) {
        std::vector<std::string> ids;
        {
          std::scoped_lock lock(mu_);
          for (const auto& [id, f] : templates_) ids.push_back(id);
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("templates", cmdlang::string_vector(std::move(ids)));
        return reply;
      });
}

cmdlang::CmdLine FiuDaemon::identify(const FingerprintFeatures& scan,
                                     const std::string& station) {
  if (!powered())
    return cmdlang::make_error(util::Errc::invalid, "FIU is powered off");
  std::string best_template;
  double best_distance = 1e300;
  {
    std::scoped_lock lock(mu_);
    for (const auto& [id, features] : templates_) {
      double d = feature_distance(scan, features);
      if (d < best_distance) {
        best_distance = d;
        best_template = id;
      }
    }
  }

  if (best_template.empty() || best_distance > options_.match_threshold) {
    net_log("security",
            "invalid fingerprint identification attempt at station '" +
                station + "'");
    CmdLine failed("identifyFailed");
    failed.arg("room", Word{config().room});
    failed.arg("station", station);
    failed.arg("device", Word{"fiu"});
    emit_notification(failed);
    return cmdlang::make_error(util::Errc::not_found,
                               "fingerprint not recognized");
  }

  // Resolve the template to a user through the AUD (Fig 18).
  std::string username;
  auto auds = AsdClient(control_client(), env().asd_address).query("*", "Service/Database/UserDatabase*", "*");
  if (auds.ok() && !auds->empty()) {
    CmdLine find("userByFingerprint");
    find.arg("template", best_template);
    auto user = control_client().call(auds->front().address, find, daemon::kCallOk);
    if (user.ok()) username = user->get_text("username");
  }
  if (username.empty()) {
    net_log("security", "fingerprint template '" + best_template +
                            "' matches no registered ACE user");
    return cmdlang::make_error(util::Errc::not_found,
                               "fingerprint matches no registered user");
  }

  CmdLine event("identified");
  event.arg("user", Word{username});
  event.arg("room", Word{config().room});
  event.arg("station", station);
  event.arg("device", Word{"fiu"});
  emit_notification(event);

  CmdLine reply = cmdlang::make_ok();
  reply.arg("template", Word{best_template});
  reply.arg("user", Word{username});
  reply.arg("distance", best_distance);
  return reply;
}

// ------------------------------------------------------------------- iButton

IButtonDaemon::IButtonDaemon(daemon::Environment& env,
                             daemon::DaemonHost& host,
                             daemon::DaemonConfig config)
    : DeviceDaemon(env, host, ibutton_defaults(std::move(config))) {
  powered_ = true;

  register_command(
      CommandSpec("ibuttonRead", "resolve a presented iButton")
          .arg(string_arg("serial"))
          .arg(string_arg("station").optional_arg()),
      [this](const CmdLine& cmd, const CallerInfo&) {
        if (!powered())
          return cmdlang::make_error(util::Errc::invalid,
                                     "reader is powered off");
        std::string serial = cmd.get_text("serial");
        std::string station = cmd.get_text("station");
        std::string username;
        auto auds = AsdClient(control_client(), this->env().asd_address).query("*", "Service/Database/UserDatabase*", "*");
        if (auds.ok() && !auds->empty()) {
          CmdLine find("userByIButton");
          find.arg("serial", serial);
          auto user = control_client().call(auds->front().address, find, daemon::kCallOk);
          if (user.ok()) username = user->get_text("username");
        }
        if (username.empty()) {
          net_log("security", "unknown iButton '" + serial +
                                  "' presented at station '" + station + "'");
          CmdLine failed("identifyFailed");
          failed.arg("room", Word{this->config().room});
          failed.arg("station", station);
          failed.arg("device", Word{"ibutton"});
          emit_notification(failed);
          return cmdlang::make_error(util::Errc::not_found,
                                     "unknown iButton serial");
        }
        CmdLine event("identified");
        event.arg("user", Word{username});
        event.arg("room", Word{this->config().room});
        event.arg("station", station);
        event.arg("device", Word{"ibutton"});
        emit_notification(event);
        CmdLine reply = cmdlang::make_ok();
        reply.arg("user", Word{username});
        return reply;
      });
}

// ---------------------------------------------------------------- ID Monitor

IdMonitorDaemon::IdMonitorDaemon(daemon::Environment& env,
                                 daemon::DaemonHost& host,
                                 daemon::DaemonConfig config,
                                 IdMonitorOptions options)
    : ServiceDaemon(env, host, idmon_defaults(std::move(config))),
      options_(options) {
  register_command(
      CommandSpec("idNotify", "notification sink for identification events")
          .arg(string_arg("source"))
          .arg(word_arg("command"))
          .arg(string_arg("detail")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto detail = cmdlang::Parser::parse(cmd.get_text("detail"));
        if (!detail.ok())
          return cmdlang::make_error(util::Errc::parse_error,
                                     "bad notification detail");
        handle_identified(detail.value());
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("idEvents", "recent identification events"),
      [this](const CmdLine&, const CallerInfo&) {
        std::vector<std::string> rows;
        {
          std::scoped_lock lock(mu_);
          for (const IdEvent& e : events_)
            rows.push_back((e.positive ? std::string("ok|") : "fail|") +
                           e.user + "|" + e.room + "|" + e.station + "|" +
                           e.device);
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("events", cmdlang::string_vector(std::move(rows)));
        return reply;
      });
}

util::Status IdMonitorDaemon::watch_device(const net::Address& device) {
  for (const char* event : {"identified", "identifyFailed"}) {
    CmdLine sub("addNotification");
    sub.arg("command", Word{event});
    sub.arg("service", address().to_string());
    sub.arg("method", Word{"idNotify"});
    auto reply = control_client().call(device, sub, daemon::kCallOk);
    if (!reply.ok()) return reply.error();
  }
  return util::Status::ok_status();
}

void IdMonitorDaemon::handle_identified(const cmdlang::CmdLine& detail) {
  IdEvent e;
  e.user = detail.get_text("user");
  e.room = detail.get_text("room");
  e.station = detail.get_text("station");
  e.device = detail.get_text("device");
  e.positive = detail.name() == "identified";
  {
    std::scoped_lock lock(mu_);
    events_.push_back(e);
    while (events_.size() > kMaxIdEvents) events_.pop_front();
  }
  if (!e.positive || e.user.empty()) return;

  // Scenario 2: update the user's current location with the AUD.
  auto auds = AsdClient(control_client(), env().asd_address).query("*", "Service/Database/UserDatabase*", "*");
  if (auds.ok() && !auds->empty()) {
    CmdLine loc("userSetLocation");
    loc.arg("username", Word{e.user});
    loc.arg("room", Word{e.room.empty() ? "unknown" : e.room});
    loc.arg("station", e.station);
    (void)control_client().call(auds->front().address, loc);
  }

  // Scenario 3: bring the user's default workspace up at the access point.
  if (options_.auto_show_workspace && !e.station.empty()) {
    auto wsses = AsdClient(control_client(), env().asd_address).query("*", "Service/WorkspaceServer*", "*");
    if (wsses.ok() && !wsses->empty()) {
      const net::Address wss = wsses->front().address;
      CmdLine def("wssDefault");
      def.arg("owner", Word{e.user});
      auto ws = control_client().call(wss, def, daemon::kCallOk);
      if (ws.ok()) {
        CmdLine show("wssShow");
        show.arg("workspace", ws->get_text("workspace"));
        show.arg("location", e.station);
        (void)control_client().call(wss, show);
      }
    }
  }
}

std::vector<IdMonitorDaemon::IdEvent> IdMonitorDaemon::events() const {
  std::scoped_lock lock(mu_);
  return std::vector<IdEvent>(events_.begin(), events_.end());
}

}  // namespace ace::services

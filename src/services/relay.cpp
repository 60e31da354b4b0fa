#include "services/relay.hpp"

#include <algorithm>

#include "cmdlang/parser.hpp"

namespace ace::services {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::integer_arg;
using cmdlang::string_arg;
using cmdlang::Word;
using cmdlang::word_arg;
using daemon::CallerInfo;
using daemon::CallOptions;

namespace {
daemon::DaemonConfig relay_defaults(daemon::DaemonConfig config) {
  // Rendezvous infrastructure: rooms behind bad links must find it without
  // a directory, so it lives on a well-known socket and self-registers
  // nowhere.
  config.register_with_asd = false;
  if (config.service_class.empty()) config.service_class = "Service/Relay";
  return config;
}

// The shortest lease `relayRegister` grants; a shorter request is raised
// to it.
constexpr std::chrono::milliseconds kMinLease{200};
}  // namespace

RelayDaemon::RelayDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                         daemon::DaemonConfig config, RelayOptions options)
    : ServiceDaemon(env, host, relay_defaults(std::move(config))),
      options_(options),
      obs_frames_(&env.metrics().counter("asd.relay_frames")),
      obs_registrations_(&env.metrics().counter("asd.relay_registrations")),
      obs_misses_(&env.metrics().counter("asd.relay_misses")),
      obs_rooms_(&env.metrics().gauge("asd.relay_rooms")) {
  register_command(
      CommandSpec("relayRegister",
                  "register a room ASD for tunneled reachability")
          .arg(word_arg("room"))
          .arg(string_arg("host"))
          .arg(integer_arg("port").range(1, 65535))
          .arg(integer_arg("lease").optional_arg())
          .concurrent_ok(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto requested = std::chrono::milliseconds(
            cmd.get_integer("lease", options_.max_lease.count()));
        auto lease = std::clamp(requested, kMinLease, options_.max_lease);
        RoomEntry entry;
        entry.address = {cmd.get_text("host"),
                         static_cast<std::uint16_t>(cmd.get_integer("port"))};
        entry.expires = std::chrono::steady_clock::now() + lease;
        {
          std::scoped_lock lock(mu_);
          rooms_[cmd.get_text("room")] = entry;
          obs_rooms_->set(static_cast<std::int64_t>(rooms_.size()));
        }
        obs_registrations_->inc();
        CmdLine reply = cmdlang::make_ok();
        reply.arg("lease", static_cast<std::int64_t>(lease.count()));
        return reply;
      });

  // concurrent_ok: the tunneled room-side RPC runs nested on this
  // connection's ops strand, so one slow room never convoys the relay.
  register_command(
      CommandSpec("relayForward", "tunnel a command to a registered room ASD")
          .arg(word_arg("room"))
          .arg(string_arg("cmd"))
          .concurrent_ok(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        const std::string room = cmd.get_text("room");
        std::optional<net::Address> target;
        {
          std::scoped_lock lock(mu_);
          target = live_room_locked(room, std::chrono::steady_clock::now());
        }
        if (!target) {
          obs_misses_->inc();
          return cmdlang::make_error(
              util::Errc::not_found,
              "room '" + room + "' is not registered with this relay");
        }
        auto inner = cmdlang::Parser::parse(cmd.get_text("cmd"));
        if (!inner.ok())
          return cmdlang::make_error(util::Errc::parse_error,
                                     "unparseable tunneled command");
        obs_frames_->inc();
        auto reply = control_client().call(
            *target, inner.value(),
            CallOptions{.timeout = options_.forward_timeout});
        if (!reply.ok())
          return cmdlang::make_error(
              util::Errc::unavailable,
              "room '" + room + "' unreachable through relay: " +
                  reply.error().to_string());
        // Tunnel transparency: the room's reply — ok or error — rides
        // inside the outer ok, re-serialized verbatim.
        CmdLine out = cmdlang::make_ok();
        out.arg("reply", reply->to_string());
        return out;
      });

  register_command(
      CommandSpec("relayRooms", "list rooms registered with this relay")
          .concurrent_ok(),
      [this](const CmdLine&, const CallerInfo&) {
        auto now = std::chrono::steady_clock::now();
        std::vector<std::string> entries;
        {
          std::scoped_lock lock(mu_);
          std::erase_if(rooms_, [&](const auto& kv) {
            return kv.second.expires <= now;
          });
          obs_rooms_->set(static_cast<std::int64_t>(rooms_.size()));
          for (const auto& [room, entry] : rooms_) {
            auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                entry.expires - now);
            entries.push_back(room + "|" + entry.address.to_string() + "|" +
                              std::to_string(left.count()));
          }
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("rooms", cmdlang::string_vector(std::move(entries)));
        return reply;
      });
}

std::size_t RelayDaemon::room_count() const {
  auto now = std::chrono::steady_clock::now();
  std::scoped_lock lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(rooms_.begin(), rooms_.end(),
                    [&](const auto& kv) { return kv.second.expires > now; }));
}

void RelayDaemon::on_crash() {
  std::scoped_lock lock(mu_);
  rooms_.clear();
  obs_rooms_->set(0);
}

std::optional<net::Address> RelayDaemon::live_room_locked(
    const std::string& room, std::chrono::steady_clock::time_point now) {
  auto it = rooms_.find(room);
  if (it == rooms_.end()) return std::nullopt;
  if (it->second.expires <= now) {
    rooms_.erase(it);
    obs_rooms_->set(static_cast<std::int64_t>(rooms_.size()));
    return std::nullopt;
  }
  return it->second.address;
}

}  // namespace ace::services

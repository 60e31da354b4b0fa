#include "baselines/jini.hpp"

#include <condition_variable>
#include <mutex>
#include <optional>

#include "util/strings.hpp"

namespace ace::baselines {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::integer_arg;
using cmdlang::string_arg;
using cmdlang::Word;
using cmdlang::word_arg;
using daemon::CallerInfo;

namespace {
daemon::DaemonConfig jini_defaults(daemon::DaemonConfig config) {
  config.open_data_channel = true;
  config.port = kJiniDiscoveryPort;
  config.register_with_asd = false;  // a rival directory does not use ours
  config.register_with_room_db = false;
  config.log_to_net_logger = false;
  if (config.service_class.empty())
    config.service_class = "Baseline/JiniLookup";
  return config;
}
}  // namespace

JiniLookupDaemon::JiniLookupDaemon(daemon::Environment& env,
                                   daemon::DaemonHost& host,
                                   daemon::DaemonConfig config)
    : ServiceDaemon(env, host, jini_defaults(std::move(config))) {
  register_command(
      CommandSpec("jiniJoin", "register a service with the lookup service")
          .arg(word_arg("name"))
          .arg(string_arg("host"))
          .arg(integer_arg("port").range(1, 65535))
          .arg(string_arg("attributes").optional_arg()),
      [this](const CmdLine& cmd, const CallerInfo&) {
        Entry e;
        e.name = cmd.get_text("name");
        e.address = net::Address{
            cmd.get_text("host"),
            static_cast<std::uint16_t>(cmd.get_integer("port"))};
        e.attributes = cmd.get_text("attributes");
        std::scoped_lock lock(mu_);
        entries_.push_back(std::move(e));
        CmdLine reply = cmdlang::make_ok();
        reply.arg("lease", static_cast<std::int64_t>(30000));
        return reply;
      });

  register_command(
      CommandSpec("jiniLookup", "find services by attribute glob")
          .arg(string_arg("attributes")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::string glob = cmd.get_text("attributes");
        std::vector<std::string> out;
        {
          std::scoped_lock lock(mu_);
          for (const Entry& e : entries_)
            if (util::glob_match(glob, e.attributes))
              out.push_back(e.name + "|" + e.address.to_string());
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("services", cmdlang::string_vector(std::move(out)));
        return reply;
      });
}

void JiniLookupDaemon::on_datagram(const net::Datagram& datagram) {
  // Discovery protocol: any datagram starting with "jini-discovery" gets a
  // unicast response announcing our command address.
  std::string text = util::to_string(datagram.payload);
  if (!util::starts_with(text, "jini-discovery")) return;
  std::string response = "jini-announce " + address().to_string();
  (void)send_datagram(datagram.from, util::to_bytes(response));
}

util::Result<JiniDiscoveryResult> jini_discover(
    daemon::Environment& env, net::Host& from,
    const std::vector<std::string>& segment_hosts,
    std::chrono::milliseconds timeout) {
  net::expect_may_block("jini_discover");  // waits for an announcement
  auto socket = from.open_datagram();
  if (!socket.ok()) return socket.error();
  const auto start = std::chrono::steady_clock::now();

  // The first announcement wins. The handler captures these by reference;
  // stopping the pump before returning keeps that safe.
  std::mutex mu;
  std::condition_variable cv;
  std::optional<JiniDiscoveryResult> found;
  net::Subscription announcements = (*socket)->on_datagram(
      env.reactor(), [&](std::optional<net::Datagram> dg) {
        if (!dg) return;
        std::string text = util::to_string(dg->payload);
        if (!util::starts_with(text, "jini-announce ")) return;
        auto addr = net::Address::parse(text.substr(14));
        if (!addr) return;
        std::scoped_lock lock(mu);
        if (found) return;
        found.emplace();
        found->lookup_service = *addr;
        found->responses_received = 1;
        found->elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start);
        cv.notify_all();
      });

  // Multicast emulation: the probe lands on every host on the segment.
  int probes_sent = 0;
  for (const std::string& host : segment_hosts) {
    (void)(*socket)->send_to(net::Address{host, kJiniDiscoveryPort},
                             util::to_bytes("jini-discovery request"));
    probes_sent++;
  }
  {
    std::unique_lock lock(mu);
    cv.wait_until(lock, start + timeout, [&] { return found.has_value(); });
  }
  announcements.stop();
  if (!found)
    return util::Error{util::Errc::timeout, "no lookup service responded"};
  found->probes_sent = probes_sent;
  return *found;
}

}  // namespace ace::baselines

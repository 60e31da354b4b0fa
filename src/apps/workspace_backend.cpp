#include "apps/workspace_backend.hpp"

#include "services/asd.hpp"

namespace ace::apps {

VncWorkspaceFactory::VncWorkspaceFactory(
    daemon::Environment& env, std::vector<daemon::DaemonHost*> server_pool,
    std::map<std::string, daemon::DaemonHost*> access_points)
    : env_(env),
      server_pool_(std::move(server_pool)),
      access_points_(std::move(access_points)),
      password_rng_(env.next_seed()) {}

void VncWorkspaceFactory::install(services::WssDaemon& wss) {
  services::WorkspaceBackend backend;
  backend.create = [this](const std::string& owner, const std::string& name) {
    return create_workspace(owner, name);
  };
  backend.show = [this](const net::Address& server, const std::string& location,
                        const std::string& owner) {
    return show_workspace(server, location, owner);
  };
  backend.destroy = [this](const net::Address& server) {
    std::scoped_lock lock(mu_);
    auto it = servers_.find(server.to_string());
    if (it != servers_.end()) {
      it->second->stop();
      servers_.erase(it);
    }
    passwords_.erase(server.to_string());
  };
  wss.set_backend(std::move(backend));
}

daemon::DaemonHost* VncWorkspaceFactory::pick_server_host() {
  // Called with mu_ held. Prefer SRM placement when the monitors are up.
  if (!server_pool_.empty() && !env_.asd_address.host.empty()) {
    if (!client_) {
      client_ = std::make_unique<daemon::AceClient>(
          env_, server_pool_.front()->net_host(),
          env_.issue_identity("svc/vnc-factory"));
    }
    auto srms = services::AsdClient(*client_, env_.asd_address).query("*", "Service/Monitor/SRM*", "*");
    if (srms.ok() && !srms->empty()) {
      cmdlang::CmdLine pick("srmPickHost");
      pick.arg("cpu", 0.2);
      auto reply = client_->call(srms->front().address, pick, daemon::kCallOk);
      if (reply.ok()) {
        std::string chosen = reply->get_text("host");
        for (daemon::DaemonHost* host : server_pool_)
          if (host->name() == chosen) return host;
      }
    }
  }
  if (server_pool_.empty()) return nullptr;
  return server_pool_[next_server_host_++ % server_pool_.size()];
}

util::Result<net::Address> VncWorkspaceFactory::create_workspace(
    const std::string& owner, const std::string& name) {
  daemon::DaemonHost* host;
  std::string password;
  {
    std::scoped_lock lock(mu_);
    host = pick_server_host();
    if (!host)
      return util::Error{util::Errc::unavailable, "no workspace hosts"};
    password = password_rng_.next_name(12);
  }
  daemon::DaemonConfig config;
  config.name = "vnc-" + owner + "-" + name;
  config.room = "machine-room";
  auto& server =
      host->add_daemon<VncServerDaemon>(std::move(config), owner, name);
  server.set_password(password);
  if (auto s = server.start(); !s.ok()) return s.error();
  net::Address address = server.address();
  std::scoped_lock lock(mu_);
  servers_[address.to_string()] = &server;
  passwords_[address.to_string()] = password;
  return address;
}

util::Status VncWorkspaceFactory::show_workspace(const net::Address& server,
                                                 const std::string& location,
                                                 const std::string& owner) {
  (void)owner;  // authentication is by the WSS-managed password
  std::string password;
  daemon::DaemonHost* ap_host;
  VncViewerDaemon* viewer = nullptr;
  {
    std::scoped_lock lock(mu_);
    auto pw = passwords_.find(server.to_string());
    if (pw == passwords_.end())
      return {util::Errc::not_found, "unknown workspace server"};
    password = pw->second;
    auto ap = access_points_.find(location);
    if (ap == access_points_.end())
      return {util::Errc::not_found, "unknown access point '" + location + "'"};
    ap_host = ap->second;
    auto existing = viewers_.find(location);
    if (existing != viewers_.end()) viewer = existing->second;
  }
  if (!viewer) {
    daemon::DaemonConfig config;
    config.name = "vncviewer-" + location;
    config.room = location;
    auto& v = ap_host->add_daemon<VncViewerDaemon>(std::move(config));
    if (auto s = v.start(); !s.ok()) return s;
    std::scoped_lock lock(mu_);
    viewers_[location] = &v;
    viewer = &v;
  }
  return viewer->attach(server, password);
}

VncServerDaemon* VncWorkspaceFactory::server_at(const net::Address& address) {
  std::scoped_lock lock(mu_);
  auto it = servers_.find(address.to_string());
  return it == servers_.end() ? nullptr : it->second;
}

VncViewerDaemon* VncWorkspaceFactory::viewer_on(const std::string& host_name) {
  std::scoped_lock lock(mu_);
  auto it = viewers_.find(host_name);
  return it == viewers_.end() ? nullptr : it->second;
}

}  // namespace ace::apps

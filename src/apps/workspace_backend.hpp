// Glue between the WSS and the real VNC implementation (paper §5.4):
//
// "VNC usage was slightly modified for ACE ... the VNC password files were
//  directly accessed and modified by the WSS when new workspaces were
//  created and when users accessed their workspaces from remote access
//  points. This guaranteed that the password verification by VNC was made
//  invisible to the normal ACE user."
//
// VncWorkspaceFactory owns that glue: it creates VncServerDaemons on a pool
// of workspace hosts (round-robin — placement proper belongs to SRM/SAL and
// is exercised separately), generates per-workspace passwords the user
// never sees, and on wssShow spins a VncViewerDaemon on the access-point
// host and attaches it with the managed password.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "apps/vnc.hpp"
#include "daemon/host.hpp"
#include "services/workspace.hpp"

namespace ace::apps {

class VncWorkspaceFactory {
 public:
  // `server_pool` hosts run workspace servers; `access_points` maps every
  // host name a viewer may be shown on to its DaemonHost.
  VncWorkspaceFactory(daemon::Environment& env,
                      std::vector<daemon::DaemonHost*> server_pool,
                      std::map<std::string, daemon::DaemonHost*> access_points);

  // Installs this factory as the WSS backend.
  void install(services::WssDaemon& wss);

  VncServerDaemon* server_at(const net::Address& address);
  VncViewerDaemon* viewer_on(const std::string& host_name);

 private:
  util::Result<net::Address> create_workspace(const std::string& owner,
                                              const std::string& name);
  util::Status show_workspace(const net::Address& server,
                              const std::string& location,
                              const std::string& owner);

  // Chooses the workspace-server host: asks the SRM (Fig 18's SAL->SRM
  // placement path) when one is registered, else round-robins the pool.
  daemon::DaemonHost* pick_server_host();

  daemon::Environment& env_;
  std::vector<daemon::DaemonHost*> server_pool_;
  std::map<std::string, daemon::DaemonHost*> access_points_;
  std::unique_ptr<daemon::AceClient> client_;

  std::mutex mu_;
  std::size_t next_server_host_ = 0;
  std::map<std::string, VncServerDaemon*> servers_;  // by address string
  std::map<std::string, std::string> passwords_;     // by address string
  std::map<std::string, VncViewerDaemon*> viewers_;  // by access-point host
  util::Rng password_rng_;
};

}  // namespace ace::apps

#include "daemon/lease.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "daemon/daemon.hpp"
#include "daemon/host.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

using namespace std::chrono_literals;

namespace ace::daemon {

LeaseCoordinator::LeaseCoordinator(Environment& env, DaemonHost& host)
    : env_(env),
      host_(host),
      client_(std::make_unique<AceClient>(
          env, host.net_host(), env.issue_identity("lease/" + host.name()))),
      obs_batches_(&env.metrics().counter("daemon.lease.batches")),
      obs_renewed_(&env.metrics().counter("daemon.lease.renewed")),
      obs_lost_(&env.metrics().counter("daemon.lease.lost")),
      ticker_(env.reactor(), [this] { tick(); }) {}

LeaseCoordinator::~LeaseCoordinator() {
  ticker_.stop();  // waits out a tick running right now
  client_->close_all();
}

std::chrono::milliseconds LeaseCoordinator::interval_locked() const {
  auto interval = std::chrono::milliseconds(500);
  for (const auto& [name, d] : enrolled_)
    interval = std::min(interval, d->config().lease_renew);
  return interval;
}

void LeaseCoordinator::enroll(ServiceDaemon& daemon) {
  std::scoped_lock lock(mu_);
  enrolled_[daemon.config().name] = &daemon;
  ticker_.start(interval_locked());
}

void LeaseCoordinator::withdraw(const std::string& name) {
  // tick_mu_ first: once acquired, no tick is mid-flight and none will see
  // the withdrawn daemon in its roster snapshot.
  std::scoped_lock tick_lock(tick_mu_);
  std::scoped_lock lock(mu_);
  enrolled_.erase(name);
}

std::size_t LeaseCoordinator::enrolled_count() const {
  std::scoped_lock lock(mu_);
  return enrolled_.size();
}

void LeaseCoordinator::tick() {
  renew();
  std::scoped_lock lock(mu_);
  if (enrolled_.empty())
    ticker_.stop();
  else
    ticker_.start(interval_locked());
}

void LeaseCoordinator::renew() {
  std::scoped_lock tick_lock(tick_mu_);
  std::vector<std::string> names;
  std::vector<ServiceDaemon*> daemons;
  {
    std::scoped_lock lock(mu_);
    names.reserve(enrolled_.size());
    for (const auto& [name, d] : enrolled_) {
      names.push_back(name);
      daemons.push_back(d);
    }
  }
  if (names.empty() || env_.asd_address.host.empty()) return;

  // Every resident lease in one RPC: the whole point of the coordinator.
  cmdlang::CmdLine cmd("renewBatch");
  cmd.arg("names", cmdlang::string_vector(names));
  auto reply = client_->call(env_.asd_address, cmd,
                             CallOptions{.timeout = 500ms, .require_ok = true});
  if (!reply.ok()) {
    // Unreachable or pre-v2 directory: nothing renewed this interval. The
    // leases simply run down, which is the correct §2.4 failure signal.
    util::log_warn("lease/" + host_.name())
        << "batched renewal failed: " << reply.error().to_string();
    return;
  }
  obs_batches_->inc();

  for (const std::string& status : reply->get_strings("statuses")) {
    auto parts = util::split(status, '|');
    if (parts.size() < 2) continue;
    if (parts[1] == "ok") {
      obs_renewed_->inc();
      continue;
    }
    // `not_found`: the directory holds no lease for this name — it crashed
    // and came back empty. Only a fresh registration (Fig 9 step 3) heals
    // the entry; the owning daemon performs it itself.
    obs_lost_->inc();
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == parts[0]) {
        daemons[i]->handle_lease_lost();
        break;
      }
    }
  }
}

}  // namespace ace::daemon

#include "store/robustness.hpp"

#include <algorithm>

#include "services/asd.hpp"

namespace ace::store {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::string_arg;
using cmdlang::Word;
using cmdlang::word_arg;
using daemon::CallerInfo;

namespace {
daemon::DaemonConfig rm_defaults(daemon::DaemonConfig config) {
  if (config.service_class.empty())
    config.service_class = "Service/Monitor/RobustnessManager";
  return config;
}

// Relaunch retry backoff: kRetryBase * 2^(failures-1), capped at kRetryCap.
constexpr std::chrono::milliseconds kRetryBase{200};
constexpr std::chrono::milliseconds kRetryCap{2000};
// Consecutive failures after which a failed relaunch is logged as critical.
constexpr int kEscalateAfter = 5;
}  // namespace

RobustnessManagerDaemon::RobustnessManagerDaemon(daemon::Environment& env,
                                                 daemon::DaemonHost& host,
                                                 daemon::DaemonConfig config,
                                                 RobustnessOptions options)
    : ServiceDaemon(env, host, rm_defaults(std::move(config))),
      options_(options),
      obs_restarts_(&env.metrics().counter("rm.restarts")),
      obs_restart_failures_(&env.metrics().counter("rm.restart_failures")),
      obs_resubscribes_(&env.metrics().counter("rm.resubscribes")),
      obs_cache_invalidations_(&env.metrics().counter("rm.cache_invalidations")),
      obs_pending_(&env.metrics().gauge("rm.pending_relaunches")) {
  register_command(
      CommandSpec("rmRegister", "manage a restart/robust service")
          .arg(word_arg("name"))
          .arg(word_arg("kind").choices({"restart", "robust"}))
          .arg(string_arg("host").optional_arg()),
      [this](const CmdLine& cmd, const CallerInfo&) {
        ManagedService m;
        m.name = cmd.get_text("name");
        m.kind = cmd.get_text("kind");
        m.host = cmd.get_text("host");
        std::scoped_lock lock(mu_);
        // Fresh registration starts from a clean slate: no stale relaunch
        // backoff, and a grace window so the sweep does not immediately
        // flag a service that registered with the RM before the ASD.
        pending_.erase(m.name);
        last_success_[m.name] = std::chrono::steady_clock::now();
        managed_[m.name] = std::move(m);
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("rmUnregister", "stop managing a service")
          .arg(word_arg("name")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::scoped_lock lock(mu_);
        const std::string name = cmd.get_text("name");
        managed_.erase(name);
        pending_.erase(name);
        last_success_.erase(name);
        obs_pending_->set(static_cast<std::int64_t>(pending_.size()));
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("rmNotify", "notification sink for ASD lease expiries")
          .arg(string_arg("source"))
          .arg(word_arg("command"))
          .arg(string_arg("detail")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto detail = cmdlang::Parser::parse(cmd.get_text("detail"));
        if (!detail.ok())
          return cmdlang::make_error(util::Errc::parse_error,
                                     "bad notification detail");
        if (detail->name() == "serviceExpired") {
          const std::string name = detail->get_text("name");
          // Evict before acting: the relaunch path must re-resolve through
          // the directory, never through a cache entry for the dead
          // instance.
          if (auto dir = directory()) {
            dir->invalidate(name);
            obs_cache_invalidations_->inc();
          }
          handle_expiry(name);
        }
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("rmStatus", "managed services and restart counts"),
      [this](const CmdLine&, const CallerInfo&) {
        std::vector<std::string> rows;
        int restarts = 0;
        {
          std::scoped_lock lock(mu_);
          for (const auto& [name, m] : managed_)
            rows.push_back(name + "|" + m.kind + "|" +
                           std::to_string(m.restarts));
          restarts = total_restarts_;
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("managed", cmdlang::string_vector(std::move(rows)));
        reply.arg("restarts", static_cast<std::int64_t>(restarts));
        return reply;
      });
}

std::shared_ptr<services::AsdClient> RobustnessManagerDaemon::directory() {
  std::scoped_lock lock(asd_mu_);
  return asd_;
}

util::Status RobustnessManagerDaemon::on_start() {
  if (!env().asd_address.host.empty()) {
    // Fresh cache each life (a restart is a new process; nothing cached
    // survives). The old one, if any, dies when its last user lets go.
    auto fresh = std::make_shared<services::AsdClient>(
        control_client(), env().asd_address,
        services::AsdCacheOptions{.enabled = true});
    std::scoped_lock lock(asd_mu_);
    asd_ = std::move(fresh);
  }
  // The ASD may not be up yet when we boot; watch_asd() can be re-invoked
  // by the deployer. Try once here, best effort — the watchdog keeps
  // retrying until the subscription sticks.
  (void)watch_asd();
  start_duty(options_.watch_interval, [this] { watchdog_tick(); });
  return util::Status::ok_status();
}

void RobustnessManagerDaemon::on_crash() {
  // The managed-service table is this process's volatile state; a relaunch
  // starts unconfigured until operators rmRegister again.
  std::scoped_lock lock(mu_);
  managed_.clear();
  pending_.clear();
  last_success_.clear();
  obs_pending_->set(0);
}

util::Status RobustnessManagerDaemon::watch_asd() {
  if (env().asd_address.host.empty())
    return {util::Errc::invalid, "no ASD configured"};
  CmdLine sub("addNotification");
  sub.arg("command", Word{"serviceExpired"});
  sub.arg("service", address().to_string());
  sub.arg("method", Word{"rmNotify"});
  auto reply = control_client().call(env().asd_address, sub, daemon::kCallOk);
  if (!reply.ok()) return reply.error();
  return util::Status::ok_status();
}

bool RobustnessManagerDaemon::subscription_alive() {
  auto reply = control_client().call(env().asd_address,
                                     CmdLine("listNotifications"),
                                     daemon::kCallOk);
  if (!reply.ok()) return true;  // can't tell; don't thrash while ASD is down
  const std::string wanted =
      "serviceExpired>" + address().to_string() + ">rmNotify";
  for (const std::string& entry : reply->get_strings("entries"))
    if (entry == wanted) return true;
  return false;
}

void RobustnessManagerDaemon::handle_expiry(const std::string& service_name) {
  {
    std::scoped_lock lock(mu_);
    if (!managed_.contains(service_name)) return;  // not ours to manage
  }
  net_log("warn", "managed service '" + service_name +
                      "' died; relaunching via SAL");
  schedule_relaunch(service_name);
}

void RobustnessManagerDaemon::schedule_relaunch(const std::string& name) {
  std::scoped_lock lock(mu_);
  if (pending_.contains(name)) return;  // attempt already in flight
  pending_[name] =
      PendingRelaunch{std::chrono::steady_clock::now(), /*failures=*/0};
  obs_pending_->set(static_cast<std::int64_t>(pending_.size()));
}

bool RobustnessManagerDaemon::try_relaunch(const std::string& name) {
  std::string host_pref;
  {
    std::scoped_lock lock(mu_);
    auto it = managed_.find(name);
    if (it == managed_.end()) {  // unmanaged while queued
      pending_.erase(name);
      obs_pending_->set(static_cast<std::int64_t>(pending_.size()));
      return true;
    }
    host_pref = it->second.host;
  }

  auto fail = [&](const std::string& why) {
    obs_restart_failures_->inc();
    int failures;
    {
      std::scoped_lock lock(mu_);
      auto& p = pending_[name];
      failures = ++p.failures;
      const int exponent = std::min(failures - 1, 16);
      auto delay = kRetryBase * (std::int64_t{1} << exponent);
      delay = std::min(delay, kRetryCap);
      p.next_attempt = std::chrono::steady_clock::now() + delay;
    }
    // Logged after letting go of mu_: net_log may connect and handshake,
    // and every command and the watchdog take mu_.
    net_log(failures >= kEscalateAfter ? "critical" : "error",
            "relaunch of '" + name + "' failed (" + std::to_string(failures) +
                "x): " + why);
    return false;
  };

  auto dir = directory();
  if (!dir) return fail("no ASD configured");
  auto sals = dir->query("*", "Service/Launcher/SAL*", "*");
  if (!sals.ok()) return fail("SAL query failed: " + sals.error().to_string());
  if (sals->empty()) return fail("no SAL registered");

  CmdLine launch("salLaunchService");
  launch.arg("name", Word{name});
  if (!host_pref.empty()) launch.arg("host", host_pref);
  auto reply =
      control_client().call(sals->front().address, launch, daemon::kCallOk);
  if (!reply.ok()) return fail(reply.error().to_string());

  obs_restarts_->inc();
  std::scoped_lock lock(mu_);
  auto it = managed_.find(name);
  if (it != managed_.end()) it->second.restarts++;
  total_restarts_++;
  pending_.erase(name);
  last_success_[name] = std::chrono::steady_clock::now();
  obs_pending_->set(static_cast<std::int64_t>(pending_.size()));
  return true;
}

void RobustnessManagerDaemon::watchdog_tick() {
  if (env().asd_address.host.empty()) return;  // nothing to watch

  // 1. Self-heal the watching: an ASD that crashed and came back has an
  // empty notification table, so our serviceExpired subscription — the
  // entire restart mechanism — is gone. Detect and re-subscribe.
  if (!subscription_alive() && watch_asd().ok()) {
    obs_resubscribes_->inc();
    net_log("info", "re-subscribed serviceExpired after ASD restart");
  }

  // 2. Sweep for silent deaths: when the ASD dies *before* a managed
  // service's lease ran out, the expiry notification is never fired, so
  // directory absence is the only remaining death signal.
  std::vector<std::string> names;
  {
    std::scoped_lock lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (const auto& [name, m] : managed_) {
      if (pending_.contains(name)) continue;  // already being handled
      auto ls = last_success_.find(name);
      if (ls != last_success_.end() &&
          now - ls->second < options_.relaunch_grace)
        continue;  // just (re)launched; give it time to re-register
      names.push_back(name);
    }
  }
  auto dir = directory();
  if (!dir) return;
  for (const auto& name : names) {
    // Cached lookups: a hit is lease-bounded, so a dead service is never
    // reported live past the instant the directory itself would have
    // dropped it — the sweep loses no detection latency to the cache.
    auto loc = dir->lookup(name);
    if (!loc.ok() && loc.error().code == util::Errc::not_found) {
      net_log("warn", "managed service '" + name +
                          "' missing from directory; relaunching");
      schedule_relaunch(name);
    }
  }

  // 3. Drain due relaunch attempts (with their capped backoff).
  std::vector<std::string> due;
  {
    std::scoped_lock lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (const auto& [name, p] : pending_)
      if (p.next_attempt <= now) due.push_back(name);
  }
  for (const auto& name : due) {
    if (!running()) return;  // stop()/crash() began: quit between RPCs
    (void)try_relaunch(name);
  }
}

std::vector<RobustnessManagerDaemon::ManagedService>
RobustnessManagerDaemon::managed() const {
  std::scoped_lock lock(mu_);
  std::vector<ManagedService> out;
  for (const auto& [name, m] : managed_) out.push_back(m);
  return out;
}

int RobustnessManagerDaemon::total_restarts() const {
  std::scoped_lock lock(mu_);
  return total_restarts_;
}

}  // namespace ace::store

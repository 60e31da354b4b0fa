#include "services/monitors.hpp"

#include "services/asd.hpp"

namespace ace::services {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::integer_arg;
using cmdlang::real_arg;
using cmdlang::Word;
using cmdlang::word_arg;
using daemon::CallerInfo;

namespace {
daemon::DaemonConfig hrm_defaults(daemon::DaemonConfig config) {
  if (config.service_class.empty())
    config.service_class = "Service/Monitor/HRM";
  return config;
}
daemon::DaemonConfig srm_defaults(daemon::DaemonConfig config) {
  if (config.service_class.empty())
    config.service_class = "Service/Monitor/SRM";
  return config;
}
}  // namespace

HrmDaemon::HrmDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                     daemon::DaemonConfig config, HrmOptions options)
    : ServiceDaemon(env, host, hrm_defaults(std::move(config))),
      options_(options) {
  register_command(CommandSpec("hrmStatus", "report host resources"),
                   [this](const CmdLine&, const CallerInfo&) {
                     return status_reply();
                   });
}

cmdlang::CmdLine HrmDaemon::status_reply() {
  const daemon::ResourceSnapshot snap = host().resources();
  CmdLine reply = cmdlang::make_ok();
  reply.arg("host", host().name());
  reply.arg("cpu_load", snap.cpu_load);
  reply.arg("bogomips", snap.bogomips);
  reply.arg("mem_total", static_cast<std::int64_t>(snap.mem_total_kb));
  reply.arg("mem_free", static_cast<std::int64_t>(snap.mem_free_kb));
  reply.arg("disk_total", static_cast<std::int64_t>(snap.disk_total_kb));
  reply.arg("disk_free", static_cast<std::int64_t>(snap.disk_free_kb));
  reply.arg("net_load", snap.net_load);
  reply.arg("processes", static_cast<std::int64_t>(snap.process_count));
  return reply;
}

util::Status HrmDaemon::on_start() {
  if (options_.sample_period.count() <= 0) return util::Status::ok_status();
  start_duty(options_.sample_period, [this] {
    const daemon::ResourceSnapshot snap = host().resources();
    CmdLine event("hrmSample");
    event.arg("host", host().name());
    event.arg("cpu_load", snap.cpu_load);
    event.arg("mem_free", static_cast<std::int64_t>(snap.mem_free_kb));
    emit_notification(event);
  });
  return util::Status::ok_status();
}

// -------------------------------------------------------------------- SRM

SrmDaemon::SrmDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                     daemon::DaemonConfig config, SrmOptions options)
    : ServiceDaemon(env, host, srm_defaults(std::move(config))),
      options_(options),
      rng_(env.next_seed()) {
  register_command(
      CommandSpec("srmStatus", "aggregate resource status of all hosts"),
      [this](const CmdLine&, const CallerInfo&) {
        std::vector<std::string> rows;
        for (const HostSnapshot& s : snapshots()) {
          if (!s.reachable) continue;
          char buf[160];
          std::snprintf(buf, sizeof(buf), "%s|%.3f|%.0f|%llu", s.host.c_str(),
                        s.cpu_load, s.bogomips,
                        static_cast<unsigned long long>(s.mem_free_kb));
          rows.push_back(buf);
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("hosts", cmdlang::string_vector(std::move(rows)));
        return reply;
      });

  register_command(
      CommandSpec("srmPickHost", "choose a host for a new application")
          .arg(real_arg("cpu").optional_arg())
          .arg(integer_arg("mem").optional_arg())
          .arg(word_arg("policy")
                   .optional_arg()
                   .choices({"least_loaded", "random", "first"})),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto picked = pick(cmd.get_real("cpu", 0.1),
                           static_cast<std::uint64_t>(cmd.get_integer("mem", 0)),
                           cmd.get_text("policy", "least_loaded"));
        if (!picked)
          return cmdlang::make_error(util::Errc::unavailable,
                                     "no host satisfies the request");
        CmdLine reply = cmdlang::make_ok();
        reply.arg("host", picked->host);
        reply.arg("cpu_load", picked->cpu_load);
        return reply;
      });
}

std::vector<SrmDaemon::HostSnapshot> SrmDaemon::snapshots() {
  {
    std::scoped_lock lock(mu_);
    if (!cache_.empty() &&
        std::chrono::steady_clock::now() - cache_at_ < options_.cache_ttl)
      return cache_;
  }

  // Every HRM registers under this class (HrmDaemon's default).
  constexpr const char* kHrmClassGlob = "Service/Monitor/HRM*";
  std::vector<HostSnapshot> out;
  auto hrms = AsdClient(control_client(), env().asd_address)
                  .query("*", kHrmClassGlob, "*");
  if (hrms.ok()) {
    for (const ServiceLocation& loc : hrms.value()) {
      HostSnapshot s;
      s.hrm = loc.address;
      auto status = control_client().call(loc.address, CmdLine("hrmStatus"), daemon::kCallOk);
      if (status.ok()) {
        s.host = status->get_text("host");
        s.cpu_load = status->get_real("cpu_load");
        s.bogomips = status->get_real("bogomips");
        s.mem_free_kb =
            static_cast<std::uint64_t>(status->get_integer("mem_free"));
        s.reachable = true;
      } else {
        s.host = loc.address.host;
        s.reachable = false;
      }
      out.push_back(std::move(s));
    }
  }
  std::scoped_lock lock(mu_);
  cache_ = out;
  cache_at_ = std::chrono::steady_clock::now();
  return out;
}

std::optional<SrmDaemon::HostSnapshot> SrmDaemon::pick(
    double cpu_demand, std::uint64_t mem_kb, const std::string& policy) {
  std::vector<HostSnapshot> candidates;
  for (HostSnapshot& s : snapshots()) {
    if (!s.reachable) continue;
    if (mem_kb > 0 && s.mem_free_kb < mem_kb) continue;
    candidates.push_back(s);
  }
  if (candidates.empty()) return std::nullopt;
  if (policy == "first") return candidates.front();
  if (policy == "random")
    return candidates[rng_.next_below(candidates.size())];
  // least_loaded: minimize load after placement, normalized by capacity.
  std::size_t best = 0;
  double best_score = 1e300;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    double capacity = std::max(candidates[i].bogomips, 1.0) / 1000.0;
    double score = (candidates[i].cpu_load + cpu_demand) / capacity;
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return candidates[best];
}

}  // namespace ace::services

// E14 — MTTR and goodput under deterministic chaos (paper §2.4, §5.2).
//
// A standard 30-second fault schedule (seed-reproducible, overridable via
// ACE_CHAOS_SEED / ACE_CHAOS_DURATION_MS) is applied to a deployment of
// four Robustness-Manager-managed services spread over three worker hosts,
// with `restart_services = false`: the chaos engine only crashes; every
// recovery is the fabric's job (lease expiry -> serviceExpired -> RM ->
// SAL -> HAL relaunch). Two measurement threads run alongside:
//
//  * a prober (breaker disabled, so the instrument does not distort the
//    measurement) pings each managed service on a tight cadence; MTTR for
//    a crash is the gap between the crash event and the first successful
//    probe after it,
//  * a load generator (full hardened client: retries, jittered backoff,
//    circuit breaker) issues round-robin calls and counts goodput.
//
// The run asserts the acceptance bar — every managed service alive and
// re-registered with the ASD at schedule end — and exports the deployment
// metrics snapshot (chaos.*, rm.*, client.*, bench.chaos.*) to
// bench_chaos.metrics.json.
#include <cstdlib>
#include <thread>

#include "bench_common.hpp"
#include "chaos/chaos.hpp"
#include "services/asd.hpp"
#include "services/launchers.hpp"
#include "services/monitors.hpp"
#include "store/robustness.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

namespace {

struct ProbeSample {
  bench::Clock::time_point at;
  bool ok = false;
};

std::chrono::milliseconds duration_from_env() {
  if (const char* raw = std::getenv("ACE_CHAOS_DURATION_MS"))
    if (long ms = std::atol(raw); ms > 0) return std::chrono::milliseconds(ms);
  return 30000ms;
}

daemon::DaemonConfig service_cfg(const std::string& name) {
  daemon::DaemonConfig cfg;
  cfg.name = name;
  cfg.room = "machine-room";
  return cfg;
}

daemon::DaemonConfig managed_cfg(const std::string& name) {
  // Short leases so the directory notices a death quickly; MTTR is
  // dominated by detection (lease expiry) + relaunch, not probe cadence.
  daemon::DaemonConfig cfg = service_cfg(name);
  cfg.lease = 300ms;
  cfg.lease_renew = 100ms;
  return cfg;
}

}  // namespace

int main() {
  const std::uint64_t seed = chaos::seed_from_env(0xe14);
  const auto duration = duration_from_env();

  bench::header("E14", "MTTR and goodput under deterministic chaos");

  testenv::AceTestEnv deployment;
  if (!deployment.start().ok()) return 1;
  auto& env = deployment.env;
  auto& metrics = env.metrics();

  // --- fabric: three worker hosts with HALs, a stable control host with
  // --- SAL + Robustness Manager (the recovery machinery itself is not a
  // --- chaos target; the experiment measures *service* recovery).
  const std::vector<std::string> worker_names = {"w1", "w2", "w3"};
  std::vector<std::unique_ptr<daemon::DaemonHost>> workers;
  std::vector<services::HalDaemon*> hals;
  for (const auto& name : worker_names) {
    workers.push_back(std::make_unique<daemon::DaemonHost>(env, name));
    auto& hal =
        workers.back()->add_daemon<services::HalDaemon>(service_cfg("hal-" +
                                                                    name));
    if (!hal.start().ok()) return 1;
    hals.push_back(&hal);
  }

  daemon::DaemonHost control(env, "control");
  auto& sal = control.add_daemon<services::SalDaemon>(service_cfg("sal"));
  if (!sal.start().ok()) return 1;

  store::RobustnessOptions rm_opts;
  rm_opts.watch_interval = 100ms;
  auto& rm = control.add_daemon<store::RobustnessManagerDaemon>(
      service_cfg("rm"), rm_opts);
  if (!rm.start().ok()) return 1;

  // --- four managed services spread over the workers. Relaunch restarts
  // --- the same daemon object on the same host (and the same address, as
  // --- the first ephemeral port binding is sticky), so the chaos engine's
  // --- and prober's handles stay valid across every crash cycle.
  const std::vector<std::string> svc_names = {"svc1", "svc2", "svc3", "svc4"};
  std::vector<services::HrmDaemon*> svcs;
  auto mgmt = deployment.make_client("mgmt", "user/mgmt");
  for (std::size_t i = 0; i < svc_names.size(); ++i) {
    auto& worker = *workers[i % workers.size()];
    auto* svc =
        &worker.add_daemon<services::HrmDaemon>(managed_cfg(svc_names[i]));
    if (!svc->start().ok()) return 1;
    svcs.push_back(svc);
    hals[i % hals.size()]->register_launchable(
        svc_names[i], [svc]() -> util::Status { return svc->start(); });

    CmdLine manage("rmRegister");
    manage.arg("name", Word{svc_names[i]});
    manage.arg("kind", Word{"restart"});
    manage.arg("host", worker.name());
    if (!mgmt->call(rm.address(), manage, daemon::kCallOk).ok()) return 1;
  }

  // --- chaos schedule: crashes are never paired with restarts; network
  // --- faults run among the worker hosts only, so the measurement plane
  // --- (prober / load client on their own hosts) is never partitioned and
  // --- a failed probe always means the service itself was unavailable.
  chaos::ScheduleParams params;
  params.duration = duration;
  params.mean_interval = 600ms;
  params.min_fault = 300ms;
  params.max_fault = 1500ms;
  params.restart_services = false;
  chaos::Targets targets;
  targets.services = svc_names;
  targets.hosts = worker_names;

  chaos::Schedule schedule = chaos::generate_schedule(seed, params, targets);
  chaos::ChaosEngine engine(env, schedule);
  for (std::size_t i = 0; i < svcs.size(); ++i)
    engine.add_service(svc_names[i], svcs[i]);
  std::printf("  seed=%llu duration=%lldms events=%zu\n",
              static_cast<unsigned long long>(seed),
              static_cast<long long>(duration.count()),
              schedule.events.size());

  // --- prober: recovery detector. Breaker off so open-state fast-fails
  // --- cannot quantise the recovery timestamps it records.
  std::vector<std::vector<ProbeSample>> probes(svcs.size());
  auto prober_client = deployment.make_client("probe", "user/probe");
  prober_client->set_breaker_policy({.failure_threshold = 0});
  std::jthread prober([&](std::stop_token st) {
    const daemon::CallOptions opts{.timeout = 100ms,
                                   .require_ok = true,
                                   .retries = 0,
                                   .backoff = 1ms};
    while (!st.stop_requested()) {
      for (std::size_t i = 0; i < svcs.size(); ++i) {
        const bool ok =
            prober_client->call(svcs[i]->address(), CmdLine("ping"), opts)
                .ok();
        probes[i].push_back({bench::Clock::now(), ok});
      }
      std::this_thread::sleep_for(10ms);
    }
  });

  // --- load generator: the hardened client path end to end (retries with
  // --- jittered backoff + circuit breaker). Goodput is the fraction of
  // --- calls that complete despite the ongoing faults.
  std::atomic<std::uint64_t> load_total{0}, load_ok{0};
  auto load_client = deployment.make_client("load", "user/load");
  std::jthread load([&](std::stop_token st) {
    const daemon::CallOptions opts{.timeout = 400ms,
                                   .require_ok = true,
                                   .retries = 2,
                                   .backoff = 20ms,
                                   .backoff_cap = 200ms};
    std::size_t next = 0;
    while (!st.stop_requested()) {
      const auto& target = *svcs[next++ % svcs.size()];
      load_total++;
      if (load_client->call(target.address(), CmdLine("ping"), opts).ok())
        load_ok++;
      std::this_thread::sleep_for(10ms);
    }
  });

  // Warm-up window: everything healthy, establishes the baseline.
  std::this_thread::sleep_for(1s);
  const std::uint64_t base_total = load_total.load();
  const std::uint64_t base_ok = load_ok.load();

  const auto chaos_start = bench::Clock::now();
  engine.start();
  engine.join();
  const std::uint64_t chaos_total = load_total.load() - base_total;
  const std::uint64_t chaos_ok = load_ok.load() - base_ok;

  // --- acceptance bar: every managed service alive and re-registered with
  // --- the ASD after the schedule completes (the last crash may land near
  // --- the horizon, so give the relaunch chain room to finish).
  services::AsdClient asd(*mgmt, env.asd_address);
  bool all_live = false;
  for (int i = 0; i < 1000 && !all_live; ++i) {
    all_live = true;
    for (std::size_t s = 0; s < svcs.size(); ++s) {
      const bool live =
          asd.lookup(svc_names[s]).ok() &&
          mgmt->call(svcs[s]->address(), CmdLine("ping"),
                     {.timeout = 200ms, .require_ok = true, .retries = 0})
              .ok();
      if (!live) {
        all_live = false;
        break;
      }
    }
    if (!all_live) std::this_thread::sleep_for(10ms);
  }
  prober.request_stop();
  load.request_stop();
  prober.join();
  load.join();

  // --- MTTR: per applied crash, the gap to the first successful probe of
  // --- that service after the crash instant.
  bench::Series mttr_ms;
  int crashes = 0, recovered = 0;
  std::printf("\n%8s %8s %12s\n", "service", "at_ms", "mttr_ms");
  for (const auto& applied : engine.log()) {
    if (applied.event.kind != chaos::FaultKind::service_crash ||
        !applied.applied)
      continue;
    crashes++;
    std::size_t idx = 0;
    while (idx < svc_names.size() && svc_names[idx] != applied.event.a) idx++;
    const auto crash_at =
        chaos_start + std::chrono::milliseconds(applied.applied_at);
    double mttr = -1.0;
    for (const auto& sample : probes[idx]) {
      if (sample.ok && sample.at > crash_at) {
        mttr = std::chrono::duration_cast<
                   std::chrono::duration<double, std::milli>>(sample.at -
                                                              crash_at)
                   .count();
        break;
      }
    }
    if (mttr >= 0) {
      recovered++;
      mttr_ms.add(mttr);
    }
    std::printf("%8s %8lld %12.1f\n", applied.event.a.c_str(),
                static_cast<long long>(applied.applied_at.count()), mttr);
  }

  const double goodput =
      chaos_total ? 100.0 * static_cast<double>(chaos_ok) /
                        static_cast<double>(chaos_total)
                  : 0.0;
  const double baseline = base_total ? 100.0 * static_cast<double>(base_ok) /
                                           static_cast<double>(base_total)
                                     : 0.0;
  std::printf("\n  crashes=%d recovered=%d all_live_at_end=%s\n", crashes,
              recovered, all_live ? "yes" : "NO");
  std::printf("  MTTR ms: mean=%.0f p50=%.0f max=%.0f\n", mttr_ms.mean(),
              mttr_ms.percentile(50), mttr_ms.max());
  std::printf("  goodput: %.1f%% under chaos (baseline %.1f%%, %llu calls)\n",
              goodput, baseline,
              static_cast<unsigned long long>(chaos_total));
  std::printf("  rm restarts=%d client retries=%llu breaker trips=%llu\n",
              rm.total_restarts(),
              static_cast<unsigned long long>(
                  metrics.counter("client.retries").value()),
              static_cast<unsigned long long>(
                  metrics.counter("client.breaker_trips").value()));

  metrics.gauge("bench.chaos.seed").set(static_cast<std::int64_t>(seed));
  metrics.gauge("bench.chaos.duration_ms").set(duration.count());
  metrics.gauge("bench.chaos.crashes").set(crashes);
  metrics.gauge("bench.chaos.recovered").set(recovered);
  metrics.gauge("bench.chaos.all_live").set(all_live ? 1 : 0);
  metrics.gauge("bench.chaos.mttr_ms_mean")
      .set(static_cast<std::int64_t>(mttr_ms.mean()));
  metrics.gauge("bench.chaos.mttr_ms_p50")
      .set(static_cast<std::int64_t>(mttr_ms.percentile(50)));
  metrics.gauge("bench.chaos.mttr_ms_max")
      .set(static_cast<std::int64_t>(mttr_ms.max()));
  metrics.gauge("bench.chaos.goodput_permille")
      .set(static_cast<std::int64_t>(goodput * 10.0));
  bench::export_metrics_json("bench_chaos", metrics.snapshot());

  const bool pass = all_live && crashes > 0 && recovered == crashes;
  std::printf("  E14 %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

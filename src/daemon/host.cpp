#include "daemon/host.hpp"

#include "daemon/daemon.hpp"
#include "daemon/lease.hpp"

namespace ace::daemon {

DaemonHost::DaemonHost(Environment& env, const std::string& name,
                       HostSpec spec)
    : env_(env), name_(name), spec_(spec) {
  net_host_ = &env.network().add_host(name);
}

DaemonHost::~DaemonHost() { stop_all(); }

ResourceSnapshot DaemonHost::resources() const {
  std::scoped_lock lock(mu_);
  ResourceSnapshot snap;
  snap.bogomips = spec_.bogomips;
  snap.mem_total_kb = spec_.mem_total_kb;
  snap.disk_total_kb = spec_.disk_total_kb;
  snap.disk_free_kb = spec_.disk_total_kb;  // disk model kept static
  snap.net_load = net_load_;
  snap.cpu_load = base_load_;
  std::uint64_t mem_used = 0;
  for (const ProcessInfo& p : process_table_) {
    if (!p.running) continue;
    snap.cpu_load += p.cpu_demand;
    mem_used += p.mem_kb;
    snap.process_count++;
  }
  snap.mem_free_kb =
      mem_used >= spec_.mem_total_kb ? 0 : spec_.mem_total_kb - mem_used;
  return snap;
}

void DaemonHost::set_net_load(double load) {
  std::scoped_lock lock(mu_);
  net_load_ = load;
}

void DaemonHost::set_base_load(double load) {
  std::scoped_lock lock(mu_);
  base_load_ = load;
}

int DaemonHost::launch_process(const std::string& command, double cpu_demand,
                               std::uint64_t mem_kb) {
  std::scoped_lock lock(mu_);
  ProcessInfo p;
  p.pid = next_pid_++;
  p.command = command;
  p.cpu_demand = cpu_demand;
  p.mem_kb = mem_kb;
  p.running = true;
  p.started = std::chrono::steady_clock::now();
  process_table_.push_back(p);
  return p.pid;
}

bool DaemonHost::kill_process(int pid) {
  std::scoped_lock lock(mu_);
  for (ProcessInfo& p : process_table_) {
    if (p.pid == pid && p.running) {
      p.running = false;
      return true;
    }
  }
  return false;
}

bool DaemonHost::process_running(int pid) const {
  std::scoped_lock lock(mu_);
  for (const ProcessInfo& p : process_table_)
    if (p.pid == pid) return p.running;
  return false;
}

std::vector<ProcessInfo> DaemonHost::processes() const {
  std::scoped_lock lock(mu_);
  return process_table_;
}

util::Status DaemonHost::start_all() {
  std::vector<ServiceDaemon*> to_start;
  {
    std::scoped_lock lock(mu_);
    for (auto& d : daemons_) to_start.push_back(d.get());
  }
  for (ServiceDaemon* d : to_start) {
    if (d->running()) continue;
    if (auto s = d->start(); !s.ok()) return s;
  }
  return util::Status::ok_status();
}

void DaemonHost::stop_all() {
  std::vector<ServiceDaemon*> to_stop;
  {
    std::scoped_lock lock(mu_);
    for (auto& d : daemons_) to_stop.push_back(d.get());
  }
  // Stop in reverse start order so dependents go first.
  for (auto it = to_stop.rbegin(); it != to_stop.rend(); ++it) (*it)->stop();
}

LeaseCoordinator& DaemonHost::leases() {
  std::scoped_lock lock(mu_);
  if (!leases_) leases_ = std::make_unique<LeaseCoordinator>(env_, *this);
  return *leases_;
}

void DaemonHost::leases_withdraw(const std::string& name) {
  LeaseCoordinator* leases = nullptr;
  {
    std::scoped_lock lock(mu_);
    leases = leases_.get();
  }
  if (leases) leases->withdraw(name);
}

void DaemonHost::fail() {
  net_host_->set_down(true);
  std::vector<ServiceDaemon*> to_crash;
  {
    std::scoped_lock lock(mu_);
    for (auto& d : daemons_) to_crash.push_back(d.get());
    for (ProcessInfo& p : process_table_) p.running = false;
  }
  for (ServiceDaemon* d : to_crash) d->crash();
}

void DaemonHost::restore() { net_host_->set_down(false); }

}  // namespace ace::daemon

// DaemonHost — a simulated Unix machine in an ACE (paper §2.1: "each
// machine/computing system in an ACE may have one or more ACE service
// daemons running within it").
//
// The host carries:
//  * a net::Host (its network presence),
//  * a resource model (CPU capacity in bogomips, memory, disk, and the load
//    induced by running processes) — the data the HRM reports (§4.1),
//  * a process table of HAL-launched applications (§4.3),
//  * its resident service daemons, with boot-time start-all (§2.6 Fig 9:
//    "Upon booting, the Unix machine 'bar' automatically launches the ACE
//    service 'foo'").
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "daemon/environment.hpp"

namespace ace::daemon {

class LeaseCoordinator;
class ServiceDaemon;

struct HostSpec {
  double bogomips = 1000.0;  // CPU capacity (paper reports speed in bogomips)
  std::uint64_t mem_total_kb = 512 * 1024;
  std::uint64_t disk_total_kb = 8 * 1024 * 1024;
};

struct ProcessInfo {
  int pid = 0;
  std::string command;
  double cpu_demand = 0.0;  // fraction of one CPU
  std::uint64_t mem_kb = 0;
  bool running = false;
  std::chrono::steady_clock::time_point started;
};

// Snapshot reported by the Host Resource Monitor (§4.1): "host CPU load,
// CPU speed (in bogomips), network traffic load, total and available
// memory, and disk storage capabilities and size".
struct ResourceSnapshot {
  double cpu_load = 0.0;  // 0..N (sum of process demands)
  double bogomips = 0.0;
  std::uint64_t mem_total_kb = 0;
  std::uint64_t mem_free_kb = 0;
  std::uint64_t disk_total_kb = 0;
  std::uint64_t disk_free_kb = 0;
  double net_load = 0.0;  // abstract 0..1
  int process_count = 0;
};

class DaemonHost {
 public:
  DaemonHost(Environment& env, const std::string& name, HostSpec spec = {});
  ~DaemonHost();

  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;

  const std::string& name() const { return name_; }
  net::Host& net_host() { return *net_host_; }
  Environment& env() { return env_; }
  const HostSpec& spec() const { return spec_; }

  // --- resource model -----------------------------------------------------
  ResourceSnapshot resources() const;
  void set_net_load(double load);
  // Extra load not tied to a process (background noise for experiments).
  void set_base_load(double load);

  // --- process table (HAL substrate) ---------------------------------------
  int launch_process(const std::string& command, double cpu_demand,
                     std::uint64_t mem_kb);
  bool kill_process(int pid);
  bool process_running(int pid) const;
  std::vector<ProcessInfo> processes() const;

  // --- daemons --------------------------------------------------------------
  // Constructs a daemon owned by this host and returns a reference to it.
  template <typename D, typename... Args>
  D& add_daemon(Args&&... args) {
    auto daemon = std::make_unique<D>(env_, *this, std::forward<Args>(args)...);
    D& ref = *daemon;
    {
      std::scoped_lock lock(mu_);
      daemons_.push_back(std::move(daemon));
    }
    return ref;
  }

  // Boots the machine: starts every resident daemon in registration order.
  util::Status start_all();
  void stop_all();

  // The host's batched lease renewer (lease.hpp), created on first use —
  // every daemon that registers with the ASD enrolls here. leases_withdraw()
  // is the removal path that does NOT conjure a coordinator into existence
  // just to leave it.
  LeaseCoordinator& leases();
  void leases_withdraw(const std::string& name);

  // Host failure: drops off the network and crashes all daemons; restore()
  // brings the network interface back (daemons must be restarted).
  void fail();
  void restore();
  bool failed() const { return net_host_->down(); }

 private:
  Environment& env_;
  std::string name_;
  HostSpec spec_;
  net::Host* net_host_;

  mutable std::mutex mu_;
  std::vector<ProcessInfo> process_table_;
  int next_pid_ = 100;
  double net_load_ = 0.0;
  double base_load_ = 0.0;
  // Declared before daemons_: daemon destructors call stop(), which
  // withdraws from the coordinator, so it must outlive them.
  std::unique_ptr<LeaseCoordinator> leases_;
  std::vector<std::unique_ptr<ServiceDaemon>> daemons_;
};

}  // namespace ace::daemon

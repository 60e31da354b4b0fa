// User identification services (paper §4.6, §4.8, §4.9; Scenario 2):
//
//  * FiuDaemon — interface to the (simulated) Sony FIU fingerprint unit:
//    enrolled templates are feature vectors, scans are noisy samples matched
//    by nearest template under a distance threshold.
//  * IButtonDaemon — interface to the (simulated) Dallas iButton reader:
//    reads a serial number and resolves it through the AUD.
//  * IdMonitorDaemon — "receives user identification notifications from ACE
//    identification devices and initiat[es] the appropriate actions": it
//    updates the user's location in the AUD and brings the user's default
//    workspace up at the access point via the WSS (Fig 19).
//
// Both device daemons emit `identified user= room= station= device=;`
// notifications on success and `identifyFailed ...;` on failure; failures
// are also reported to the Network Logger at level `security` (§4.14's
// intrusion-attempt example).
#pragma once

#include <deque>

#include "daemon/devices.hpp"

namespace ace::services {

using FingerprintFeatures = std::vector<double>;

struct FiuOptions {
  double match_threshold = 0.5;  // max L2 feature distance for a match
};

class FiuDaemon : public daemon::DeviceDaemon {
 public:
  FiuDaemon(daemon::Environment& env, daemon::DaemonHost& host,
            daemon::DaemonConfig config, FiuOptions options = {});

  // Commands:
  //   fiuEnroll template= features={...};
  //   fiuScan features={...} station=?;     -> ok template= user=
  //   fiuTemplates;                         -> ok templates={...}

 private:
  cmdlang::CmdLine identify(const FingerprintFeatures& scan,
                            const std::string& station);

  FiuOptions options_;
  std::mutex mu_;
  std::map<std::string, FingerprintFeatures> templates_;
};

class IButtonDaemon : public daemon::DeviceDaemon {
 public:
  IButtonDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                daemon::DaemonConfig config);

  // Commands:
  //   ibuttonRead serial= station=?;        -> ok user=
};

struct IdMonitorOptions {
  bool auto_show_workspace = true;  // bring up the workspace on identify
};

class IdMonitorDaemon : public daemon::ServiceDaemon {
 public:
  struct IdEvent {
    std::string user;
    std::string room;
    std::string station;
    std::string device;
    bool positive = false;
  };

  IdMonitorDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                  daemon::DaemonConfig config, IdMonitorOptions options = {});

  // Subscribes this monitor to `identified`/`identifyFailed` notifications
  // of an identification device daemon.
  util::Status watch_device(const net::Address& device);

  std::vector<IdEvent> events() const;

  // Commands:
  //   idNotify source= command= detail=;   (notification sink)
  //   idEvents;                            -> ok events={...}

 private:
  void handle_identified(const cmdlang::CmdLine& detail);

  IdMonitorOptions options_;
  mutable std::mutex mu_;
  std::deque<IdEvent> events_;
};

}  // namespace ace::services

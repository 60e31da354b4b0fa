// Personnel tracker — an example of the paper's *non-human ACE user*
// (§1.1: "Non-human users are high-level applications that utilize ACE
// services on their own to provide automation within an ACE. Examples of
// this would be video monitoring systems, personnel tracking systems").
//
// The tracker subscribes to `identified` notifications from every
// identification device in the environment (discovered through the ASD)
// and maintains per-user movement histories, enabling "where is Kate"
// queries and presence lists per room — the substrate for the paper's
// envisioned camera-follows-speaker automation (§2.5's door example).
//
// Command set:
//   trackWatchAll;                  (subscribe to all ID devices via ASD)
//   trackNotify source= command= detail=;   (notification sink)
//   trackWhereIs user=;             -> ok room= station= sightings=
//   trackHistory user= limit=?;     -> ok entries={room|station|device ...}
//   trackPresent room=;             -> ok users={...}
#pragma once

#include <deque>

#include "daemon/daemon.hpp"

namespace ace::services {

class TrackerDaemon : public daemon::ServiceDaemon {
 public:
  struct Sighting {
    std::string room;
    std::string station;
    std::string device;
    std::chrono::steady_clock::time_point at;
  };

  TrackerDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                daemon::DaemonConfig config);

  // Subscribes to `identified` on every registered identification device.
  // Returns how many devices were subscribed.
  util::Result<std::int64_t> watch_all_devices();

  std::optional<Sighting> last_sighting(const std::string& user) const;
  std::size_t tracked_users() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::deque<Sighting>> history_;
};

}  // namespace ace::services

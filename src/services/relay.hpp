// RelayDaemon — the rendezvous tier for rooms behind bad links (paper Ch 9
// campus topology; the syncspirit global-discovery + relay-actor shape).
//
// A room ASD that cannot be reached directly keeps a lease-bounded
// registration here (`relayRegister`, renewed by its GossipAgent). Peers
// whose direct link is down — or who were seeded with a relay for the room
// — tunnel commands through `relayForward room= cmd=`: the relay parses the
// serialized command, invokes it on the registered room ASD over its own
// control client, and returns the serialized reply verbatim (`ok reply=`).
// Tunneling is transparent: an `error` reply from the room comes back
// inside an outer `ok`, so the tunnel never masks room-level failures as
// relay failures.
//
// Commands:
//   relayRegister room= host= port= lease=?;  -> ok lease=granted_ms
//   relayForward room= cmd=;                  -> ok reply="<serialized>"
//   relayRooms;                               -> ok rooms={room|host:port|expires_in}
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>

#include "daemon/daemon.hpp"

namespace ace::services {

struct RelayOptions {
  std::chrono::milliseconds max_lease{60000};
  // Deadline for one tunneled command (the room-side RPC).
  std::chrono::milliseconds forward_timeout{750};
};

class RelayDaemon : public daemon::ServiceDaemon {
 public:
  RelayDaemon(daemon::Environment& env, daemon::DaemonHost& host,
              daemon::DaemonConfig config, RelayOptions options = {});

  std::size_t room_count() const;

 protected:
  void on_crash() override;

 private:
  struct RoomEntry {
    net::Address address;
    std::chrono::steady_clock::time_point expires;
  };

  RelayOptions options_;

  obs::Counter* obs_frames_;         // asd.relay_frames — tunneled commands
  obs::Counter* obs_registrations_;  // asd.relay_registrations
  obs::Counter* obs_misses_;         // asd.relay_misses — unknown/expired room
  obs::Gauge* obs_rooms_;            // asd.relay_rooms

  mutable std::mutex mu_;
  std::map<std::string, RoomEntry> rooms_;

  // Drops expired entries and refreshes the gauge; returns a live room's
  // address. Expiry is lazy (checked on every touch) — the relay has no
  // reaper of its own.
  std::optional<net::Address> live_room_locked(
      const std::string& room, std::chrono::steady_clock::time_point now);
};

}  // namespace ace::services

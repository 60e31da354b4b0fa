// Tag-routed zero-copy media data plane (ISSUE 7; HAL "halmap" style).
//
// Every media datagram — AudioFrame and MediaPacket alike — begins with a
// length-prefixed stream tag. The FrameRouter maps that tag to an ordered
// list of processing stages plus a set of downstream sinks, so a media
// daemon can dispatch a frame with an O(1) header peek and a table lookup
// instead of a full parse. Routes are installed through authorized control
// commands (routeAdd / routeRemove / routeTable); the per-frame data path
// performs no authorization work at all — the KeyNote check happened once,
// at route-install time (provisioned-policy model, DESIGN.md §security).
//
// Stage contract: a stage receives the frame tag and the shared wire
// payload and returns
//   * the SAME SharedBytes        — pure observation, zero-copy pass-through;
//   * a NEW SharedBytes           — a transform (decode once, re-serialize
//                                   once); the result is fanned out to every
//                                   sink without further copies;
//   * std::nullopt                — the frame was consumed (aggregated,
//                                   buffered or rejected); nothing is sent.
//
// Routes are copy-on-write: lookup() returns an immutable snapshot that
// stays valid while concurrent routeAdd/routeRemove calls swap the table.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "daemon/daemon.hpp"
#include "util/bytes.hpp"

namespace ace::media {

// Reads only the leading length-prefixed stream tag of a media datagram —
// no allocation, no payload scan. Returns nullopt on a malformed header.
std::optional<std::string_view> peek_tag(util::BytesView data);

// The catch-all route tag: stages/sinks installed under it apply to every
// tag that has no specific route (and its sinks merge with tagged routes).
inline constexpr const char* kCatchAllTag = "*";

using StageFn = std::function<std::optional<util::SharedBytes>(
    std::string_view tag, const util::SharedBytes& payload)>;

class FrameRouter {
 public:
  // An immutable compiled route snapshot. Stage functions are resolved from
  // the registry at install time, never on the frame path.
  struct CompiledRoute {
    std::vector<std::string> stage_names;
    std::vector<StageFn> stages;
    std::vector<net::Address> sinks;
  };

  // Named stages a route may reference. Registration happens at daemon
  // construction; installing a route that names an unknown stage fails.
  void register_stage(const std::string& name, StageFn fn);
  std::vector<std::string> stage_names() const;

  // Replaces the stage list of `tag`'s route (creating the route if new).
  util::Status set_stages(const std::string& tag,
                          const std::vector<std::string>& names);
  void add_sink(const std::string& tag, const net::Address& sink);
  // Returns false if the route or sink did not exist.
  bool remove_sink(const std::string& tag, const net::Address& sink);
  bool remove_route(const std::string& tag);

  // O(log routes) snapshot lookup; nullptr when `tag` has no route.
  std::shared_ptr<const CompiledRoute> lookup(std::string_view tag) const;

  // Table dump for routeTable: {tag, route snapshot} pairs, sorted by tag.
  std::vector<std::pair<std::string, std::shared_ptr<const CompiledRoute>>>
  table() const;

 private:
  // Clones tag's current route for mutation; publish with publish_locked.
  CompiledRoute clone_locked(const std::string& tag) const;
  void publish_locked(const std::string& tag, CompiledRoute route);

  mutable std::mutex mu_;
  std::map<std::string, StageFn> stage_registry_;
  std::map<std::string, std::shared_ptr<const CompiledRoute>, std::less<>>
      routes_;
};

// Base class for media daemons that move frames through the router: owns a
// FrameRouter, registers the route* commands, and implements the zero-copy
// datagram path (peek tag → lookup → stages → batched sink fan-out).
//
// Deployment-wide counters (Environment metrics):
//   media.frames_routed    frames matched to a route
//   media.frames_dropped   frames with no tag or no route
//   media.bytes_copied     payload bytes copied on the data path (zero on
//                          pure fan-out)
//   media.datagrams_fanned sink sends (each a view, not a copy)
//   media.route_installs   routeAdd/routeRemove-style table mutations
class RoutedMediaDaemon : public daemon::ServiceDaemon {
 public:
  RoutedMediaDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                    daemon::DaemonConfig config);

  FrameRouter& router() { return router_; }
  const FrameRouter& router() const { return router_; }

  struct RouteStats {
    std::uint64_t frames = 0;  // frames that matched a route
    std::uint64_t bytes = 0;   // their payload bytes
    std::uint64_t fanout = 0;  // sink sends
  };
  RouteStats route_stats() const;

 protected:
  void on_datagram(const net::Datagram& datagram) final;

  // Routes a locally produced frame by its own tag: the frame goes to the
  // tag route's sinks plus the catch-all sinks, without running stages.
  void emit(const util::SharedBytes& payload);

 private:
  void send_to_sinks(const FrameRouter::CompiledRoute* primary,
                     const FrameRouter::CompiledRoute* catch_all,
                     const util::SharedBytes& payload);

  FrameRouter router_;

  obs::Counter& frames_routed_;
  obs::Counter& frames_dropped_;
  obs::Counter& datagrams_fanned_;
  obs::Counter& route_installs_;

  std::atomic<std::uint64_t> local_frames_{0};
  std::atomic<std::uint64_t> local_bytes_{0};
  std::atomic<std::uint64_t> local_fanout_{0};
};

}  // namespace ace::media

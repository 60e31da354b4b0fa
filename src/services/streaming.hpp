// Converter and Distribution services (paper §4.12/§4.13, Figs 13-14) — the
// low-level data-movement services that media pipelines are assembled from.
//
// Both are RoutedMediaDaemons: every media datagram starts with a
// length-prefixed stream tag (AudioFrame and MediaPacket share this prefix),
// so dispatch is an O(1) tag peek plus a FrameRouter lookup. Distribution is
// a pure zero-copy fan-out (no stages — N views of one shared buffer, as
// Fig 14 depicts); the Converter installs a "convert" stage that parses the
// MediaPacket in place and pays a decode/re-encode only when the route
// actually crosses a codec boundary.
//
// Converter commands:
//   convRoute stream= from= to= dest=;    (install a conversion route)
//   convFormats;                          -> ok pairs={...}
//   convStats stream=;                    -> ok in_bytes= out_bytes= packets=
// Distribution commands:
//   distAddSink stream= dest=;
//   distRemoveSink stream= dest=;
//   distSinks stream=;                    -> ok sinks={...}
//   distStats;                            -> ok packets= bytes= fanout=
// plus the route* family both inherit from RoutedMediaDaemon.
#pragma once

#include <map>

#include "media/codec.hpp"
#include "media/router.hpp"

namespace ace::services {

// Generic media packet: stream tag + sequence + format + payload.
struct MediaPacket {
  std::string stream;
  std::uint32_t sequence = 0;
  std::string format;  // "raw_pcm", "adpcm", "raw_video", "rle_video"
  util::Bytes payload;

  util::Bytes serialize() const;
  static std::optional<MediaPacket> parse(util::BytesView data);
};

// Zero-copy decode of a serialized MediaPacket: header fields as views into
// the wire buffer, payload as a borrowed span. Keep the owning buffer alive
// while the view is used.
struct MediaPacketView {
  std::string_view stream;
  std::uint32_t sequence = 0;
  std::string_view format;
  util::BytesView payload;

  static std::optional<MediaPacketView> parse(util::BytesView data);
};

class ConverterDaemon : public media::RoutedMediaDaemon {
 public:
  ConverterDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                  daemon::DaemonConfig config);

  struct RouteStats {
    std::uint64_t packets = 0;
    std::uint64_t in_bytes = 0;
    std::uint64_t out_bytes = 0;
  };
  std::optional<RouteStats> route_stats(const std::string& stream) const;

 private:
  struct Route {
    std::string from;
    std::string to;
    net::Address dest;
    media::AdpcmState adpcm_encode_state;
    media::AdpcmState adpcm_decode_state;
    media::VideoFrame reference;  // inter-frame coding state
    bool has_reference = false;
    RouteStats stats;
  };

  // The "convert" stage: identity routes pass the wire buffer through
  // untouched (zero-copy); codec routes decode once and re-serialize once.
  std::optional<util::SharedBytes> convert_stage(
      std::string_view tag, const util::SharedBytes& payload);
  util::Result<util::Bytes> convert(Route& route, util::BytesView payload);

  mutable std::mutex mu_;
  std::map<std::string, Route> routes_;  // keyed by stream tag
};

class DistributionDaemon : public media::RoutedMediaDaemon {
 public:
  DistributionDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                     daemon::DaemonConfig config);
};

}  // namespace ace::services

#include "services/streaming.hpp"

namespace ace::services {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::string_arg;
using cmdlang::Word;
using cmdlang::word_arg;
using daemon::CallerInfo;

namespace {

daemon::DaemonConfig converter_defaults(daemon::DaemonConfig config) {
  if (config.service_class.empty())
    config.service_class = "Service/Stream/Converter";
  return config;
}
daemon::DaemonConfig distribution_defaults(daemon::DaemonConfig config) {
  if (config.service_class.empty())
    config.service_class = "Service/Stream/Distribution";
  return config;
}

const std::vector<std::string> kConversionPairs = {
    "raw_pcm>adpcm", "adpcm>raw_pcm", "raw_video>rle_video",
    "rle_video>raw_video", "raw_pcm>raw_pcm"};

bool conversion_supported(const std::string& from, const std::string& to) {
  for (const std::string& pair : kConversionPairs)
    if (pair == from + ">" + to) return true;
  return false;
}

std::uint32_t rd_u32(util::BytesView data, std::size_t at) {
  return static_cast<std::uint32_t>(data[at]) |
         static_cast<std::uint32_t>(data[at + 1]) << 8 |
         static_cast<std::uint32_t>(data[at + 2]) << 16 |
         static_cast<std::uint32_t>(data[at + 3]) << 24;
}

}  // namespace

util::Bytes MediaPacket::serialize() const {
  util::ByteWriter w;
  w.str(stream);
  w.u32(sequence);
  w.str(format);
  w.blob(payload);
  return w.take();
}

std::optional<MediaPacket> MediaPacket::parse(util::BytesView data) {
  util::ByteReader r(data);
  MediaPacket p;
  auto stream = r.str();
  auto seq = r.u32();
  auto format = r.str();
  auto payload = r.blob();
  if (!stream || !seq || !format || !payload) return std::nullopt;
  p.stream = std::move(*stream);
  p.sequence = *seq;
  p.format = std::move(*format);
  p.payload = std::move(*payload);
  return p;
}

std::optional<MediaPacketView> MediaPacketView::parse(util::BytesView data) {
  // Wire layout (MediaPacket::serialize): u32 tag_len | tag | u32 sequence |
  // u32 fmt_len | fmt | u32 payload_len | payload. Raw offsets, zero copy.
  if (data.size() < 4) return std::nullopt;
  std::size_t tag_len = rd_u32(data, 0);
  std::size_t at = 4 + tag_len;
  if (data.size() < at + 8) return std::nullopt;
  MediaPacketView v;
  v.stream =
      std::string_view(reinterpret_cast<const char*>(data.data()) + 4, tag_len);
  v.sequence = rd_u32(data, at);
  std::size_t fmt_len = rd_u32(data, at + 4);
  at += 8;
  if (data.size() < at + fmt_len + 4) return std::nullopt;
  v.format = std::string_view(reinterpret_cast<const char*>(data.data()) + at,
                              fmt_len);
  std::size_t payload_len = rd_u32(data, at + fmt_len);
  at += fmt_len + 4;
  if (data.size() < at + payload_len) return std::nullopt;
  v.payload = data.subspan(at, payload_len);
  return v;
}

// ------------------------------------------------------------------ Converter

ConverterDaemon::ConverterDaemon(daemon::Environment& env,
                                 daemon::DaemonHost& host,
                                 daemon::DaemonConfig config)
    : RoutedMediaDaemon(env, host, converter_defaults(std::move(config))) {
  router().register_stage(
      "convert",
      [this](std::string_view tag, const util::SharedBytes& payload) {
        return convert_stage(tag, payload);
      });
  (void)router().set_stages(media::kCatchAllTag, {"convert"});

  register_command(
      CommandSpec("convRoute", "install a conversion route for a stream")
          .arg(string_arg("stream"))
          .arg(word_arg("from"))
          .arg(word_arg("to"))
          .arg(string_arg("dest")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::string from = cmd.get_text("from");
        std::string to = cmd.get_text("to");
        if (!conversion_supported(from, to))
          return cmdlang::make_error(util::Errc::invalid,
                                     "unsupported conversion " + from + ">" +
                                         to);
        auto dest = net::Address::parse(cmd.get_text("dest"));
        if (!dest)
          return cmdlang::make_error(util::Errc::invalid,
                                     "dest must be host:port");
        Route route;
        route.from = from;
        route.to = to;
        route.dest = *dest;
        std::string stream = cmd.get_text("stream");
        {
          std::scoped_lock lock(mu_);
          // The converted stream is delivered through the frame router:
          // retire the previous destination when a route is replaced.
          auto it = routes_.find(stream);
          if (it != routes_.end())
            (void)router().remove_sink(stream, it->second.dest);
          routes_[stream] = std::move(route);
        }
        router().add_sink(stream, *dest);
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("convFormats", "list supported conversions"),
      [](const CmdLine&, const CallerInfo&) {
        CmdLine reply = cmdlang::make_ok();
        reply.arg("pairs", cmdlang::string_vector(kConversionPairs));
        return reply;
      });

  register_command(
      CommandSpec("convStats", "per-stream conversion statistics")
          .arg(string_arg("stream")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto stats = route_stats(cmd.get_text("stream"));
        if (!stats)
          return cmdlang::make_error(util::Errc::not_found, "no such route");
        CmdLine reply = cmdlang::make_ok();
        reply.arg("packets", static_cast<std::int64_t>(stats->packets));
        reply.arg("in_bytes", static_cast<std::int64_t>(stats->in_bytes));
        reply.arg("out_bytes", static_cast<std::int64_t>(stats->out_bytes));
        return reply;
      });
}

std::optional<util::SharedBytes> ConverterDaemon::convert_stage(
    std::string_view, const util::SharedBytes& payload) {
  auto view = MediaPacketView::parse(payload.view());
  if (!view) return std::nullopt;
  std::scoped_lock lock(mu_);
  auto it = routes_.find(std::string(view->stream));
  if (it == routes_.end()) return std::nullopt;
  Route& route = it->second;
  if (view->format != route.from) return std::nullopt;
  if (route.from == route.to) {
    // Identity conversion: the wire buffer passes through untouched and the
    // router fans it out to the installed destination — no parse, no copy.
    route.stats.packets++;
    route.stats.in_bytes += view->payload.size();
    route.stats.out_bytes += view->payload.size();
    return payload;
  }
  // Codec boundary: decode the payload once and serialize the converted
  // packet once; the router delivers it without further copies.
  auto converted = convert(route, view->payload);
  if (!converted.ok()) return std::nullopt;
  MediaPacket out;
  out.stream = std::string(view->stream);
  out.sequence = view->sequence;
  out.format = route.to;
  out.payload = std::move(converted.value());
  route.stats.packets++;
  route.stats.in_bytes += view->payload.size();
  route.stats.out_bytes += out.payload.size();
  return util::SharedBytes(out.serialize());
}

util::Result<util::Bytes> ConverterDaemon::convert(Route& route,
                                                   util::BytesView payload) {
  const std::string& from = route.from;
  const std::string& to = route.to;

  if (from == "raw_pcm" && to == "adpcm") {
    // payload = i16 little-endian samples
    std::vector<std::int16_t> pcm(payload.size() / 2);
    for (std::size_t i = 0; i < pcm.size(); ++i)
      pcm[i] = static_cast<std::int16_t>(
          static_cast<std::uint16_t>(payload[2 * i]) |
          static_cast<std::uint16_t>(payload[2 * i + 1]) << 8);
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(pcm.size()));
    w.raw(media::adpcm_encode(pcm, route.adpcm_encode_state));
    return w.take();
  }
  if (from == "adpcm" && to == "raw_pcm") {
    util::ByteReader r(payload);
    auto count = r.u32();
    if (!count) return util::Error{util::Errc::parse_error, "bad adpcm"};
    auto rest = r.raw(r.remaining());
    std::vector<std::int16_t> pcm =
        media::adpcm_decode(*rest, *count, route.adpcm_decode_state);
    util::ByteWriter w;
    for (std::int16_t s : pcm) w.i16(s);
    return w.take();
  }
  if (from == "raw_video" && to == "rle_video") {
    util::ByteReader r(payload);
    auto width = r.u32();
    auto height = r.u32();
    if (!width || !height)
      return util::Error{util::Errc::parse_error, "bad video header"};
    auto pixels = r.raw(static_cast<std::size_t>(*width) * *height);
    if (!pixels) return util::Error{util::Errc::parse_error, "short video"};
    media::VideoFrame frame;
    frame.width = static_cast<int>(*width);
    frame.height = static_cast<int>(*height);
    frame.pixels = std::move(*pixels);
    util::Bytes encoded = media::rle_video_encode(
        frame, route.has_reference ? &route.reference : nullptr);
    route.reference = std::move(frame);
    route.has_reference = true;
    return encoded;
  }
  if (from == "rle_video" && to == "raw_video") {
    util::Bytes owned(payload.begin(), payload.end());
    auto frame = media::rle_video_decode(
        owned, route.has_reference ? &route.reference : nullptr);
    if (!frame)
      return util::Error{util::Errc::parse_error, "undecodable rle video"};
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(frame->width));
    w.u32(static_cast<std::uint32_t>(frame->height));
    w.raw(frame->pixels);
    route.reference = std::move(*frame);
    route.has_reference = true;
    return w.take();
  }
  return util::Error{util::Errc::invalid, "unsupported conversion"};
}

std::optional<ConverterDaemon::RouteStats> ConverterDaemon::route_stats(
    const std::string& stream) const {
  std::scoped_lock lock(mu_);
  auto it = routes_.find(stream);
  if (it == routes_.end()) return std::nullopt;
  return it->second.stats;
}

// --------------------------------------------------------------- Distribution

DistributionDaemon::DistributionDaemon(daemon::Environment& env,
                                       daemon::DaemonHost& host,
                                       daemon::DaemonConfig config)
    : RoutedMediaDaemon(env, host, distribution_defaults(std::move(config))) {
  // Pure fan-out: no stages, just per-tag sink sets. The dist* command
  // family is kept as an alias for the router table.
  register_command(
      CommandSpec("distAddSink", "forward a stream to another service")
          .arg(string_arg("stream"))
          .arg(string_arg("dest")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto dest = net::Address::parse(cmd.get_text("dest"));
        if (!dest)
          return cmdlang::make_error(util::Errc::invalid,
                                     "dest must be host:port");
        router().add_sink(cmd.get_text("stream"), *dest);
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("distRemoveSink", "stop forwarding a stream to dest")
          .arg(string_arg("stream"))
          .arg(string_arg("dest")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto dest = net::Address::parse(cmd.get_text("dest"));
        if (!dest)
          return cmdlang::make_error(util::Errc::invalid,
                                     "dest must be host:port");
        (void)router().remove_sink(cmd.get_text("stream"), *dest);
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("distSinks", "list sinks of a stream")
          .arg(string_arg("stream")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::vector<std::string> out;
        if (auto route = router().lookup(cmd.get_text("stream")))
          for (const auto& a : route->sinks) out.push_back(a.to_string());
        CmdLine reply = cmdlang::make_ok();
        reply.arg("sinks", cmdlang::string_vector(std::move(out)));
        return reply;
      });

  register_command(
      CommandSpec("distStats", "forwarding statistics"),
      [this](const CmdLine&, const CallerInfo&) {
        RouteStats s = route_stats();
        CmdLine reply = cmdlang::make_ok();
        reply.arg("packets", static_cast<std::int64_t>(s.frames));
        reply.arg("bytes", static_cast<std::int64_t>(s.bytes));
        reply.arg("fanout", static_cast<std::int64_t>(s.fanout));
        return reply;
      });
}

}  // namespace ace::services

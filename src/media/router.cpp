#include "media/router.hpp"

#include <algorithm>

namespace ace::media {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::string_arg;
using daemon::CallerInfo;

std::optional<std::string_view> peek_tag(util::BytesView data) {
  if (data.size() < 4) return std::nullopt;
  std::size_t len = static_cast<std::size_t>(data[0]) |
                    static_cast<std::size_t>(data[1]) << 8 |
                    static_cast<std::size_t>(data[2]) << 16 |
                    static_cast<std::size_t>(data[3]) << 24;
  if (data.size() < 4 + len) return std::nullopt;
  return std::string_view(reinterpret_cast<const char*>(data.data()) + 4, len);
}

// ---------------------------------------------------------------- FrameRouter

void FrameRouter::register_stage(const std::string& name, StageFn fn) {
  std::scoped_lock lock(mu_);
  stage_registry_[name] = std::move(fn);
}

std::vector<std::string> FrameRouter::stage_names() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, fn] : stage_registry_) out.push_back(name);
  return out;
}

FrameRouter::CompiledRoute FrameRouter::clone_locked(
    const std::string& tag) const {
  auto it = routes_.find(tag);
  return it == routes_.end() ? CompiledRoute{} : *it->second;
}

void FrameRouter::publish_locked(const std::string& tag, CompiledRoute route) {
  routes_[tag] =
      std::make_shared<const CompiledRoute>(std::move(route));
}

util::Status FrameRouter::set_stages(const std::string& tag,
                                     const std::vector<std::string>& names) {
  std::scoped_lock lock(mu_);
  CompiledRoute route = clone_locked(tag);
  route.stage_names.clear();
  route.stages.clear();
  for (const std::string& name : names) {
    auto it = stage_registry_.find(name);
    if (it == stage_registry_.end())
      return util::Error{util::Errc::not_found, "unknown stage: " + name};
    route.stage_names.push_back(name);
    route.stages.push_back(it->second);
  }
  publish_locked(tag, std::move(route));
  return util::Status::ok_status();
}

void FrameRouter::add_sink(const std::string& tag, const net::Address& sink) {
  std::scoped_lock lock(mu_);
  CompiledRoute route = clone_locked(tag);
  if (std::find(route.sinks.begin(), route.sinks.end(), sink) !=
      route.sinks.end())
    return;
  route.sinks.push_back(sink);
  publish_locked(tag, std::move(route));
}

bool FrameRouter::remove_sink(const std::string& tag,
                              const net::Address& sink) {
  std::scoped_lock lock(mu_);
  auto it = routes_.find(tag);
  if (it == routes_.end()) return false;
  CompiledRoute route = *it->second;
  auto removed = std::erase(route.sinks, sink);
  if (removed == 0) return false;
  publish_locked(tag, std::move(route));
  return true;
}

bool FrameRouter::remove_route(const std::string& tag) {
  std::scoped_lock lock(mu_);
  return routes_.erase(tag) > 0;
}

std::shared_ptr<const FrameRouter::CompiledRoute> FrameRouter::lookup(
    std::string_view tag) const {
  std::scoped_lock lock(mu_);
  auto it = routes_.find(tag);
  return it == routes_.end() ? nullptr : it->second;
}

std::vector<std::pair<std::string, std::shared_ptr<const FrameRouter::CompiledRoute>>>
FrameRouter::table() const {
  std::scoped_lock lock(mu_);
  std::vector<std::pair<std::string, std::shared_ptr<const CompiledRoute>>>
      out;
  out.reserve(routes_.size());
  for (const auto& [tag, route] : routes_) out.emplace_back(tag, route);
  return out;
}

// ---------------------------------------------------------- RoutedMediaDaemon

namespace {
daemon::DaemonConfig with_data_channel(daemon::DaemonConfig config) {
  config.open_data_channel = true;
  return config;
}
}  // namespace

RoutedMediaDaemon::RoutedMediaDaemon(daemon::Environment& env,
                                     daemon::DaemonHost& host,
                                     daemon::DaemonConfig config)
    : ServiceDaemon(env, host, with_data_channel(std::move(config))),
      frames_routed_(env.metrics().counter("media.frames_routed")),
      frames_dropped_(env.metrics().counter("media.frames_dropped")),
      datagrams_fanned_(env.metrics().counter("media.datagrams_fanned")),
      route_installs_(env.metrics().counter("media.route_installs")) {
  // Registered (at zero) so the data plane's zero-copy claim is visible in
  // every snapshot: a stage that ever copies a payload must count it here.
  env.metrics().counter("media.bytes_copied");
  // Route installation is a control-plane command: it flows through the
  // daemon's authorized dispatch (KeyNote, when enforcement is on), which
  // is precisely what lets the per-frame path skip authorization entirely.
  register_command(
      CommandSpec("routeAdd",
                  "install stages and/or a sink for a stream tag "
                  "(`*` = catch-all)")
          .arg(string_arg("stream"))
          .arg(string_arg("dest").optional_arg().describe(
              "sink address host:port"))
          .arg(cmdlang::vector_arg("stages", cmdlang::ArgType::vector_string)
                   .optional_arg()
                   .describe("ordered stage names; replaces the tag's list")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::string tag = cmd.get_text("stream");
        bool changed = false;
        if (auto vec = cmd.get_vector("stages")) {
          std::vector<std::string> names;
          for (const auto& elem : vec->elements) {
            if (elem.is_string() || elem.is_word())
              names.push_back(elem.as_text());
          }
          auto status = router_.set_stages(tag, names);
          if (!status.ok())
            return cmdlang::make_error(status.error().code,
                                       status.error().message);
          changed = true;
        }
        if (cmd.has("dest")) {
          auto addr = net::Address::parse(cmd.get_text("dest"));
          if (!addr)
            return cmdlang::make_error(util::Errc::invalid,
                                       "dest must be host:port");
          router_.add_sink(tag, *addr);
          changed = true;
        }
        if (!changed)
          return cmdlang::make_error(util::Errc::invalid,
                                     "routeAdd needs dest= and/or stages=");
        route_installs_.inc();
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("routeRemove",
                  "remove one sink of a stream tag, or the whole route")
          .arg(string_arg("stream"))
          .arg(string_arg("dest").optional_arg()),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::string tag = cmd.get_text("stream");
        bool removed;
        if (cmd.has("dest")) {
          auto addr = net::Address::parse(cmd.get_text("dest"));
          if (!addr)
            return cmdlang::make_error(util::Errc::invalid,
                                       "dest must be host:port");
          removed = router_.remove_sink(tag, *addr);
        } else {
          removed = router_.remove_route(tag);
        }
        if (!removed)
          return cmdlang::make_error(util::Errc::not_found, "no such route");
        route_installs_.inc();
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("routeTable", "dump the frame-routing table"),
      [this](const CmdLine&, const CallerInfo&) {
        CmdLine reply = cmdlang::make_ok();
        std::vector<std::string> rows;
        for (const auto& [tag, route] : router_.table()) {
          std::string row = tag + " stages=";
          for (std::size_t i = 0; i < route->stage_names.size(); ++i)
            row += (i ? "+" : "") + route->stage_names[i];
          row += " sinks=";
          for (std::size_t i = 0; i < route->sinks.size(); ++i)
            row += (i ? "+" : "") + route->sinks[i].to_string();
          rows.push_back(std::move(row));
        }
        reply.arg("routes", cmdlang::string_vector(std::move(rows)));
        reply.arg("stages", cmdlang::string_vector(router_.stage_names()));
        return reply;
      });
}

void RoutedMediaDaemon::on_datagram(const net::Datagram& datagram) {
  auto tag = peek_tag(datagram.payload.view());
  if (!tag) {
    frames_dropped_.inc();
    return;
  }
  auto route = router_.lookup(*tag);
  auto catch_all = router_.lookup(kCatchAllTag);
  if (!route && !catch_all) {
    frames_dropped_.inc();
    return;
  }
  frames_routed_.inc();
  local_frames_.fetch_add(1, std::memory_order_relaxed);
  local_bytes_.fetch_add(datagram.payload.size(), std::memory_order_relaxed);

  util::SharedBytes current = datagram.payload;

  // A tag-specific stage list overrides the catch-all's; a tag route that
  // installs only sinks inherits the daemon's catch-all ingest stages.
  const FrameRouter::CompiledRoute* stage_src =
      route && !route->stages.empty() ? route.get() : catch_all.get();
  if (stage_src) {
    for (const StageFn& stage : stage_src->stages) {
      auto out = stage(*tag, current);
      if (!out) return;  // consumed (aggregated/buffered) — nothing to send
      current = std::move(*out);
    }
  }

  if (current.data() == datagram.payload.data() &&
      current.size() == datagram.payload.size()) {
    // Pure observation: fan the original buffer out, zero copies.
    send_to_sinks(route.get(), catch_all.get(), current);
  } else {
    // Transformed: the stage may have re-tagged the frame; route the new
    // buffer by its own tag.
    emit(current);
  }
}

void RoutedMediaDaemon::emit(const util::SharedBytes& payload) {
  auto tag = peek_tag(payload.view());
  if (!tag) return;
  auto route = router_.lookup(*tag);
  auto catch_all = router_.lookup(kCatchAllTag);
  send_to_sinks(route.get(), catch_all.get(), payload);
}

void RoutedMediaDaemon::send_to_sinks(
    const FrameRouter::CompiledRoute* primary,
    const FrameRouter::CompiledRoute* catch_all,
    const util::SharedBytes& payload) {
  std::vector<net::Address> dests;
  if (primary) dests = primary->sinks;
  if (catch_all) {
    for (const net::Address& sink : catch_all->sinks)
      if (std::find(dests.begin(), dests.end(), sink) == dests.end())
        dests.push_back(sink);
  }
  if (dests.empty()) return;
  datagrams_fanned_.inc(dests.size());
  local_fanout_.fetch_add(dests.size(), std::memory_order_relaxed);
  // One shared buffer, N views, one network transaction.
  (void)send_datagrams(dests, payload);
}

RoutedMediaDaemon::RouteStats RoutedMediaDaemon::route_stats() const {
  RouteStats s;
  s.frames = local_frames_.load(std::memory_order_relaxed);
  s.bytes = local_bytes_.load(std::memory_order_relaxed);
  s.fanout = local_fanout_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ace::media

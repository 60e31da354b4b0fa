#include "services/asd.hpp"

#include <algorithm>
#include <iterator>

#include "util/strings.hpp"

namespace ace::services {

using cmdlang::ArgType;
using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::integer_arg;
using cmdlang::string_arg;
using cmdlang::vector_arg;
using cmdlang::Word;
using cmdlang::word_arg;
using daemon::CallerInfo;

namespace {
daemon::DaemonConfig asd_defaults(daemon::DaemonConfig config) {
  // The directory itself is infrastructure: it neither registers with
  // itself nor renews leases anywhere.
  config.register_with_asd = false;
  if (config.service_class.empty())
    config.service_class = "Service/ServiceDirectory";
  return config;
}

std::int64_t remaining_ms(std::chrono::steady_clock::time_point expires,
                          std::chrono::steady_clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(expires - now)
      .count();
}

// The shortest lease `register` grants; a shorter request is raised to it.
constexpr std::chrono::milliseconds kMinLease{200};
// Entries each size-capped cache holds: a directory's forwarded-query
// results, and an AsdClient's lookups.
constexpr std::size_t kForwardCacheMax = 1024;
constexpr std::size_t kLookupCacheMax = 1024;

// Makes room in a size-capped cache about to store `key`: drops dead
// entries first, then the one that expires soonest (it carries the least
// remaining usefulness). A key already cached is overwritten in place and
// evicts nothing.
template <typename Cache>
void evict_for(Cache& cache, const std::string& key, std::size_t cap,
               std::chrono::steady_clock::time_point now) {
  if (cache.size() < cap || cache.contains(key)) return;
  std::erase_if(cache,
                [&](const auto& kv) { return kv.second.valid_until <= now; });
  if (cache.size() < cap) return;
  cache.erase(std::min_element(
      cache.begin(), cache.end(), [](const auto& a, const auto& b) {
        return a.second.valid_until < b.second.valid_until;
      }));
}
}  // namespace

AsdDaemon::AsdDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                     daemon::DaemonConfig config, AsdOptions options)
    : ServiceDaemon(env, host, asd_defaults(std::move(config))),
      options_(options),
      obs_registrations_(&env.metrics().counter("asd.registrations")),
      obs_renewals_(&env.metrics().counter("asd.renewals")),
      obs_renew_rpcs_(&env.metrics().counter("asd.renew_rpcs")),
      obs_renew_batches_(&env.metrics().counter("asd.renew_batches")),
      obs_deregistrations_(&env.metrics().counter("asd.deregistrations")),
      obs_expirations_(&env.metrics().counter("asd.expirations")),
      obs_lookups_(&env.metrics().counter("asd.lookups")),
      obs_queries_(&env.metrics().counter("asd.queries")),
      obs_index_hits_(&env.metrics().counter("asd.query_index_hits")),
      obs_scans_(&env.metrics().counter("asd.query_scans")),
      obs_forwarded_(&env.metrics().counter("asd.forwarded_queries")),
      obs_forward_failures_(&env.metrics().counter("asd.forward_failures")),
      obs_forward_cache_hits_(
          &env.metrics().counter("asd.forward_cache_hits")),
      obs_forward_cache_misses_(
          &env.metrics().counter("asd.forward_cache_misses")),
      obs_live_count_(&env.metrics().gauge("asd.live_count")),
      index_(/*use_index=*/true,
             AsdIndexObs{obs_index_hits_, obs_scans_, obs_live_count_}) {
  if (options_.federation.enabled) {
    gossip_ = std::make_unique<GossipAgent>(env, control_client(),
                                            ServiceDaemon::config().room,
                                            options_.federation);
    gossip_->on_room_changed = [this](const std::string& room) {
      invalidate_forward_cache(room);
    };
  }
  // Every directory command runs concurrently against the synchronized
  // index: readers share the index lock instead of convoying behind the
  // daemon's control thread (see asd_index.hpp). All but `query`, which
  // forwards to peer rooms, and the gossip commands are nonblocking: their
  // handlers only take the index and gossip locks, never across a wait.
  register_command(
      CommandSpec("register", "register a service with a liveness lease")
          .arg(word_arg("name"))
          .arg(string_arg("host"))
          .arg(integer_arg("port").range(1, 65535))
          .arg(word_arg("room").optional_arg())
          .arg(string_arg("class").optional_arg())
          .arg(integer_arg("lease").optional_arg())
          .concurrent_ok()
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        Registration r;
        r.name = cmd.get_text("name");
        r.host = cmd.get_text("host");
        r.port = static_cast<std::uint16_t>(cmd.get_integer("port"));
        r.room = cmd.get_text("room");
        r.service_class = cmd.get_text("class");
        auto requested = std::chrono::milliseconds(
            cmd.get_integer("lease", options_.max_lease.count()));
        r.lease = std::clamp(requested, kMinLease, options_.max_lease);
        r.expires = std::chrono::steady_clock::now() + r.lease;
        auto granted = r.lease;
        index_.upsert(std::move(r));
        obs_registrations_->inc();
        registry_mutated();
        CmdLine reply = cmdlang::make_ok();
        reply.arg("lease", static_cast<std::int64_t>(granted.count()));
        return reply;
      });

  register_command(
      CommandSpec("renew", "renew a service lease")
          .arg(word_arg("name"))
          .concurrent_ok()
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        obs_renew_rpcs_->inc();
        auto lease = index_.renew(cmd.get_text("name"),
                                  std::chrono::steady_clock::now());
        if (!lease)
          return cmdlang::make_error(util::Errc::not_found,
                                     "service not registered");
        obs_renewals_->inc();
        CmdLine reply = cmdlang::make_ok();
        reply.arg("expires_in", static_cast<std::int64_t>(lease->count()));
        return reply;
      });

  // One RPC per host per renewal interval instead of one per lease: a
  // DaemonHost's LeaseCoordinator sends every resident service name here
  // (daemon/lease.hpp). Per-name statuses let one lost lease trigger one
  // re-registration without failing the whole batch.
  register_command(
      CommandSpec("renewBatch", "renew many service leases in one RPC")
          .arg(vector_arg("names", ArgType::vector_string))
          .concurrent_ok()
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        obs_renew_rpcs_->inc();
        obs_renew_batches_->inc();
        auto now = std::chrono::steady_clock::now();
        const std::vector<std::string> names = cmd.get_strings("names");
        std::vector<std::string> statuses;
        statuses.reserve(names.size());
        for (const std::string& name : names) {
          if (auto lease = index_.renew(name, now)) {
            obs_renewals_->inc();
            statuses.push_back(name + "|ok|" + std::to_string(lease->count()));
          } else {
            statuses.push_back(name + "|not_found");
          }
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("statuses", cmdlang::string_vector(std::move(statuses)));
        return reply;
      });

  register_command(
      CommandSpec("deregister", "remove a service from the directory")
          .arg(word_arg("name"))
          .concurrent_ok()
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        index_.erase(cmd.get_text("name"));
        obs_deregistrations_->inc();
        registry_mutated();
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("lookup", "find one service by exact name")
          .arg(word_arg("name"))
          .concurrent_ok()
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        obs_lookups_->inc();
        auto now = std::chrono::steady_clock::now();
        auto r = index_.find(cmd.get_text("name"));
        if (!r || r->expires < now)
          return cmdlang::make_error(util::Errc::not_found,
                                     "no such service");
        CmdLine reply = cmdlang::make_ok();
        reply.arg("name", Word{r->name});
        reply.arg("host", r->host);
        reply.arg("port", static_cast<std::int64_t>(r->port));
        reply.arg("room", r->room);
        reply.arg("class", r->service_class);
        // Remaining lease: the horizon a client-side cache may serve this
        // entry to without risking staleness beyond the lease contract.
        reply.arg("expires_in", remaining_ms(r->expires, now));
        return reply;
      });

  register_command(
      CommandSpec("query", "find services by glob patterns")
          .arg(string_arg("name").optional_arg())
          .arg(string_arg("class").optional_arg())
          .arg(string_arg("room").optional_arg())
          .arg(word_arg("scope").optional_arg())
          .concurrent_ok(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        obs_queries_->inc();
        const std::string name_glob = cmd.get_text("name", "*");
        const std::string class_glob = cmd.get_text("class", "*");
        const std::string room_glob = cmd.get_text("room", "*");
        auto entries = index_.query(name_glob, class_glob, room_glob,
                                    std::chrono::steady_clock::now());
        std::vector<std::string> encoded;
        encoded.reserve(entries.size());
        for (const Registration& r : entries)
          encoded.push_back(encode_entry(r));
        // Federation: a query whose room constraint is non-local (or
        // unconstrained) also fans out to live peer rooms — unless the
        // sender pinned scope=local, which is both the client's opt-out
        // and the loop guard on forwarded sub-queries.
        if (gossip_ && cmd.get_text("scope", "") != "local") {
          auto remote = forward_query(name_glob, class_glob, room_glob);
          encoded.insert(encoded.end(),
                         std::make_move_iterator(remote.begin()),
                         std::make_move_iterator(remote.end()));
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("services", cmdlang::string_vector(std::move(encoded)));
        return reply;
      });

  register_command(
      CommandSpec("count", "number of live registrations")
          .concurrent_ok()
          .nonblocking(),
      [this](const CmdLine&, const CallerInfo&) {
        CmdLine reply = cmdlang::make_ok();
        reply.arg("count", static_cast<std::int64_t>(index_.size()));
        return reply;
      });

  // Internal: executed by the reaper; exists so lease expiry flows through
  // the normal notification machinery (§2.5) for watchers. Removes the
  // entry only if it is still expired — a renewal racing the reaper wins.
  register_command(
      CommandSpec("serviceExpired", "internal lease-expiry event")
          .arg(word_arg("name"))
          .arg(string_arg("class").optional_arg())
          .arg(string_arg("host").optional_arg())
          .concurrent_ok()
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        if (index_.erase_expired(cmd.get_text("name"),
                                 std::chrono::steady_clock::now())) {
          obs_expirations_->inc();
          registry_mutated();
        }
        return cmdlang::make_ok();
      });

  // Federation commands. Registered unconditionally so the machine-checked
  // command reference (docs/commands.md + test_docs) holds for every
  // AsdDaemon; without federation they answer with a clean error.
  register_command(
      CommandSpec("gossipSync",
                  "anti-entropy membership exchange between room ASDs")
          .arg(word_arg("from"))
          .arg(vector_arg("view", ArgType::vector_string))
          .concurrent_ok(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        if (!gossip_)
          return cmdlang::make_error(util::Errc::invalid,
                                     "federation is disabled here");
        CmdLine reply = cmdlang::make_ok();
        reply.arg("view", cmdlang::string_vector(
                              gossip_->handle_sync(cmd.get_strings("view"))));
        return reply;
      });

  register_command(
      CommandSpec("gossipView",
                  "this directory's federation membership view")
          .concurrent_ok(),
      [this](const CmdLine&, const CallerInfo&) {
        if (!gossip_)
          return cmdlang::make_error(util::Errc::invalid,
                                     "federation is disabled here");
        std::vector<std::string> rooms;
        for (const RoomView& v : gossip_->view())
          rooms.push_back(GossipAgent::encode_entry(v) + "|" +
                          services::to_string(v.state));
        CmdLine reply = cmdlang::make_ok();
        reply.arg("room", Word{gossip_->self_room()});
        reply.arg("rooms", cmdlang::string_vector(std::move(rooms)));
        return reply;
      });
}

std::string AsdDaemon::encode_entry(const Registration& r) {
  return r.name + "|" + r.host + ":" + std::to_string(r.port) + "|" + r.room +
         "|" + r.service_class;
}

void AsdDaemon::registry_mutated() {
  // Peers bound their scoped caches to our (epoch, version); advancing it
  // through gossip is what invalidates them.
  if (gossip_) gossip_->bump_version();
}

void AsdDaemon::invalidate_forward_cache(const std::string& room) {
  const std::string prefix = room + "\x1f";
  std::scoped_lock lock(forward_mu_);
  std::erase_if(forward_cache_, [&](const auto& kv) {
    return kv.first.starts_with(prefix);
  });
}

std::vector<std::string> AsdDaemon::forward_query(
    const std::string& name_glob, const std::string& class_glob,
    const std::string& room_glob) {
  auto targets = gossip_->forward_targets(room_glob);
  if (targets.empty()) return {};

  auto now = std::chrono::steady_clock::now();
  std::vector<std::string> merged;
  std::vector<RoomView> missing;
  {
    std::scoped_lock lock(forward_mu_);
    for (const RoomView& t : targets) {
      const std::string key =
          t.room + "\x1f" + name_glob + "\x1f" + class_glob;
      auto it = forward_cache_.find(key);
      // A cached entry serves only while the TTL holds AND the room's
      // gossip freshness still matches its fill-time pair: an epoch bump
      // (restart, registry gone) or version bump (registry mutated)
      // invalidates it even inside the TTL.
      if (it != forward_cache_.end() && it->second.valid_until > now &&
          it->second.epoch == t.epoch && it->second.version == t.version) {
        obs_forward_cache_hits_->inc();
        merged.insert(merged.end(), it->second.encoded.begin(),
                      it->second.encoded.end());
        continue;
      }
      if (it != forward_cache_.end()) forward_cache_.erase(it);
      obs_forward_cache_misses_->inc();
      missing.push_back(t);
    }
  }
  if (missing.empty()) return merged;

  // Send every miss at once; forward_timeout bounds the whole wait.
  CmdLine q("query");
  q.arg("name", name_glob);
  q.arg("class", class_glob);
  q.arg("room", room_glob);
  q.arg("scope", Word{"local"});  // the peer must not re-forward
  std::vector<daemon::AceClient::Request> requests;
  requests.reserve(missing.size());
  for (const RoomView& t : missing) requests.push_back(room_request(t, q));
  obs_forwarded_->inc(missing.size());
  auto replies = control_client().call_all(
      requests, options_.federation.forward_timeout);

  now = std::chrono::steady_clock::now();
  std::scoped_lock lock(forward_mu_);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    auto reply = room_reply(missing[i], std::move(*replies[i]));
    if (!reply.ok()) {
      obs_forward_failures_->inc();
      continue;
    }
    std::vector<std::string> encoded = reply->get_strings("services");
    merged.insert(merged.end(), encoded.begin(), encoded.end());
    if (options_.federation.forward_cache_ttl.count() <= 0) continue;
    const RoomView& t = missing[i];
    std::string key = t.room + "\x1f" + name_glob + "\x1f" + class_glob;
    evict_for(forward_cache_, key, kForwardCacheMax, now);
    ForwardCacheEntry entry;
    entry.encoded = std::move(encoded);
    entry.valid_until = now + options_.federation.forward_cache_ttl;
    // Bound the entry to the freshness pair we targeted at fan-out time;
    // if gossip advanced meanwhile, the entry self-invalidates on its
    // first probe.
    entry.epoch = t.epoch;
    entry.version = t.version;
    forward_cache_[std::move(key)] = std::move(entry);
  }
  return merged;
}

util::Status AsdDaemon::on_start() {
  start_duty(options_.reap_interval, [this] { reap_expired(); });
  if (gossip_) gossip_->start(address());
  return util::Status::ok_status();
}

void AsdDaemon::on_stop() {
  if (gossip_) gossip_->stop();
  std::scoped_lock lock(forward_mu_);
  forward_cache_.clear();
}

void AsdDaemon::on_crash() {
  AsdDaemon::on_stop();
  index_.clear();
}

void AsdDaemon::reap_expired() {
  // O(k log n): pops only the due entries off the expiry heap instead of
  // sweeping the registry.
  auto expired = index_.collect_expired(std::chrono::steady_clock::now());
  for (const Registration& r : expired) {
    CmdLine event("serviceExpired");
    event.arg("name", Word{r.name});
    event.arg("class", r.service_class);
    event.arg("host", r.host + ":" + std::to_string(r.port));
    // Runs the registered handler (removes the entry if still expired)
    // and fires any `serviceExpired` notifications.
    (void)execute(event, CallerInfo{"svc/" + config().name, address()});
    net_log("warn", "lease expired for service '" + r.name + "'");
  }
}

// ----------------------------------------------------------------- client

AsdClient::AsdClient(daemon::AceClient& client, net::Address asd,
                     AsdCacheOptions cache)
    : client_(client), asd_(asd) {
  if (cache.enabled) {
    cache_ = std::make_unique<CacheState>();
    cache_->options = cache;
    cache_->hits = &client.env().metrics().counter("asd_client.cache_hits");
    cache_->misses =
        &client.env().metrics().counter("asd_client.cache_misses");
  }
}

std::optional<util::Result<ServiceLocation>> AsdClient::cache_get(
    const std::string& name) {
  auto now = std::chrono::steady_clock::now();
  std::scoped_lock lock(cache_->mu);
  auto it = cache_->entries.find(name);
  if (it == cache_->entries.end() || it->second.valid_until <= now) {
    if (it != cache_->entries.end()) cache_->entries.erase(it);
    cache_->misses->inc();
    return std::nullopt;
  }
  cache_->hits->inc();
  if (!it->second.location)
    return util::Result<ServiceLocation>(
        util::Error{util::Errc::not_found, "no such service (cached)"});
  return util::Result<ServiceLocation>(*it->second.location);
}

void AsdClient::cache_put(const std::string& name,
                          std::optional<ServiceLocation> loc,
                          std::chrono::milliseconds ttl) {
  if (ttl.count() <= 0) return;
  auto now = std::chrono::steady_clock::now();
  std::scoped_lock lock(cache_->mu);
  evict_for(cache_->entries, name, kLookupCacheMax, now);
  cache_->entries[name] = CacheEntry{std::move(loc), now + ttl};
}

void AsdClient::invalidate(const std::string& name) {
  if (!cache_) return;
  std::scoped_lock lock(cache_->mu);
  cache_->entries.erase(name);
}

util::Result<ServiceLocation> AsdClient::lookup(const std::string& name) {
  if (cache_) {
    if (auto cached = cache_get(name)) return std::move(*cached);
  }
  CmdLine cmd("lookup");
  cmd.arg("name", Word{name});
  auto reply = client_.call(asd_, cmd, daemon::kCallOk);
  if (!reply.ok()) {
    // Negative caching: a directory miss is re-served for a short window
    // so retry storms (e.g. a crashed dependency being polled) cost one
    // RPC per negative_ttl instead of one per poll.
    if (cache_ && reply.error().code == util::Errc::not_found)
      cache_put(name, std::nullopt, cache_->options.negative_ttl);
    return reply.error();
  }
  ServiceLocation loc;
  loc.name = reply->get_text("name");
  loc.address.host = reply->get_text("host");
  loc.address.port = static_cast<std::uint16_t>(reply->get_integer("port"));
  loc.room = reply->get_text("room");
  loc.service_class = reply->get_text("class");
  if (cache_) {
    // Lease-bounded TTL: never serve the entry past the lease the
    // directory itself would hold it for. Replies without expires_in
    // (pre-v2 directories) are simply not cached.
    auto ttl = std::chrono::milliseconds(reply->get_integer("expires_in", 0));
    cache_put(name, loc, ttl);
  }
  return loc;
}

util::Result<std::vector<ServiceLocation>> AsdClient::query(
    const std::string& name_glob, const std::string& class_glob,
    const std::string& room_glob, bool local_only) {
  CmdLine cmd("query");
  cmd.arg("name", name_glob);
  cmd.arg("class", class_glob);
  cmd.arg("room", room_glob);
  if (local_only) cmd.arg("scope", Word{"local"});
  auto reply = client_.call(asd_, cmd, daemon::kCallOk);
  if (!reply.ok()) return reply.error();
  std::vector<ServiceLocation> out;
  for (const std::string& entry : reply->get_strings("services")) {
    auto parts = util::split(entry, '|');
    if (parts.size() != 4) continue;
    auto addr = net::Address::parse(parts[1]);
    if (!addr) continue;
    out.push_back(ServiceLocation{parts[0], *addr, parts[2], parts[3]});
  }
  return out;
}

util::Result<std::chrono::milliseconds> AsdClient::register_service(
    const ServiceRegistration& registration) {
  CmdLine cmd("register");
  cmd.arg("name", Word{registration.name});
  cmd.arg("host", registration.address.host);
  cmd.arg("port", static_cast<std::int64_t>(registration.address.port));
  if (!registration.room.empty()) cmd.arg("room", Word{registration.room});
  if (!registration.service_class.empty())
    cmd.arg("class", registration.service_class);
  if (registration.lease)
    cmd.arg("lease", static_cast<std::int64_t>(registration.lease->count()));
  auto reply = client_.call(asd_, cmd, daemon::kCallOk);
  if (!reply.ok()) return reply.error();
  return std::chrono::milliseconds(reply->get_integer("lease"));
}

util::Result<std::vector<RenewOutcome>> AsdClient::renew_batch(
    const std::vector<std::string>& names) {
  CmdLine cmd("renewBatch");
  cmd.arg("names", cmdlang::string_vector(names));
  auto reply = client_.call(asd_, cmd, daemon::kCallOk);
  if (!reply.ok()) return reply.error();
  std::vector<RenewOutcome> out;
  out.reserve(names.size());
  for (const std::string& status : reply->get_strings("statuses")) {
    auto parts = util::split(status, '|');
    if (parts.size() < 2) continue;
    out.push_back(RenewOutcome{parts[0], parts[1] == "ok"});
  }
  return out;
}

util::Status AsdClient::deregister(const std::string& name) {
  CmdLine cmd("deregister");
  cmd.arg("name", Word{name});
  auto reply = client_.call(asd_, cmd, daemon::kCallOk);
  if (!reply.ok()) return reply.error();
  return util::Status::ok_status();
}

util::Result<std::size_t> AsdClient::count() {
  auto reply = client_.call(asd_, CmdLine("count"), daemon::kCallOk);
  if (!reply.ok()) return reply.error();
  return static_cast<std::size_t>(reply->get_integer("count"));
}

}  // namespace ace::services

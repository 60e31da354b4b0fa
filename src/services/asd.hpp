// ASD — the ACE Service Directory (paper §2.4, Fig 7): "a central listing
// or directory of services currently available and running within the ACE
// environment", with lease-based liveness:
//
//   "Upon registration with the ASD, each ACE service is given a lease time
//    for which they'll be allowed to remain within the ASD listing. If a
//    registered service fails to renew its service lease with the ASD upon
//    lease time expiration, this service shall automatically be removed."
//
// Command set:
//   register name= host= port= room= class= lease=;   -> ok lease=granted_ms
//   renew name=;                                      -> ok expires_in=
//   renewBatch names={...};                           -> ok statuses={name|ok|expires_in, name|not_found, ...}
//   deregister name=;                                 -> ok
//   lookup name=;                                     -> ok host= port= ... expires_in=
//   query name=<glob>? class=<glob>? room=<glob>?;    -> ok services={...}
//   count;                                            -> ok count=
//
// Expiry fires the internal `serviceExpired name=;` command, so any service
// may addNotification on `register`, `deregister` or `serviceExpired` —
// this is what the Robustness Manager (src/store) listens to.
//
// The directory core is an AsdIndex (asd_index.hpp): class/room hash
// buckets behind a shared_mutex with a min-heap expiry schedule. All
// directory commands are declared concurrent_ok — they run on the
// connection threads against the internally-synchronized index, so
// concurrent lookups/queries never serialize behind the control thread or
// behind registrations.
#pragma once

#include <condition_variable>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "daemon/daemon.hpp"
#include "services/asd_index.hpp"
#include "services/gossip.hpp"

namespace ace::services {

struct AsdOptions {
  std::chrono::milliseconds min_lease{200};
  std::chrono::milliseconds max_lease{60000};
  std::chrono::milliseconds reap_interval{50};
  // Multi-room federation (docs/federation.md): gossip membership with
  // peer-room directories, cross-room query fan-out with a scoped cache,
  // and an optional relay for rooms behind bad links. Off by default —
  // registration/renewal/expiry stay strictly room-local either way; only
  // `query` ever crosses a room boundary.
  FederationOptions federation{};
};

class AsdDaemon : public daemon::ServiceDaemon {
 public:
  using Registration = AsdRegistration;

  AsdDaemon(daemon::Environment& env, daemon::DaemonHost& host,
            daemon::DaemonConfig config, AsdOptions options = {});

  std::size_t live_count() const { return index_.size(); }
  std::optional<Registration> find_registration(const std::string& name) const {
    return index_.find(name);
  }
  // Test hook: index <-> registry <-> gauge agreement (see AsdIndex).
  bool index_consistent() const { return index_.check_consistency(); }

  // Federation membership agent; nullptr when federation is disabled.
  GossipAgent* gossip() { return gossip_.get(); }
  const GossipAgent* gossip() const { return gossip_.get(); }

 protected:
  util::Status on_start() override;
  void on_stop() override;
  // A crashed directory loses its in-memory registry: services must
  // re-register (the lease machinery does this on `not_found` renewals)
  // and watchers must re-subscribe (the Robustness Manager watchdog does).
  void on_crash() override;

 private:
  void reaper_loop(std::stop_token st);
  static std::string encode_entry(const Registration& r);

  // Cross-room fan-out for one query (federation enabled, scope != local):
  // probes the scoped cache per live target room, sends the misses in
  // parallel on the ops pool (`scope=local`, so peers never re-forward),
  // and fills the cache from whatever answered within forward_timeout.
  // Returns the remote entries, encoded like local ones.
  std::vector<std::string> forward_query(const std::string& name_glob,
                                         const std::string& class_glob,
                                         const std::string& room_glob);
  // Gossip saw `room`'s epoch or version advance: its cached results are
  // stale by definition.
  void invalidate_forward_cache(const std::string& room);
  void registry_mutated();  // bumps the gossip version when federated

  AsdOptions options_;

  // Cached obs cells (deployment registry, `asd.*` names). Declared before
  // index_ so the AsdIndexObs handed to it points at live cells.
  obs::Counter* obs_registrations_;
  obs::Counter* obs_renewals_;
  obs::Counter* obs_renew_rpcs_;
  obs::Counter* obs_renew_batches_;
  obs::Counter* obs_deregistrations_;
  obs::Counter* obs_expirations_;
  obs::Counter* obs_lookups_;
  obs::Counter* obs_queries_;
  obs::Counter* obs_index_hits_;
  obs::Counter* obs_scans_;
  obs::Counter* obs_forwarded_;            // asd.forwarded_queries
  obs::Counter* obs_forward_failures_;     // asd.forward_failures
  obs::Counter* obs_forward_cache_hits_;   // asd.forward_cache_hits
  obs::Counter* obs_forward_cache_misses_; // asd.forward_cache_misses
  obs::Gauge* obs_live_count_;

  AsdIndex index_;

  // Federation state. gossip_ exists iff options_.federation.enabled; the
  // client is shared so an in-flight fan-out task can outlive the handler
  // that posted it (it holds its own reference). Both the client slot and
  // the scoped cache are guarded by forward_mu_.
  std::unique_ptr<GossipAgent> gossip_;
  std::shared_ptr<daemon::AceClient> fed_client_;
  struct ForwardCacheEntry {
    std::vector<std::string> encoded;  // remote entries, wire encoding
    std::chrono::steady_clock::time_point valid_until;
    std::uint64_t epoch = 0;    // the room's gossip freshness at fill time
    std::uint64_t version = 0;
  };
  std::mutex forward_mu_;
  std::unordered_map<std::string, ForwardCacheEntry> forward_cache_;

  // The reaper waits on this cv with its stop token (instead of a blind
  // sleep_for), so on_stop() interrupts a pending reap interval instead of
  // blocking until it elapses.
  std::mutex reaper_mu_;
  std::condition_variable_any reaper_cv_;
  std::jthread reaper_;
};

// A service's location as reported by the directory.
struct ServiceLocation {
  std::string name;
  net::Address address;
  std::string room;
  std::string service_class;
};

// Parameters for AsdClient::register_service (mirrors the `register`
// command's arguments; lease empty = let the directory pick).
struct ServiceRegistration {
  std::string name;
  net::Address address;
  std::string room;
  std::string service_class;
  std::optional<std::chrono::milliseconds> lease{};
};

// Per-name outcome of a batched renewal.
struct RenewOutcome {
  std::string name;
  bool renewed = false;  // false = not registered (lease lost)
};

// Lookup-cache knobs for AsdClient. The cache needs no coherence protocol
// because every positive entry is lease-bounded: the directory's lookup
// reply carries `expires_in`, and a cached entry is never served past that
// horizon — exactly the staleness the lease contract already permits (a
// dead service stays listed until its lease runs out, so a cached hit is
// never staler than a directory hit). Negative results get a short fixed
// TTL, and `invalidate()` gives subscribers of `serviceExpired` (e.g. the
// Robustness Manager) an eviction hook sharper than the TTLs.
struct AsdCacheOptions {
  bool enabled = false;
  std::size_t max_entries = 1024;
  std::chrono::milliseconds negative_ttl{250};
};

// Client facade over the ASD command set. Binds a transport client and the
// directory's address once so call sites speak in terms of directory
// operations instead of hand-built CmdLines. With cache.enabled, lookups
// are served from a lease-bounded TTL cache (asd_client.cache_hits /
// cache_misses metrics).
class AsdClient {
 public:
  AsdClient(daemon::AceClient& client, net::Address asd,
            AsdCacheOptions cache = {});

  const net::Address& directory_address() const { return asd_; }

  // `lookup name=;` — exact-name resolution (cached when enabled).
  util::Result<ServiceLocation> lookup(const std::string& name);

  // `query name= class= room=;` — glob-pattern search (never cached).
  // Against a federated directory the reply merges matching entries from
  // live peer rooms; `local_only` sends `scope=local` to restrict the
  // answer to the queried directory's own room (and is what a federated
  // ASD itself sends when fanning out, so forwarding never loops).
  util::Result<std::vector<ServiceLocation>> query(
      const std::string& name_glob = "*", const std::string& class_glob = "*",
      const std::string& room_glob = "*", bool local_only = false);

  // `register ...;` — returns the lease granted by the directory.
  util::Result<std::chrono::milliseconds> register_service(
      const ServiceRegistration& registration);

  // `renew name=;`
  util::Status renew(const std::string& name);

  // `renewBatch names={...};` — renews every name in one RPC. The result
  // has one outcome per requested name; `renewed == false` means the
  // directory holds no lease for it (crashed ASD or expired entry) and the
  // owner must re-register.
  util::Result<std::vector<RenewOutcome>> renew_batch(
      const std::vector<std::string>& names);

  // `deregister name=;`
  util::Status deregister(const std::string& name);

  // `count;` — number of live registrations.
  util::Result<std::size_t> count();

  // Evicts one name / everything from the lookup cache. No-ops when the
  // cache is disabled. Wire these to `serviceExpired` notifications for
  // eviction ahead of the lease horizon.
  void invalidate(const std::string& name);
  void invalidate_all();

 private:
  struct CacheEntry {
    std::optional<ServiceLocation> location;  // nullopt = negative entry
    std::chrono::steady_clock::time_point valid_until;
  };
  // Heap-allocated so AsdClient stays movable and costs nothing when the
  // cache is off (the overwhelmingly common throwaway-instance case).
  struct CacheState {
    AsdCacheOptions options;
    std::mutex mu;
    std::unordered_map<std::string, CacheEntry> entries;
    obs::Counter* hits = nullptr;    // asd_client.cache_hits
    obs::Counter* misses = nullptr;  // asd_client.cache_misses
  };

  // Cache probe/fill; only called when cache_ is set.
  std::optional<util::Result<ServiceLocation>> cache_get(
      const std::string& name);
  void cache_put(const std::string& name, std::optional<ServiceLocation> loc,
                 std::chrono::milliseconds ttl);

  daemon::AceClient& client_;
  net::Address asd_;
  std::unique_ptr<CacheState> cache_;
};

}  // namespace ace::services

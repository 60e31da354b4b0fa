// StoreClient — ring-routing failover client for the sharded persistent
// store, and the checkpoint API that restart/robust applications use
// (paper §5.2/§5.3): state is written under "state/<service>/<key>" so that
// a restarted instance "can quickly be recovered to their last known
// state".
//
// The client derives the same consistent-hash layout the servers use
// (store/ring.hpp is deterministic in the member set), so each request is
// sent to a replica that owns the key — a one-hop read, and a write whose
// coordinator applies locally instead of forwarding. Non-owners still
// accept and coordinate any request, so the owners are merely *preferred*:
// on failure the client falls over to the key's remaining owners, then to
// every other replica, which is what tolerates 1-2 replica failures
// (Ch 6, Fig 17).
#pragma once

#include "daemon/client.hpp"
#include "store/ring.hpp"

namespace ace::store {

class StoreClient;

// Iterator-style pager over the cluster's ordered key space (storeScan).
// Each next_page() returns one ascending page of keys; done() turns true
// once the final page has been fetched. The resume cursor is opaque and
// names, per shard, where the merge stands — so a pager survives
// coordinator failover mid-scan (any replica can resume it).
class StoreScanner {
 public:
  // One page, at most `limit` keys, strictly after everything already
  // returned. An empty page with done() true is the end marker.
  util::Result<std::vector<std::string>> next_page();
  bool done() const { return done_; }

 private:
  friend class StoreClient;
  StoreScanner(StoreClient* client, std::string prefix, int limit)
      : client_(client), prefix_(std::move(prefix)), limit_(limit) {}

  StoreClient* client_;
  std::string prefix_;
  int limit_;
  std::string cursor_;
  bool done_ = false;
};

class StoreClient {
 public:
  // `replication` must match the cluster's StoreOptions.replication for
  // routing to hit owners on the first try (a mismatch only costs extra
  // hops, never correctness).
  StoreClient(daemon::AceClient& client, std::vector<net::Address> replicas,
              int replication = 3);

  util::Status put(const std::string& key, const util::Bytes& data);
  util::Result<util::Bytes> get(const std::string& key);
  util::Status remove(const std::string& key);
  // Full ascending key listing, built by draining the scan() pager — every
  // wire reply stays page-sized, so this is safe at any namespace size
  // (the result vector still holds the whole listing; iterate with scan()
  // when even that is too big).
  util::Result<std::vector<std::string>> list(const std::string& prefix);
  // Paginated ordered scan; prefer this over list() when the namespace
  // should be streamed instead of materialized (every reply is bounded by
  // `limit`).
  StoreScanner scan(const std::string& prefix = "", int limit = 256);

  // Checkpoint helpers for robust applications.
  util::Status save_state(const std::string& service, const std::string& key,
                          const util::Bytes& state);
  util::Result<util::Bytes> load_state(const std::string& service,
                                       const std::string& key);

  // Rotates the preferred replica among each key's owners (deterministic
  // round-robin), which is how read load is spread across the cluster.
  void rotate();

  const std::vector<net::Address>& replicas() const { return replicas_; }

 private:
  friend class StoreScanner;

  // The key's owners (rotated by `preferred_`) followed by every other
  // replica — the failover order for one request.
  std::vector<net::Address> route(const std::string& key) const;
  // put() and remove(): `cmd` to each replica in route(key) until one acks.
  util::Status write(const std::string& key, const cmdlang::CmdLine& cmd);

  daemon::AceClient& client_;
  std::vector<net::Address> replicas_;
  Ring ring_;
  std::size_t replication_;
  std::size_t preferred_ = 0;
};

}  // namespace ace::store

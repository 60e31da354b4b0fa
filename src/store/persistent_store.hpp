// ACE Persistent Store (paper Ch 6, Fig 17): "a cluster of three persistent
// store servers ... completely redundant storage systems guarantee safe and
// up to date storage of information. If ... one or two of the servers fail
// or crash, ACE services may still access the stored information."
//
// Each replica is an ordinary ACE service daemon holding an
// object-oriented namespace ("a straightforward object-oriented namespace
// approach to storing application and program state information"):
// '/'-separated keys mapping to versioned blobs.
//
// Scaled-out design (Dynamo-shaped; see docs/store.md for the operator
// guide):
//   * Sharding — a consistent-hash ring (store/ring.hpp) assigns every key
//     a preference list of N replicas. With N >= cluster size this reduces
//     to the paper's "3 copies of everything"; with more nodes the
//     namespace shards and capacity scales horizontally.
//   * Quorum replication — any replica coordinates a write: it applies
//     locally when it owns the key and fans the record out to the rest of
//     the preference list. `StoreOptions.write_quorum` (W) picks the ack
//     count that makes the write durable-acknowledged; reads consult
//     `read_quorum` (R) copies and return the newest version.
//   * Sloppy quorum + hinted handoff — when a preference-list peer is
//     down, the coordinator hands the write to the next ring successor (or
//     keeps a local hint when the ring is exhausted) tagged with the
//     intended owner; hints drain automatically when the owner returns.
//     This is how the Fig 17 "1 or 2 of 3 may fail" availability claim
//     survives sharding.
//   * Group commit — every record one replica pushes to another (fan-out,
//     stand-in hand-off, hint drain, read repair) rides the peer's lane of
//     the replica's outbox (daemon/outbox.hpp), which coalesces concurrent
//     writes into one framed `storeReplicateBatch` per peer per shipment,
//     on the pipelined channel.
//   * Deferred replies — storePut, storeDelete and storeGet answer through
//     a daemon::Reply from the callbacks their peers' answers settle, so
//     no coordinator parks a thread on a peer (docs/store.md §2-3).
//   * Merkle anti-entropy — a rejoining replica compares O(log n) digest
//     tree hashes (`storeDigestTree`) against each peer and fetches only
//     divergent buckets.
//   * Local durability — with `StoreOptions.disk` attached, every applied
//     record (and hinted-handoff obligation) is logged to a CRC-framed WAL
//     on a fault-injectable simulated disk (io::SimDisk) and group-commit
//     fsynced before the write acks; compaction snapshots state behind an
//     atomic rename, and on_start recovers snapshot + WAL so anti-entropy
//     afterwards only covers the divergence tail. docs/store.md has the
//     full recovery walkthrough.
//
// Command set (docs/commands.md is the cross-checked reference):
//   storePut key= data=<hex>;          -> ok version= acks=
//   storeGet key= scope=?;             -> ok data=<hex> version=
//   storeGetDigest key=;               -> ok version= deleted=   (no data)
//   storeDelete key=;                  -> ok version= acks=
//   storeScan prefix=? cursor=? limit=? scope=?;
//                                      -> ok keys={...} next= done=
//   storeCount;                        -> ok count=        (this replica)
//   storeDigestTree nodes=;            -> ok depth= leaves= hashes={id|hash}
//   storeDigestBucket bucket=;         -> ok entries={key|version|flag ...}
//   storeSync;                         -> ok fetched=
//   storeWalStats;                     -> ok durable= generation= ...
//   storeCompact;                      -> ok generation= records=
//   storeReplicateBatch entries=;      -> ok applied=              (internal)
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "daemon/daemon.hpp"
#include "daemon/outbox.hpp"
#include "io/sim_disk.hpp"
#include "net/reactor.hpp"
#include "store/merkle.hpp"
#include "store/ring.hpp"
#include "store/wal.hpp"

namespace ace::store {

// storeScan page size when the caller omits limit=, and the hard per-page
// cap any request is clamped to.
inline constexpr int kScanLimit = 256;
inline constexpr int kScanLimitMax = 4096;
// Merkle digest tree depth: 2^depth anti-entropy buckets. Every replica
// builds the same tree, so peers' node ids always line up.
inline constexpr int kMerkleDepth = 12;

struct StoreOptions {
  // Peer liveness probe cadence. Each replica pings its peers; a peer
  // transitioning unreachable -> reachable (either side of a partition
  // heal, or a peer restart) triggers an automatic anti-entropy round and
  // drains any hinted-handoff writes held for that peer.
  std::chrono::milliseconds probe_interval{250};

  // N: replicas per key (clamped to cluster size). With the default 3 and
  // a 3-node cluster, every node owns every key (Fig 17).
  int replication = 3;
  // W: acknowledgements required before a write returns ok. 0 keeps the
  // seed's best-effort semantics: wait for every preference-list attempt,
  // then succeed regardless of the ack count. W > 0 is a strict sloppy
  // quorum: ok once W replicas (owners or hinted fallbacks) hold the
  // write, error `unavailable` otherwise.
  int write_quorum = 0;
  // R: copies consulted per cluster-scope read; the newest version wins.
  // 1 serves straight from local state when this replica owns the key.
  int read_quorum = 1;
  // Per-peer deadline for replication, digest reads, read repair and
  // scan pages.
  std::chrono::milliseconds replicate_timeout{300};

  // Local durability. When a disk is attached every applied record is
  // WAL-logged (CRC-framed, group-commit fsynced before the write acks),
  // hints persist across restarts, on_start recovers snapshot + WAL, and
  // a process crash wipes volatile state (recovery is the real contract).
  // nullptr keeps the seed's pure in-memory replica.
  std::shared_ptr<io::SimDisk> disk;
  // Compact (snapshot + WAL rotation) when the live WAL outgrows this,
  // checked each monitor round. 0 = manual storeCompact only.
  std::size_t compact_wal_bytes = 1u << 20;
};

// Rejects contradictory configurations (N below 1, W or R above N) with a
// clear message. Checked at daemon construction; a failed validation makes
// start() fail.
util::Status validate_store_options(const StoreOptions& options);

class PersistentStoreDaemon : public daemon::ServiceDaemon {
 public:
  struct ObjectRecord {
    // hybrid clock (wall microseconds, Lamport-absorbed) << 8 | replica id
    std::uint64_t version = 0;
    util::Bytes data;
    bool deleted = false;
  };

  PersistentStoreDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                        daemon::DaemonConfig config, int replica_id,
                        StoreOptions options = {});

  // Configures the peer replicas this server synchronizes with (self is
  // added to the ring implicitly).
  void set_peers(std::vector<net::Address> peers);

  std::size_t object_count() const;  // live (non-tombstone) objects
  std::optional<ObjectRecord> object(const std::string& key) const;

  // Runs one anti-entropy round against all reachable peers; returns the
  // number of objects fetched. (Also exposed as the storeSync command, and
  // triggered automatically on boot and on peer-rejoin detection.)
  util::Result<std::int64_t> sync_from_peers();

  // Introspection for tests and benches.
  const Ring& ring() const { return ring_; }
  std::uint64_t merkle_root() const;
  std::size_t hints_pending() const;  // hinted writes awaiting handoff
  // Durable mode: stats of the most recent on_start recovery.
  DurableLog::RecoveryStats last_recovery() const;
  // Snapshot local state and rotate the WAL now (also the storeCompact
  // command). Returns the number of records snapshotted.
  util::Result<std::int64_t> compact_now();

 protected:
  util::Status on_start() override;
  void on_stop() override;
  void on_crash() override;

 private:
  // One replicated record (encode_replica_entry) on its way to a peer.
  struct Replica {
    std::string entry;
    std::function<void(bool acked)> then;  // runs once, as it settles
  };
  using Shipments = std::vector<std::pair<net::Address, std::string>>;
  // A coordinated write, and a quorum read, between their sends and their
  // reply (persistent_store.cpp).
  struct Write;
  struct Read;

  // The next write's version; nullopt once the clock is at the top of the
  // version range (a peer pushed it there), so the write fails instead of
  // wrapping below a version this replica holds.
  std::optional<std::uint64_t> next_version();
  // Applies a record (LWW) and, in durable mode, WAL-logs it. The ticket
  // must be group-commit synced before the write is acknowledged.
  WalTicket apply(const std::string& key, const ObjectRecord& record);
  // Core of apply(); caller holds mu_. `log` is false during recovery
  // replay (the record came *from* the WAL).
  WalTicket apply_locked(const std::string& key, const ObjectRecord& record,
                         bool log);
  void erase_local(const std::string& key);  // drained hint, not an owner
  void erase_local_locked(const std::string& key, bool log);
  // Folds one recovered snapshot/WAL record into in-memory state.
  void fold_recovered(const WalRecord& r);
  void rebuild_ring();
  void shutdown_runtime(bool flush);
  void maybe_compact();

  // One page of an ordered prefix scan.
  struct ScanPage {
    std::vector<std::string> keys;  // ascending, live keys only
    // Resume point when !done: the last key examined (tombstones included,
    // so a tombstone-dense page still advances).
    std::string next;
    bool done = false;
  };
  // Cluster-scope scan state: where the merge stands per peer.
  struct PeerCursor {
    net::Address addr;
    bool exhausted = false;
    std::string last;  // resume after this key
  };
  struct ClusterPage {
    std::vector<std::string> keys;
    std::string next;  // opaque resume blob; empty when done
    bool done = false;
  };

  // Pushes `entry` onto the lane of `peer`; `then(acked)` runs once as it
  // settles: on the thread that settles its batch's shipment (a core
  // worker's reply demux or deadline, or the pusher's), or as the outbox
  // closes. While the outbox is closed it settles as failed at once,
  // inside replicate(). So `then` must not block.
  void replicate(const net::Address& peer, std::string entry,
                 std::function<void(bool acked)> then);
  // Replicates every (peer, entry) and waits until each has settled or
  // `deadline` passes; true at i iff entry i was acknowledged in time.
  std::vector<bool> replicate_all(
      const Shipments& shipments,
      std::chrono::steady_clock::time_point deadline);
  // The outbox's shipment: one storeReplicateBatch RPC, on the client's
  // callback form, carries the batch; its reply or deadline settles it.
  void ship_replicas(const net::Address& peer, std::vector<Replica> batch,
                     daemon::Outbox<Replica>::Settled settled);
  // The body storePut and storeDelete share: `record`, a value or a
  // tombstone, written at the next version by coordinate_write.
  void write(const std::string& key, ObjectRecord record, daemon::Reply reply);
  // Coordinates one write: local apply (when owner), the record handed to
  // the preference list's lanes, the local WAL sync while they are out,
  // and the reply once the last of them settles. A miss takes the
  // sloppy-quorum fallback with hinted handoff, on the ops pool.
  void coordinate_write(const std::string& key, ObjectRecord record,
                        daemon::Reply reply);
  void write_settled(const std::shared_ptr<Write>& w);
  void write_fallback(Write& w);
  void finish_write(Write& w);
  // Cluster-scope read gathering up to R copies; newest version wins. The
  // votes' callback tallies them (read_voted), fetches a newer value than
  // the full copy from one of its holders (materialize, a chained call),
  // repairs what was stale and replies.
  void coordinate_read(const std::string& key, daemon::Reply reply);
  void read_voted(const std::shared_ptr<Read>& read,
                  daemon::AceClient::Replies results);
  void materialize(const std::shared_ptr<Read>& read, std::size_t from);
  void finish_read(Read& read);
  // Submits the winning record to the lane of every replica observed
  // stale/absent during a read. Each record settles off the reply path,
  // counting a landed repair or leaving a hint for a miss.
  void schedule_read_repair(const std::string& key, const ObjectRecord& winner,
                            const std::vector<net::Address>& stale);
  // One ordered page of this replica's live keys under `prefix`, resuming
  // strictly after `cursor`.
  ScanPage scan_local(const std::string& prefix, const std::string& cursor,
                      std::size_t limit) const;
  // Per-peer cursor merge over every shard's local pages (parallel
  // fan-out; self answers without an RPC).
  util::Result<ClusterPage> scan_cluster(const std::string& prefix,
                                         const std::string& cursor_blob,
                                         std::size_t limit);
  static std::string encode_scan_cursor(const std::vector<PeerCursor>& entries);
  static std::optional<std::vector<PeerCursor>> parse_scan_cursor(
      const std::string& blob);

  bool owns(const std::string& key) const;
  WalTicket record_hint(const net::Address& intended, const std::string& key,
                        std::uint64_t version);
  void drain_hints(const net::Address& peer);

  std::int64_t sync_with_peer(const net::Address& peer);
  // Applies one "key|version|flag" digest entry, fetching the payload from
  // `peer` when it is newer than local state. Returns 1 if applied.
  std::int64_t ingest_digest_entry(const net::Address& peer,
                                   const std::string& entry);

  // One round of the peer monitor duty. `peer_up` and `first` belong to
  // the duty, so each life of the replica starts them fresh.
  void monitor_round(std::map<net::Address, bool>& peer_up, bool& first);

  int replica_id_;
  StoreOptions options_;
  util::Status options_status_;  // construction-time validation verdict
  // Every record this replica pushes to another ships through here. Open
  // from on_start to shutdown_runtime, on the daemon's one client.
  daemon::Outbox<Replica> outbox_;
  mutable std::mutex mu_;
  std::map<std::string, ObjectRecord> objects_;
  std::uint64_t lamport_ = 0;
  std::vector<net::Address> peers_;
  Ring ring_;  // self + peers; rebuilt by set_peers and on_start
  MerkleTree tree_;
  // Per-bucket key index so storeDigestBucket answers in O(bucket size).
  std::vector<std::set<std::string>> bucket_keys_;
  // Hinted handoff ledger: intended owner -> key -> version it still needs.
  std::map<net::Address, std::map<std::string, std::uint64_t>> hints_;
  std::shared_ptr<DurableLog> dlog_;  // durable mode only; swapped per start
  // Cumulative per-replica durability stats (storeWalStats; the obs
  // counters aggregate across the whole deployment).
  std::uint64_t recoveries_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t torn_tails_ = 0;
  std::uint64_t snapshot_fallbacks_ = 0;
  DurableLog::RecoveryStats recovery_stats_;

  // Cached obs cells (deployment registry, `store.*` names).
  obs::Counter* obs_writes_;
  obs::Counter* obs_replica_acks_;
  obs::Counter* obs_batch_flushes_;
  obs::Counter* obs_batch_records_;
  obs::Counter* obs_rejoin_syncs_;
  obs::Counter* obs_hints_recorded_;
  obs::Counter* obs_hints_drained_;
  obs::Counter* obs_quorum_failures_;
  obs::Counter* obs_tree_rpcs_;
  obs::Counter* obs_bucket_rpcs_;
  obs::Counter* obs_sync_fetched_;
  obs::Counter* obs_digest_reads_;
  obs::Counter* obs_digest_mismatches_;
  obs::Counter* obs_read_repairs_;
  obs::Counter* obs_read_unavailable_;
  obs::Counter* obs_scan_pages_;
  obs::Counter* obs_wal_appends_;
  obs::Counter* obs_wal_fsyncs_;
  obs::Counter* obs_wal_torn_;
  obs::Counter* obs_recoveries_;
  obs::Counter* obs_compactions_;
  obs::Counter* obs_snap_fallbacks_;
};

// `hex` decoded, or nullopt unless it is even-length hex (util::hex_decode
// alone maps bad input to empty bytes). Every `data=` a replica or a
// client receives goes through it.
std::optional<util::Bytes> decode_hex(std::string_view hex);

}  // namespace ace::store

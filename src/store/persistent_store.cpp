#include "store/persistent_store.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <optional>

#include "daemon/wire.hpp"
#include "util/strings.hpp"

namespace ace::store {

using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::integer_arg;
using cmdlang::string_arg;
using cmdlang::Word;
using cmdlang::word_arg;
using daemon::CallerInfo;
using std::chrono::steady_clock;

namespace {

daemon::DaemonConfig store_defaults(daemon::DaemonConfig config) {
  if (config.service_class.empty())
    config.service_class = "Service/PersistentStore";
  return config;
}

// One replicated record on the wire: a netstring-packed field tuple
// [key, version, d|l, hex data, hint owner or ""], nested inside the
// storeReplicateBatch `entries` payload (daemon/wire.hpp pack_batch).
std::string encode_replica_entry(const std::string& key,
                                 const PersistentStoreDaemon::ObjectRecord& r,
                                 const std::string& hint) {
  return daemon::wire::pack_batch({key, std::to_string(r.version),
                                   r.deleted ? "d" : "l", hex_of(r.data),
                                   hint});
}

CmdLine make_replicate_cmd(const std::string& key,
                           const PersistentStoreDaemon::ObjectRecord& r,
                           const std::string& hint) {
  CmdLine rep("storeReplicate");
  rep.arg("key", key);
  rep.arg("version", static_cast<std::int64_t>(r.version));
  rep.arg("data", hex_of(r.data));
  rep.arg("deleted", Word{r.deleted ? "yes" : "no"});
  if (!hint.empty()) rep.arg("hint", hint);
  return rep;
}

}  // namespace

util::Status validate_store_options(const StoreOptions& o) {
  auto bad = [](const std::string& msg) {
    return util::Status(util::Errc::invalid, "store config: " + msg);
  };
  if (o.replication < 1)
    return bad("replication must be >= 1 (got " +
               std::to_string(o.replication) + ")");
  if (o.write_quorum < 0 || o.write_quorum > o.replication)
    return bad("write_quorum (W=" + std::to_string(o.write_quorum) +
               ") must be in [0, replication=" +
               std::to_string(o.replication) + "]");
  if (o.read_quorum < 1 || o.read_quorum > o.replication)
    return bad("read_quorum (R=" + std::to_string(o.read_quorum) +
               ") must be in [1, replication=" +
               std::to_string(o.replication) + "]");
  return util::Status::ok_status();
}

std::string hex_of(const util::Bytes& data) { return util::hex_encode(data); }

util::Bytes bytes_of_hex(const std::string& hex) {
  return util::hex_decode(hex);
}

PersistentStoreDaemon::PersistentStoreDaemon(daemon::Environment& env,
                                             daemon::DaemonHost& host,
                                             daemon::DaemonConfig config,
                                             int replica_id,
                                             StoreOptions options)
    : ServiceDaemon(env, host, store_defaults(std::move(config))),
      replica_id_(replica_id),
      options_(options),
      options_status_(validate_store_options(options)),
      tree_(kMerkleDepth),
      bucket_keys_(tree_.leaf_count()),
      obs_writes_(&env.metrics().counter("store.writes")),
      obs_replica_acks_(&env.metrics().counter("store.replica_acks")),
      obs_rejoin_syncs_(&env.metrics().counter("store.rejoin_syncs")),
      obs_hints_recorded_(&env.metrics().counter("store.hints_recorded")),
      obs_hints_drained_(&env.metrics().counter("store.hints_drained")),
      obs_quorum_failures_(&env.metrics().counter("store.quorum_failures")),
      obs_tree_rpcs_(&env.metrics().counter("store.sync_tree_rpcs")),
      obs_bucket_rpcs_(&env.metrics().counter("store.sync_bucket_rpcs")),
      obs_sync_fetched_(&env.metrics().counter("store.sync_fetched")),
      obs_digest_reads_(&env.metrics().counter("store.digest_reads")),
      obs_digest_mismatches_(
          &env.metrics().counter("store.digest_mismatches")),
      obs_read_repairs_(&env.metrics().counter("store.read_repairs")),
      obs_read_unavailable_(
          &env.metrics().counter("store.read_unavailable")),
      obs_scan_pages_(&env.metrics().counter("store.scan_pages")),
      obs_wal_appends_(&env.metrics().counter("store.wal_appends")),
      obs_wal_fsyncs_(&env.metrics().counter("store.wal_fsyncs")),
      obs_wal_torn_(&env.metrics().counter("store.wal_torn_tail_dropped")),
      obs_recoveries_(&env.metrics().counter("store.recoveries")),
      obs_compactions_(&env.metrics().counter("store.snapshot_compactions")),
      obs_snap_fallbacks_(&env.metrics().counter("store.snapshot_fallbacks")) {
  register_command(
      CommandSpec("storePut", "store an object (quorum write)").concurrent_ok()
          .arg(string_arg("key"))
          .arg(string_arg("data")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        ObjectRecord record;
        record.data = bytes_of_hex(cmd.get_text("data"));
        record.version = next_version();
        std::string key = cmd.get_text("key");
        WriteOutcome out = coordinate_write(key, record);
        if (!out.quorum_met)
          return cmdlang::make_error(
              util::Errc::unavailable,
              "write quorum not met (acks=" + std::to_string(out.acks) + ")");
        CmdLine reply = cmdlang::make_ok();
        reply.arg("version", static_cast<std::int64_t>(record.version));
        reply.arg("acks", static_cast<std::int64_t>(out.acks));
        return reply;
      });

  register_command(
      CommandSpec("storeGet", "fetch an object (quorum read)").concurrent_ok()
          .arg(string_arg("key"))
          .arg(word_arg("scope").optional_arg().choices({"cluster", "local"})),
      [this](const CmdLine& cmd, const CallerInfo&) {
        const std::string key = cmd.get_text("key");
        if (cmd.get_text("scope") == "local") {
          std::scoped_lock lock(mu_);
          auto it = objects_.find(key);
          if (it == objects_.end())
            return cmdlang::make_error(util::Errc::not_found,
                                       "no such object");
          CmdLine reply = cmdlang::make_ok();
          reply.arg("data", hex_of(it->second.data));
          reply.arg("version",
                    static_cast<std::int64_t>(it->second.version));
          reply.arg("deleted", Word{it->second.deleted ? "yes" : "no"});
          return reply;
        }
        return coordinate_read(key);
      });

  // Read-path internal: version/tombstone digest only — no value bytes.
  // This is what lets a quorum read ship one full copy plus R-1 digests.
  register_command(
      CommandSpec("storeGetDigest",
                  "version digest of one object (this replica)").concurrent_ok()
          .arg(string_arg("key")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::scoped_lock lock(mu_);
        auto it = objects_.find(cmd.get_text("key"));
        if (it == objects_.end())
          return cmdlang::make_error(util::Errc::not_found, "no such object");
        CmdLine reply = cmdlang::make_ok();
        reply.arg("version", static_cast<std::int64_t>(it->second.version));
        reply.arg("deleted", Word{it->second.deleted ? "yes" : "no"});
        return reply;
      });

  register_command(
      CommandSpec("storeDelete", "remove an object (tombstone)").concurrent_ok()
          .arg(string_arg("key")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        ObjectRecord record;
        record.deleted = true;
        record.version = next_version();
        std::string key = cmd.get_text("key");
        WriteOutcome out = coordinate_write(key, record);
        if (!out.quorum_met)
          return cmdlang::make_error(
              util::Errc::unavailable,
              "write quorum not met (acks=" + std::to_string(out.acks) + ")");
        CmdLine reply = cmdlang::make_ok();
        reply.arg("version", static_cast<std::int64_t>(record.version));
        reply.arg("acks", static_cast<std::int64_t>(out.acks));
        return reply;
      });

  // Paginated ordered prefix scan. Local scope answers one page of this
  // replica's map; cluster scope merges per-peer pages (parallel fan-out,
  // self answered without an RPC) behind an opaque resume cursor that
  // stays stable under concurrent writes. docs/store.md §"Read path" has
  // the cursor contract.
  register_command(
      CommandSpec("storeScan",
                  "one ordered key page under a prefix (resumable)").concurrent_ok()
          .arg(string_arg("prefix").optional_arg())
          .arg(string_arg("cursor").optional_arg())
          .arg(integer_arg("limit").optional_arg())
          .arg(word_arg("scope").optional_arg().choices({"cluster", "local"})),
      [this](const CmdLine& cmd, const CallerInfo&) {
        const std::string prefix = cmd.get_text("prefix");
        const std::string cursor = cmd.get_text("cursor");
        const auto limit = static_cast<std::size_t>(std::clamp<std::int64_t>(
            cmd.get_integer("limit", kScanLimit), 1, kScanLimitMax));
        if (cmd.get_text("scope") == "local") {
          ScanPage page = scan_local(prefix, cursor, limit);
          CmdLine reply = cmdlang::make_ok();
          reply.arg("keys", cmdlang::string_vector(std::move(page.keys)));
          reply.arg("next", page.done ? std::string() : page.next);
          reply.arg("done", Word{page.done ? "yes" : "no"});
          return reply;
        }
        auto page = scan_cluster(prefix, cursor, limit);
        if (!page.ok())
          return cmdlang::make_error(page.error().code, page.error().message);
        CmdLine reply = cmdlang::make_ok();
        reply.arg("keys", cmdlang::string_vector(std::move(page->keys)));
        reply.arg("next", page->next);
        reply.arg("done", Word{page->done ? "yes" : "no"});
        return reply;
      });

  register_command(CommandSpec("storeCount", "count live objects (this replica)").concurrent_ok(),
                   [this](const CmdLine&, const CallerInfo&) {
                     CmdLine reply = cmdlang::make_ok();
                     reply.arg("count",
                               static_cast<std::int64_t>(object_count()));
                     return reply;
                   });

  register_command(
      CommandSpec("storeDigestTree", "Merkle digest-tree hashes for anti-entropy").concurrent_ok()
          .arg(string_arg("nodes")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        std::vector<std::string> hashes;
        std::size_t served = 0;
        {
          std::scoped_lock lock(mu_);
          for (const std::string& tok :
               util::split(cmd.get_text("nodes"), ' ')) {
            if (tok.empty()) continue;
            if (++served > 2048) break;  // request-size cap
            const std::size_t id = std::strtoull(tok.c_str(), nullptr, 10);
            hashes.push_back(tok + "|" + std::to_string(tree_.node(id)));
          }
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("depth", static_cast<std::int64_t>(tree_.depth()));
        reply.arg("leaves", static_cast<std::int64_t>(tree_.leaf_count()));
        reply.arg("hashes", cmdlang::string_vector(std::move(hashes)));
        return reply;
      });

  register_command(
      CommandSpec("storeDigestBucket", "key/version digest of one Merkle bucket").concurrent_ok()
          .arg(integer_arg("bucket")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        const auto bucket = static_cast<std::size_t>(
            std::max<std::int64_t>(0, cmd.get_integer("bucket")));
        std::vector<std::string> entries;
        {
          std::scoped_lock lock(mu_);
          if (bucket < bucket_keys_.size())
            for (const std::string& key : bucket_keys_[bucket]) {
              auto it = objects_.find(key);
              if (it == objects_.end()) continue;
              entries.push_back(key + "|" +
                                std::to_string(it->second.version) + "|" +
                                (it->second.deleted ? "d" : "l"));
            }
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("entries", cmdlang::string_vector(std::move(entries)));
        return reply;
      });

  register_command(
      CommandSpec("storeSync", "pull newer objects from peer replicas").concurrent_ok(),
      [this](const CmdLine&, const CallerInfo&) {
        auto fetched = sync_from_peers();
        if (!fetched.ok())
          return cmdlang::make_error(fetched.error().code,
                                     fetched.error().message);
        CmdLine reply = cmdlang::make_ok();
        reply.arg("fetched", fetched.value());
        return reply;
      });

  // Peer-internal replication message. `hint` names the intended owner
  // when this replica is a sloppy-quorum stand-in for a downed peer.
  register_command(
      CommandSpec("storeReplicate", "apply a replicated write (internal)").concurrent_ok()
          .arg(string_arg("key"))
          .arg(integer_arg("version"))
          .arg(string_arg("data"))
          .arg(word_arg("deleted").choices({"yes", "no"}))
          .arg(string_arg("hint").optional_arg()),
      [this](const CmdLine& cmd, const CallerInfo&) {
        ObjectRecord record;
        record.version = static_cast<std::uint64_t>(cmd.get_integer("version"));
        record.data = bytes_of_hex(cmd.get_text("data"));
        record.deleted = cmd.get_text("deleted") == "yes";
        const std::string key = cmd.get_text("key");
        WalTicket t = apply(key, record);
        WalTicket h;
        if (auto intended = net::Address::parse(cmd.get_text("hint")))
          h = record_hint(*intended, key, record.version);
        // The ok below is this replica's durability promise: flush first.
        DurableLog::sync(t);
        DurableLog::sync(h);
        return cmdlang::make_ok();
      });

  // Peer-internal group commit: one frame carrying many replicated writes
  // (daemon/wire.hpp pack_batch of encode_replica_entry records).
  register_command(
      CommandSpec("storeReplicateBatch", "apply a batch of replicated writes (internal)").concurrent_ok()
          .arg(string_arg("entries")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto records = daemon::wire::unpack_batch(cmd.get_text("entries"));
        if (!records)
          return cmdlang::make_error(util::Errc::semantic_error,
                                     "malformed batch payload");
        std::int64_t applied = 0;
        std::vector<WalTicket> tickets;
        for (const std::string& packed : *records) {
          auto fields = daemon::wire::unpack_batch(packed);
          if (!fields || fields->size() != 5) continue;
          ObjectRecord record;
          record.version = std::strtoull((*fields)[1].c_str(), nullptr, 10);
          record.deleted = (*fields)[2] == "d";
          record.data = bytes_of_hex((*fields)[3]);
          tickets.push_back(apply((*fields)[0], record));
          if (auto intended = net::Address::parse((*fields)[4]))
            tickets.push_back(
                record_hint(*intended, (*fields)[0], record.version));
          ++applied;
        }
        // One group-commit flush covers the whole batch: the first sync
        // fsyncs everything appended, the rest return immediately.
        for (const WalTicket& t : tickets) DurableLog::sync(t);
        CmdLine reply = cmdlang::make_ok();
        reply.arg("applied", applied);
        return reply;
      });

  register_command(
      CommandSpec("storeWalStats", "durability status of this replica").concurrent_ok(),
      [this](const CmdLine&, const CallerInfo&) {
        std::shared_ptr<DurableLog> dlog;
        std::uint64_t recoveries, compactions, torn, fallbacks;
        {
          std::scoped_lock lock(mu_);
          dlog = dlog_;
          recoveries = recoveries_;
          compactions = compactions_;
          torn = torn_tails_;
          fallbacks = snapshot_fallbacks_;
        }
        const bool durable = options_.disk != nullptr;
        CmdLine reply = cmdlang::make_ok();
        reply.arg("durable", Word{durable ? "yes" : "no"});
        reply.arg("generation",
                  static_cast<std::int64_t>(dlog ? dlog->generation() : 0));
        reply.arg("wal_records",
                  static_cast<std::int64_t>(dlog ? dlog->wal_records() : 0));
        reply.arg("wal_bytes",
                  static_cast<std::int64_t>(dlog ? dlog->wal_bytes() : 0));
        reply.arg("recoveries", static_cast<std::int64_t>(recoveries));
        reply.arg("compactions", static_cast<std::int64_t>(compactions));
        reply.arg("torn_dropped", static_cast<std::int64_t>(torn));
        reply.arg("snapshot_fallbacks", static_cast<std::int64_t>(fallbacks));
        return reply;
      });

  register_command(
      CommandSpec("storeCompact",
                  "snapshot local state and rotate the WAL").concurrent_ok(),
      [this](const CmdLine&, const CallerInfo&) {
        auto records = compact_now();
        if (!records.ok())
          return cmdlang::make_error(records.error().code,
                                     records.error().message);
        std::shared_ptr<DurableLog> dlog;
        {
          std::scoped_lock lock(mu_);
          dlog = dlog_;
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("generation",
                  static_cast<std::int64_t>(dlog ? dlog->generation() : 0));
        reply.arg("records", records.value());
        return reply;
      });
}

void PersistentStoreDaemon::set_peers(std::vector<net::Address> peers) {
  {
    std::scoped_lock lock(mu_);
    peers_ = std::move(peers);
  }
  rebuild_ring();
}

void PersistentStoreDaemon::rebuild_ring() {
  std::scoped_lock lock(mu_);
  std::vector<net::Address> nodes = peers_;
  nodes.push_back(address());
  ring_ = Ring(std::move(nodes), kDefaultVnodes);
}

util::Status PersistentStoreDaemon::on_start() {
  if (!options_status_.ok()) return options_status_;
  rebuild_ring();  // the listen port is final now
  if (options_.disk) {
    // Local recovery first, before the monitor's boot sync: snapshot + WAL
    // replay rebuilds everything this replica had durably acknowledged, so
    // Merkle anti-entropy afterwards only covers the divergence tail.
    auto dlog = std::make_shared<DurableLog>(
        *options_.disk, config().name,
        WalCounters{obs_wal_appends_, obs_wal_fsyncs_, obs_wal_torn_});
    std::scoped_lock lock(mu_);
    recovery_stats_ =
        dlog->recover([this](const WalRecord& r) { fold_recovered(r); });
    dlog_ = std::move(dlog);
    ++recoveries_;
    torn_tails_ += static_cast<std::uint64_t>(recovery_stats_.torn_tails);
    snapshot_fallbacks_ +=
        static_cast<std::uint64_t>(recovery_stats_.snapshot_fallbacks);
    obs_recoveries_->inc();
    if (recovery_stats_.snapshot_fallbacks > 0)
      obs_snap_fallbacks_->inc(
          static_cast<std::uint64_t>(recovery_stats_.snapshot_fallbacks));
    net_log("info",
            "recovered generation " +
                std::to_string(recovery_stats_.generation) + ": " +
                std::to_string(recovery_stats_.snapshot_records) +
                " snapshot + " + std::to_string(recovery_stats_.wal_records) +
                " wal records" +
                (recovery_stats_.torn_tails > 0
                     ? ", torn tail dropped (" +
                           std::to_string(recovery_stats_.torn_bytes) +
                           " bytes)"
                     : ""));
  }
  {
    std::scoped_lock lock(mu_);
    batcher_ = std::make_shared<ReplicationBatcher>(
        env().metrics(), control_client(),
        BatcherOptions{.call_timeout = options_.replicate_timeout});
    // Fresh guard per start: the previous one stays revoked so any task
    // still queued from the last life remains a no-op.
    read_tasks_ = net::TaskGuard();
  }
  monitor_ = std::jthread([this](std::stop_token st) { monitor_loop(st); });
  return util::Status::ok_status();
}

void PersistentStoreDaemon::shutdown_runtime(bool flush) {
  monitor_ = {};
  std::shared_ptr<ReplicationBatcher> batcher;
  std::shared_ptr<DurableLog> dlog;
  net::TaskGuard read_tasks;
  {
    std::scoped_lock lock(mu_);
    batcher = batcher_;
    dlog = dlog_;
    read_tasks = read_tasks_;
  }
  // Read fan-out / read-repair tasks still on the ops pool become no-ops;
  // revoke() waits out any mid-run one, so nothing touches a dead daemon.
  read_tasks.revoke();
  // Left in place (inert) — command handlers may still be draining and
  // submit() must fast-fail rather than touch a dead object.
  if (batcher) batcher->shutdown();
  // Graceful stop flushes the WAL tail; a crash must not (whatever was
  // not yet fsynced is exactly what the durability contract is about).
  if (dlog && flush) dlog->sync_all();
}

void PersistentStoreDaemon::on_stop() { shutdown_runtime(true); }

void PersistentStoreDaemon::on_crash() {
  shutdown_runtime(false);
  std::scoped_lock lock(mu_);
  if (!options_.disk) return;  // legacy in-memory replica: seed semantics
  // Process memory dies with the process: drop everything volatile and
  // make the next on_start prove itself from the disk.
  objects_.clear();
  tree_ = MerkleTree(tree_.depth());
  for (auto& bucket : bucket_keys_) bucket.clear();
  hints_.clear();
  lamport_ = 0;
  dlog_.reset();
}

// Peer liveness monitor: detects rejoins (peer restart or partition heal,
// from either side), runs anti-entropy so the cluster converges without a
// manual storeSync, and pushes hinted-handoff writes back to their owners.
// The first iteration doubles as the boot catch-up sync a rejoining
// replica needs.
void PersistentStoreDaemon::monitor_loop(std::stop_token st) {
  const auto slice = std::chrono::milliseconds(25);
  std::map<net::Address, bool> peer_up;
  bool first = true;
  while (!st.stop_requested()) {
    if (!first) {
      auto remaining = options_.probe_interval;
      while (remaining.count() > 0 && !st.stop_requested()) {
        std::this_thread::sleep_for(std::min(remaining, slice));
        remaining -= slice;
      }
      if (st.stop_requested()) return;
    }

    std::vector<net::Address> peers;
    {
      std::scoped_lock lock(mu_);
      peers = peers_;
    }
    bool rejoined = false;
    std::vector<net::Address> reachable;
    for (const net::Address& peer : peers) {
      auto pong = control_client().call(
          peer, CmdLine("ping"),
          daemon::CallOptions{.timeout = options_.probe_timeout,
                              .require_ok = true,
                              .retries = 0,
                              .backoff = std::chrono::milliseconds(0)});
      const bool up = pong.ok();
      if (up) reachable.push_back(peer);
      auto it = peer_up.find(peer);
      if (it == peer_up.end()) {
        peer_up[peer] = up;
      } else {
        if (!it->second && up) rejoined = true;
        it->second = up;
      }
    }
    if (st.stop_requested()) return;
    for (const net::Address& peer : reachable) drain_hints(peer);
    maybe_compact();  // durable mode: snapshot once the WAL outgrows it
    if (first || rejoined) {
      auto fetched = sync_from_peers();
      if (!first && fetched.ok()) {
        obs_rejoin_syncs_->inc();
        net_log("info", "peer rejoin detected; anti-entropy fetched " +
                            std::to_string(fetched.value()) + " objects");
      }
    }
    first = false;
  }
}

std::uint64_t PersistentStoreDaemon::next_version() {
  // Hybrid clock: wall microseconds, bumped past anything already seen
  // (Lamport absorption in apply()), replica id as tiebreak. The wall
  // component keeps versions monotone across coordinator failover — a
  // freshly restarted coordinator must not issue versions that lose LWW
  // to writes it never saw.
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          steady_clock::now().time_since_epoch())
          .count());
  std::scoped_lock lock(mu_);
  lamport_ = std::max(lamport_ + 1, now);
  return lamport_ << 8 | static_cast<std::uint64_t>(replica_id_ & 0xff);
}

WalTicket PersistentStoreDaemon::apply(const std::string& key,
                                       const ObjectRecord& record) {
  std::scoped_lock lock(mu_);
  return apply_locked(key, record, /*log=*/true);
}

WalTicket PersistentStoreDaemon::apply_locked(const std::string& key,
                                              const ObjectRecord& record,
                                              bool log) {
  // Lamport clock absorption: future local writes order after this one.
  lamport_ = std::max(lamport_, record.version >> 8);
  auto it = objects_.find(key);
  if (it != objects_.end() && it->second.version >= record.version) return {};
  const std::uint64_t pos = Ring::hash_key(key);
  std::uint64_t old_hash = 0;
  if (it != objects_.end()) {
    old_hash =
        MerkleTree::entry_hash(key, it->second.version, it->second.deleted);
  } else {
    bucket_keys_[tree_.bucket_of(pos)].insert(key);
  }
  tree_.update(pos, old_hash,
               MerkleTree::entry_hash(key, record.version, record.deleted));
  objects_[key] = record;
  if (!log) return {};  // recovery replay: the record came *from* the WAL
  obs_writes_->inc();
  if (!dlog_) return {};
  WalRecord r;
  r.kind = record.deleted ? WalRecord::kDelete : WalRecord::kPut;
  r.key = key;
  r.version = record.version;
  r.data = record.data;
  return dlog_->append(r);
}

void PersistentStoreDaemon::fold_recovered(const WalRecord& r) {
  switch (r.kind) {
    case WalRecord::kPut:
    case WalRecord::kDelete: {
      ObjectRecord record;
      record.version = r.version;
      record.data = r.data;
      record.deleted = r.kind == WalRecord::kDelete;
      apply_locked(r.key, record, /*log=*/false);
      break;
    }
    case WalRecord::kHint: {
      // Satellite of the durability contract: a W-acked sloppy write held
      // only as a hint survives the coordinator's death. The monitor's
      // drain probe picks it back up once the owner is reachable.
      if (auto owner = net::Address::parse(r.owner)) {
        std::uint64_t& slot = hints_[*owner][r.key];
        slot = std::max(slot, r.version);
      }
      break;
    }
    case WalRecord::kHintDrained: {
      if (auto owner = net::Address::parse(r.owner)) {
        auto it = hints_.find(*owner);
        if (it != hints_.end()) {
          it->second.erase(r.key);
          if (it->second.empty()) hints_.erase(it);
        }
      }
      break;
    }
    case WalRecord::kErase:
      erase_local_locked(r.key, /*log=*/false);
      break;
    default:
      break;
  }
}

void PersistentStoreDaemon::erase_local(const std::string& key) {
  std::scoped_lock lock(mu_);
  erase_local_locked(key, /*log=*/true);
}

void PersistentStoreDaemon::erase_local_locked(const std::string& key,
                                               bool log) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return;
  const std::uint64_t pos = Ring::hash_key(key);
  tree_.update(pos,
               MerkleTree::entry_hash(key, it->second.version,
                                      it->second.deleted),
               0);
  bucket_keys_[tree_.bucket_of(pos)].erase(key);
  objects_.erase(it);
  if (log && dlog_) {
    // Lazily synced: resurrecting a shed stand-in copy after a crash is
    // harmless (the owner already has the record).
    WalRecord r;
    r.kind = WalRecord::kErase;
    r.key = key;
    (void)dlog_->append(r);
  }
}

bool PersistentStoreDaemon::owns(const std::string& key) const {
  std::scoped_lock lock(mu_);
  if (ring_.empty()) return true;
  const auto n =
      static_cast<std::size_t>(std::max(1, options_.replication));
  for (const net::Address& node : ring_.preference_list(key, n))
    if (node == address()) return true;
  return false;
}

WalTicket PersistentStoreDaemon::record_hint(const net::Address& intended,
                                             const std::string& key,
                                             std::uint64_t version) {
  if (intended == address()) return {};
  std::scoped_lock lock(mu_);
  std::uint64_t& slot = hints_[intended][key];
  slot = std::max(slot, version);
  obs_hints_recorded_->inc();
  if (!dlog_) return {};
  WalRecord r;
  r.kind = WalRecord::kHint;
  r.key = key;
  r.version = version;
  r.owner = intended.to_string();
  return dlog_->append(r);
}

void PersistentStoreDaemon::drain_hints(const net::Address& peer) {
  std::map<std::string, std::uint64_t> batch;
  {
    std::scoped_lock lock(mu_);
    auto it = hints_.find(peer);
    if (it == hints_.end() || it->second.empty()) return;
    batch.swap(it->second);
    hints_.erase(it);
  }
  for (const auto& [key, version] : batch) {
    ObjectRecord record;
    bool have = false;
    {
      std::scoped_lock lock(mu_);
      auto it = objects_.find(key);
      if (it != objects_.end() && it->second.version >= version) {
        record = it->second;
        have = true;
      }
    }
    if (!have) continue;  // superseded locally; anti-entropy covers the rest
    auto reply = control_client().call(
        peer, make_replicate_cmd(key, record, ""),
        daemon::CallOptions{.timeout = options_.replicate_timeout,
                            .retries = 0});
    if (reply.ok() && cmdlang::is_ok(reply.value())) {
      obs_hints_drained_->inc();
      {
        // Lazily synced: replaying an already-drained hint after a crash
        // just re-sends a record the owner LWW-ignores.
        std::scoped_lock lock(mu_);
        if (dlog_) {
          WalRecord r;
          r.kind = WalRecord::kHintDrained;
          r.key = key;
          r.owner = peer.to_string();
          (void)dlog_->append(r);
        }
      }
      // A stand-in that is not in the key's preference list sheds its
      // temporary copy once the owner has it.
      if (!owns(key)) erase_local(key);
    } else {
      std::scoped_lock lock(mu_);
      std::uint64_t& slot = hints_[peer][key];
      slot = std::max(slot, version);  // retry next probe round
    }
  }
}

std::size_t PersistentStoreDaemon::hints_pending() const {
  std::scoped_lock lock(mu_);
  std::size_t n = 0;
  for (const auto& [peer, keys] : hints_) n += keys.size();
  return n;
}

std::uint64_t PersistentStoreDaemon::merkle_root() const {
  std::scoped_lock lock(mu_);
  return tree_.root();
}

PersistentStoreDaemon::WriteOutcome PersistentStoreDaemon::coordinate_write(
    const std::string& key, const ObjectRecord& record) {
  obs::Span span(env().metrics(), "store", "replicate");
  std::vector<net::Address> order;
  std::shared_ptr<ReplicationBatcher> batcher;
  {
    std::scoped_lock lock(mu_);
    order = ring_.walk(key);
    batcher = batcher_;
  }
  const net::Address self = address();
  if (order.empty()) order.push_back(self);
  const auto n = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, options_.replication)),
      order.size());
  const int w_eff =
      options_.write_quorum <= 0
          ? 0
          : std::min(options_.write_quorum, static_cast<int>(n));

  std::vector<net::Address> targets;
  bool self_owner = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (order[i] == self)
      self_owner = true;
    else
      targets.push_back(order[i]);
  }

  int acks = 0;
  int peer_acks = 0;
  std::vector<WalTicket> tickets;
  if (self_owner) {
    tickets.push_back(apply(key, record));
    ++acks;
  }

  const auto deadline = steady_clock::now() + options_.replicate_timeout;
  std::vector<net::Address> failed;
  if (!batcher) {
    // A write served during start(), before on_start built the batcher:
    // every target counts as a miss and rides the hinted handoff below.
    failed = targets;
  } else {
    std::vector<std::pair<net::Address,
                          std::shared_ptr<ReplicationBatcher::Pending>>>
        inflight;
    inflight.reserve(targets.size());
    const std::string entry = encode_replica_entry(key, record, "");
    for (const net::Address& t : targets)
      inflight.emplace_back(t, batcher->submit(t, entry));
    for (auto& [t, pending] : inflight) {
      // Every attempt is awaited even once W acks are in: a miss must be
      // *observed* to leave a hint behind, and that hint is what makes the
      // downed replica converge on heal. The per-peer circuit breaker
      // keeps waits on a dead peer cheap after the first few timeouts.
      if (pending->wait_until(deadline)) {
        ++acks;
        ++peer_acks;
      } else {
        failed.push_back(t);
      }
    }
  }

  // Sloppy quorum: each unreachable owner's copy is handed to the next
  // ring successor, tagged with the intended owner so the stand-in can
  // push it home on heal. When the ring is exhausted (e.g. the 3-node
  // cluster, where there is no one left), an owning coordinator keeps a
  // local hint instead — targeted anti-entropy for the downed peer.
  std::size_t fallback_index = n;
  for (const net::Address& dead : failed) {
    bool handed = false;
    while (fallback_index < order.size() && !handed) {
      const net::Address fb = order[fallback_index++];
      if (fb == self) {
        tickets.push_back(apply(key, record));
        tickets.push_back(record_hint(dead, key, record.version));
        ++acks;
        handed = true;
        break;
      }
      auto reply = control_client().call(
          fb, make_replicate_cmd(key, record, dead.to_string()),
          daemon::CallOptions{.timeout = options_.replicate_timeout,
                              .retries = 0});
      if (reply.ok() && cmdlang::is_ok(reply.value())) {
        ++acks;
        ++peer_acks;
        handed = true;
      }
    }
    if (!handed && self_owner)
      tickets.push_back(record_hint(dead, key, record.version));
  }

  // Durability point: the local apply and any hints this ack rests on must
  // be on the platter before the coordinator replies ok. Concurrent
  // coordinators ride one leader fsync (group commit), so this costs one
  // flush per batch, not per write.
  for (const WalTicket& t : tickets) DurableLog::sync(t);

  obs_replica_acks_->inc(static_cast<std::uint64_t>(peer_acks));

  WriteOutcome out;
  out.acks = acks;
  out.quorum_met = w_eff == 0 || acks >= w_eff;
  if (!out.quorum_met) obs_quorum_failures_->inc();
  span.set_ok(out.quorum_met && failed.empty());
  return out;
}

// Parallel digest read: one full value (from this replica when it owns
// the key, else from the first listed owner) plus version digests from
// every other preference-list replica, all RPCs issued concurrently on
// the pipelined channel. The reply waits for R countable answers, not for
// the whole fan-out; if a digest outvotes the full copy, the newest value
// is fetched from one of its holders before replying, and any replica
// observed stale or absent is repaired off the reply path.
CmdLine PersistentStoreDaemon::coordinate_read(const std::string& key) {
  std::vector<net::Address> prefs;
  net::TaskGuard guard;
  {
    std::scoped_lock lock(mu_);
    prefs = ring_.preference_list(
        key, static_cast<std::size_t>(std::max(1, options_.replication)));
    guard = read_tasks_;
  }
  const net::Address self = address();
  if (prefs.empty()) prefs.push_back(self);
  const int r_eff = std::max(
      1, std::min(options_.read_quorum, static_cast<int>(prefs.size())));

  // The full-value target; everyone else ships a digest.
  std::size_t full_index = 0;
  bool self_owner = false;
  for (std::size_t i = 0; i < prefs.size(); ++i) {
    if (prefs[i] == self) {
      full_index = i;
      self_owner = true;
      break;
    }
  }

  // Fast path: an owning coordinator's own copy satisfies R=1 without any
  // fan-out.
  if (r_eff == 1 && self_owner) {
    std::scoped_lock lock(mu_);
    auto it = objects_.find(key);
    if (it == objects_.end() || it->second.deleted)
      return cmdlang::make_error(util::Errc::not_found, "no such object");
    CmdLine reply = cmdlang::make_ok();
    reply.arg("data", hex_of(it->second.data));
    reply.arg("version", static_cast<std::int64_t>(it->second.version));
    return reply;
  }

  obs_digest_reads_->inc();

  struct Vote {
    bool finished = false;  // the attempt completed (even unreachable)
    bool replied = false;   // countable: ok or authoritative not_found
    bool has = false;       // holds a record (maybe a tombstone)
    bool full = false;      // record.data is populated
    ObjectRecord record;
  };
  struct Gather {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Vote> votes;
  };
  auto gather = std::make_shared<Gather>();
  gather->votes.resize(prefs.size());

  // The local vote is answered inline under one lock scope — an owner
  // that lacks the key is a countable "authoritative absent".
  if (self_owner) {
    Vote& v = gather->votes[full_index];
    std::scoped_lock lock(mu_);
    v.finished = v.replied = true;
    auto it = objects_.find(key);
    if (it != objects_.end()) {
      v.has = v.full = true;
      v.record = it->second;
    }
  }

  const auto timeout = options_.replicate_timeout;
  for (std::size_t i = 0; i < prefs.size(); ++i) {
    if (self_owner && i == full_index) continue;
    const net::Address target = prefs[i];
    const bool want_full = !self_owner && i == full_index;
    env().reactor().post_blocking(guard.wrap([this, gather, i, target,
                                              want_full, key, timeout] {
      CmdLine sub(want_full ? "storeGet" : "storeGetDigest");
      sub.arg("key", key);
      if (want_full) sub.arg("scope", Word{"local"});
      auto reply = control_client().call(
          target, sub, daemon::CallOptions{.timeout = timeout, .retries = 0});
      Vote v;
      v.finished = true;
      if (reply.ok() && cmdlang::is_ok(reply.value())) {
        v.replied = v.has = true;
        v.record.version =
            static_cast<std::uint64_t>(reply->get_integer("version"));
        v.record.deleted = reply->get_text("deleted") == "yes";
        if (want_full) {
          v.full = true;
          v.record.data = bytes_of_hex(reply->get_text("data"));
        }
      } else if (reply.ok() && cmdlang::reply_error(reply.value()).code ==
                                   util::Errc::not_found) {
        v.replied = true;  // authoritative absence
      }
      std::scoped_lock lock(gather->mu);
      gather->votes[i] = std::move(v);
      gather->cv.notify_all();
    }));
  }

  // Quorum wait: R countable replies with the full-value attempt settled,
  // or everything finished, whichever is first. The deadline covers tasks
  // dropped by a stopping reactor or a revoked guard.
  std::vector<Vote> votes;
  {
    std::unique_lock lk(gather->mu);
    gather->cv.wait_until(
        lk, steady_clock::now() + timeout + std::chrono::milliseconds(200),
        [&] {
          int finished = 0;
          int replied = 0;
          for (const Vote& v : gather->votes) {
            if (v.finished) ++finished;
            if (v.replied) ++replied;
          }
          if (finished == static_cast<int>(gather->votes.size())) return true;
          return replied >= r_eff && gather->votes[full_index].finished;
        });
    votes = gather->votes;
  }

  int replies = 0;
  std::optional<std::size_t> best;  // newest record among the votes
  for (std::size_t i = 0; i < votes.size(); ++i) {
    if (votes[i].replied) ++replies;
    if (votes[i].has &&
        (!best || votes[i].record.version > votes[*best].record.version))
      best = i;
  }
  if (replies < r_eff) {
    obs_read_unavailable_->inc();
    return cmdlang::make_error(
        util::Errc::unavailable,
        "read quorum not met (replies=" + std::to_string(replies) +
            " R=" + std::to_string(r_eff) + ")");
  }
  if (!best)
    return cmdlang::make_error(util::Errc::not_found, "no such object");

  ObjectRecord winner = votes[*best].record;
  if (!votes[*best].full) {
    // The full-value copy was not the newest (or did not answer): the
    // digests disagreed. A live winner needs its bytes fetched from one
    // of the replicas that voted the newest version.
    obs_digest_mismatches_->inc();
    if (!winner.deleted) {
      bool materialized = false;
      CmdLine sub("storeGet");
      sub.arg("key", key);
      sub.arg("scope", Word{"local"});
      for (std::size_t i = 0; i < votes.size() && !materialized; ++i) {
        if (!votes[i].has || votes[i].record.version != winner.version)
          continue;
        auto reply = control_client().call(
            prefs[i], sub,
            daemon::CallOptions{.timeout = timeout, .retries = 0});
        if (!reply.ok() || !cmdlang::is_ok(reply.value())) continue;
        ObjectRecord fetched;
        fetched.version =
            static_cast<std::uint64_t>(reply->get_integer("version"));
        fetched.deleted = reply->get_text("deleted") == "yes";
        fetched.data = bytes_of_hex(reply->get_text("data"));
        if (fetched.version >= winner.version) {
          winner = std::move(fetched);
          materialized = true;
        }
      }
      // Never reply with a value older than the newest version observed:
      // the client's failover can try another coordinator instead.
      if (!materialized) {
        obs_read_unavailable_->inc();
        return cmdlang::make_error(util::Errc::unavailable,
                                   "newest version unreachable");
      }
    }
  }

  // Read repair: every replica observed stale or absent converges on the
  // winner without waiting for Merkle anti-entropy.
  std::vector<net::Address> stale;
  bool self_stale = false;
  for (std::size_t i = 0; i < votes.size(); ++i) {
    if (!votes[i].replied) continue;  // unreachable: hints/anti-entropy
    if (votes[i].has && votes[i].record.version >= winner.version) continue;
    if (prefs[i] == self)
      self_stale = true;
    else
      stale.push_back(prefs[i]);
  }
  if (self_stale) {
    // Inline and lazily synced: LWW makes a crash-replayed repair a no-op,
    // so the reply need not wait on the fsync.
    (void)apply(key, winner);
  }
  if (!stale.empty()) schedule_read_repair(key, winner, std::move(stale));

  if (winner.deleted)
    return cmdlang::make_error(util::Errc::not_found, "no such object");
  CmdLine reply = cmdlang::make_ok();
  reply.arg("data", hex_of(winner.data));
  reply.arg("version", static_cast<std::int64_t>(winner.version));
  return reply;
}

void PersistentStoreDaemon::schedule_read_repair(
    const std::string& key, const ObjectRecord& winner,
    std::vector<net::Address> stale) {
  net::TaskGuard guard;
  {
    std::scoped_lock lock(mu_);
    guard = read_tasks_;
  }
  const auto timeout = options_.replicate_timeout;
  for (const net::Address& peer : stale) {
    env().reactor().post_blocking(guard.wrap([this, key, winner, peer,
                                              timeout] {
      auto reply = control_client().call(
          peer, make_replicate_cmd(key, winner, ""),
          daemon::CallOptions{.timeout = timeout, .retries = 0});
      if (reply.ok() && cmdlang::is_ok(reply.value())) {
        obs_read_repairs_->inc();
      } else {
        // The repair missed; leave a hinted-handoff obligation so the
        // monitor pushes it home when the peer is reachable again.
        WalTicket t = record_hint(peer, key, winner.version);
        DurableLog::sync(t);
      }
    }));
  }
}

PersistentStoreDaemon::ScanPage PersistentStoreDaemon::scan_local(
    const std::string& prefix, const std::string& cursor,
    std::size_t limit) const {
  ScanPage page;
  std::scoped_lock lock(mu_);
  // Keys sharing a prefix are one contiguous run of the ordered map, so a
  // page is O(limit + tombstones skipped): start at the later of the
  // prefix run and the cursor, stop at the first non-matching key.
  auto it = (cursor.empty() || cursor < prefix) ? objects_.lower_bound(prefix)
                                                : objects_.upper_bound(cursor);
  for (; it != objects_.end(); ++it) {
    if (!util::starts_with(it->first, prefix)) break;
    if (page.keys.size() >= limit) {
      obs_scan_pages_->inc();
      return page;  // more remain past page.next: done stays false
    }
    page.next = it->first;  // advances over tombstones too
    if (!it->second.deleted) page.keys.push_back(it->first);
  }
  page.done = true;
  obs_scan_pages_->inc();
  return page;
}

std::string PersistentStoreDaemon::encode_scan_cursor(
    const std::vector<PeerCursor>& entries) {
  std::vector<std::string> packed;
  packed.reserve(entries.size());
  for (const PeerCursor& e : entries)
    packed.push_back(daemon::wire::pack_batch(
        {e.addr.to_string(), e.exhausted ? "e" : "a", e.last}));
  return daemon::wire::pack_batch(packed);
}

std::optional<std::vector<PersistentStoreDaemon::PeerCursor>>
PersistentStoreDaemon::parse_scan_cursor(const std::string& blob) {
  auto outer = daemon::wire::unpack_batch(blob);
  if (!outer || outer->empty()) return std::nullopt;
  std::vector<PeerCursor> entries;
  entries.reserve(outer->size());
  for (const std::string& packed : *outer) {
    auto fields = daemon::wire::unpack_batch(packed);
    if (!fields || fields->size() != 3) return std::nullopt;
    auto addr = net::Address::parse((*fields)[0]);
    if (!addr || ((*fields)[1] != "a" && (*fields)[1] != "e"))
      return std::nullopt;
    entries.push_back(PeerCursor{*addr, (*fields)[1] == "e", (*fields)[2]});
  }
  return entries;
}

// Cluster scan page: each shard serves one local page in parallel (self
// answered without an RPC), the coordinator merges them in order and only
// emits keys at or below the lowest point every still-active shard has
// been scanned to (the "barrier"), so no key can later arrive behind the
// emission front. The cursor blob records, per peer, where to resume —
// which makes the cursor resumable through any coordinator. Unreachable
// peers are dropped from the remainder of the scan, best effort.
util::Result<PersistentStoreDaemon::ClusterPage>
PersistentStoreDaemon::scan_cluster(const std::string& prefix,
                                    const std::string& cursor_blob,
                                    std::size_t limit) {
  const net::Address self = address();
  std::vector<PeerCursor> entries;
  net::TaskGuard guard;
  if (cursor_blob.empty()) {
    std::scoped_lock lock(mu_);
    entries.push_back(PeerCursor{self, false, ""});
    for (const net::Address& peer : peers_)
      entries.push_back(PeerCursor{peer, false, ""});
    guard = read_tasks_;
  } else {
    auto parsed = parse_scan_cursor(cursor_blob);
    if (!parsed)
      return util::Error{util::Errc::semantic_error, "malformed scan cursor"};
    entries = std::move(*parsed);
    std::scoped_lock lock(mu_);
    guard = read_tasks_;
  }

  struct Slot {
    bool finished = false;
    bool ok = false;
    ScanPage page;
  };
  struct Gather {
    std::mutex mu;
    std::condition_variable cv;
    int outstanding = 0;
    std::vector<Slot> slots;
  };
  auto gather = std::make_shared<Gather>();
  gather->slots.resize(entries.size());

  const auto timeout = options_.replicate_timeout;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].exhausted || entries[i].addr == self) continue;
    ++gather->outstanding;
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const PeerCursor& e = entries[i];
    Slot& slot = gather->slots[i];
    if (e.exhausted) {
      slot.finished = slot.ok = true;
      slot.page.done = true;
      continue;
    }
    if (e.addr == self) {
      slot.finished = slot.ok = true;
      slot.page = scan_local(prefix, e.last, limit);
      continue;
    }
    env().reactor().post_blocking(guard.wrap([this, gather, i, e, prefix,
                                              limit, timeout] {
      CmdLine sub("storeScan");
      sub.arg("prefix", prefix);
      sub.arg("cursor", e.last);
      sub.arg("limit", static_cast<std::int64_t>(limit));
      sub.arg("scope", Word{"local"});
      auto reply = control_client().call(
          e.addr, sub, daemon::CallOptions{.timeout = timeout, .retries = 0});
      Slot slot;
      slot.finished = true;
      if (reply.ok() && cmdlang::is_ok(reply.value())) {
        slot.ok = true;
        if (auto vec = reply->get_vector("keys"))
          for (const auto& elem : vec->elements)
            if (elem.is_string() || elem.is_word())
              slot.page.keys.push_back(elem.as_text());
        slot.page.next = reply->get_text("next");
        slot.page.done = reply->get_text("done") == "yes";
      }
      std::scoped_lock lock(gather->mu);
      gather->slots[i] = std::move(slot);
      if (--gather->outstanding == 0) gather->cv.notify_all();
    }));
  }

  std::vector<Slot> slots;
  {
    std::unique_lock lk(gather->mu);
    gather->cv.wait_until(
        lk, steady_clock::now() + timeout + std::chrono::milliseconds(200),
        [&] { return gather->outstanding == 0; });
    slots = gather->slots;
  }

  // Merge in order. A shard whose page is not done may hold further keys
  // just past what it sent, so nothing above the lowest such resume point
  // may be emitted yet.
  std::set<std::string> merged;
  std::optional<std::string> barrier;
  for (const Slot& s : slots) {
    if (!s.ok) continue;
    merged.insert(s.page.keys.begin(), s.page.keys.end());
    if (!s.page.done && (!barrier || s.page.next < *barrier))
      barrier = s.page.next;
  }

  ClusterPage out;
  for (const std::string& k : merged) {
    if (barrier && k > *barrier) break;
    if (out.keys.size() >= limit) break;
    out.keys.push_back(k);
  }

  const std::string front = out.keys.empty() ? "" : out.keys.back();
  bool all_done = true;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    PeerCursor& e = entries[i];
    if (e.exhausted) continue;
    const Slot& s = slots[i];
    if (!s.ok || !s.finished) {
      e.exhausted = true;  // unreachable: dropped for the rest of the scan
      continue;
    }
    if (!out.keys.empty()) {
      if (s.page.done &&
          (s.page.keys.empty() || s.page.keys.back() <= front)) {
        e.exhausted = true;
      } else {
        // Anything this shard sent above the emission front is refetched
        // next page — bounded, duplicate-free waste.
        e.last = front;
        all_done = false;
      }
    } else {
      // Nothing emitted this round: a tombstone-dense shard may still be
      // walking. Advance it past its examined run; shards holding keys
      // above the barrier keep their cursor and re-send next round.
      if (s.page.done && s.page.keys.empty()) {
        e.exhausted = true;
      } else {
        if (!s.page.done) e.last = s.page.next;
        all_done = false;
      }
    }
  }

  out.done = all_done;
  out.next = all_done ? std::string() : encode_scan_cursor(entries);
  return out;
}

std::size_t PersistentStoreDaemon::object_count() const {
  std::scoped_lock lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, record] : objects_)
    if (!record.deleted) ++n;
  return n;
}

std::optional<PersistentStoreDaemon::ObjectRecord>
PersistentStoreDaemon::object(const std::string& key) const {
  std::scoped_lock lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return std::nullopt;
  return it->second;
}

std::int64_t PersistentStoreDaemon::ingest_digest_entry(
    const net::Address& peer, const std::string& entry) {
  auto parts = util::split(entry, '|');
  if (parts.size() != 3) return 0;
  const std::string& key = parts[0];
  const std::uint64_t version = std::strtoull(parts[1].c_str(), nullptr, 10);
  bool newer;
  {
    std::scoped_lock lock(mu_);
    auto it = objects_.find(key);
    newer = it == objects_.end() || it->second.version < version;
  }
  if (!newer) return 0;
  // Sharded clusters: do not hoard keys this replica is not an owner of.
  if (!owns(key)) return 0;
  if (parts[2] == "d") {
    ObjectRecord tomb;
    tomb.version = version;
    tomb.deleted = true;
    apply(key, tomb);
    obs_sync_fetched_->inc();
    return 1;
  }
  CmdLine get("storeGet");
  get.arg("key", key);
  get.arg("scope", Word{"local"});
  auto obj = control_client().call(
      peer, get, daemon::CallOptions{.timeout = std::chrono::milliseconds(500),
                                     .retries = 0});
  if (!obj.ok() || !cmdlang::is_ok(obj.value())) return 0;
  ObjectRecord record;
  record.version = static_cast<std::uint64_t>(obj->get_integer("version"));
  record.data = bytes_of_hex(obj->get_text("data"));
  record.deleted = obj->get_text("deleted") == "yes";
  apply(key, record);
  obs_sync_fetched_->inc();
  return 1;
}

std::int64_t PersistentStoreDaemon::sync_with_peer(const net::Address& peer) {
  std::int64_t fetched = 0;
  std::vector<std::size_t> frontier{1};
  std::vector<std::size_t> divergent_buckets;
  const std::size_t first_leaf = tree_.first_leaf();

  while (!frontier.empty()) {
    std::vector<std::size_t> divergent;
    for (std::size_t chunk = 0; chunk < frontier.size(); chunk += 256) {
      const std::size_t end = std::min(frontier.size(), chunk + 256);
      std::string ids;
      for (std::size_t i = chunk; i < end; ++i) {
        if (!ids.empty()) ids += ' ';
        ids += std::to_string(frontier[i]);
      }
      CmdLine req("storeDigestTree");
      req.arg("nodes", ids);
      auto reply = control_client().call(
          peer, req,
          daemon::CallOptions{.timeout = std::chrono::milliseconds(500),
                              .retries = 0});
      obs_tree_rpcs_->inc();
      if (!reply.ok() || !cmdlang::is_ok(reply.value())) return fetched;
      auto hashes = reply->get_vector("hashes");
      if (!hashes) return fetched;
      std::scoped_lock lock(mu_);
      for (const auto& elem : hashes->elements) {
        if (!elem.is_string() && !elem.is_word()) continue;
        auto parts = util::split(elem.as_text(), '|');
        if (parts.size() != 2) continue;
        const std::size_t id = std::strtoull(parts[0].c_str(), nullptr, 10);
        const std::uint64_t theirs =
            std::strtoull(parts[1].c_str(), nullptr, 10);
        if (tree_.node(id) != theirs) divergent.push_back(id);
      }
    }
    frontier.clear();
    for (std::size_t id : divergent) {
      if (id >= first_leaf) {
        divergent_buckets.push_back(id - first_leaf);
      } else {
        frontier.push_back(2 * id);
        frontier.push_back(2 * id + 1);
      }
    }
  }

  for (std::size_t bucket : divergent_buckets) {
    CmdLine req("storeDigestBucket");
    req.arg("bucket", static_cast<std::int64_t>(bucket));
    auto reply = control_client().call(
        peer, req,
        daemon::CallOptions{.timeout = std::chrono::milliseconds(500),
                            .retries = 0});
    obs_bucket_rpcs_->inc();
    if (!reply.ok() || !cmdlang::is_ok(reply.value())) continue;
    auto entries = reply->get_vector("entries");
    if (!entries) continue;
    for (const auto& elem : entries->elements) {
      if (!elem.is_string() && !elem.is_word()) continue;
      fetched += ingest_digest_entry(peer, elem.as_text());
    }
  }
  return fetched;
}

util::Result<std::int64_t> PersistentStoreDaemon::sync_from_peers() {
  std::vector<net::Address> peers;
  {
    std::scoped_lock lock(mu_);
    peers = peers_;
  }
  std::int64_t fetched = 0;
  for (const net::Address& peer : peers) fetched += sync_with_peer(peer);
  // Anti-entropy applies are logged but lazily synced per entry; one flush
  // at the end of the round makes the whole catch-up durable. A crash
  // before it just means the next round re-fetches the tail.
  std::shared_ptr<DurableLog> dlog;
  {
    std::scoped_lock lock(mu_);
    dlog = dlog_;
  }
  if (dlog) dlog->sync_all();
  return fetched;
}

DurableLog::RecoveryStats PersistentStoreDaemon::last_recovery() const {
  std::scoped_lock lock(mu_);
  return recovery_stats_;
}

util::Result<std::int64_t> PersistentStoreDaemon::compact_now() {
  std::scoped_lock lock(mu_);
  if (!dlog_)
    return util::Error{util::Errc::invalid,
                       "no disk attached (StoreOptions.disk)"};
  // Holding mu_ blocks appenders, so the snapshot is an exact cut: every
  // record in it is ordered before everything the new WAL will hold.
  std::vector<WalRecord> records;
  records.reserve(objects_.size());
  for (const auto& [key, rec] : objects_) {
    WalRecord r;
    r.kind = rec.deleted ? WalRecord::kDelete : WalRecord::kPut;
    r.key = key;
    r.version = rec.version;
    r.data = rec.data;
    records.push_back(std::move(r));
  }
  for (const auto& [peer, keys] : hints_) {
    for (const auto& [key, version] : keys) {
      WalRecord r;
      r.kind = WalRecord::kHint;
      r.key = key;
      r.version = version;
      r.owner = peer.to_string();
      records.push_back(std::move(r));
    }
  }
  if (auto st = dlog_->compact(records); !st.ok()) return st.error();
  ++compactions_;
  obs_compactions_->inc();
  return static_cast<std::int64_t>(records.size());
}

void PersistentStoreDaemon::maybe_compact() {
  std::shared_ptr<DurableLog> dlog;
  {
    std::scoped_lock lock(mu_);
    dlog = dlog_;
  }
  if (!dlog || options_.compact_wal_bytes == 0) return;
  if (dlog->wal_bytes() < options_.compact_wal_bytes) return;
  (void)compact_now();
}

}  // namespace ace::store

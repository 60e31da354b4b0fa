#include "store/persistent_store.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <optional>

#include "daemon/completion.hpp"
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

// A version is a hybrid clock << 8 | replica id, and travels in replies as
// a non-negative `version=` integer. kMaxVersion is the largest one a
// replica holds or hands out: next_version() fails a write rather than
// step past it, so the clock never wraps below a version already held.
// Every version a peer sends is range-checked where it is parsed.
constexpr std::uint64_t kMaxVersion = std::numeric_limits<std::int64_t>::max();

// An all-digit version in range, as replica and digest entries carry it.
std::optional<std::uint64_t> parse_version(std::string_view text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v > kMaxVersion) return std::nullopt;
  return v;
}

// A peer's `storeGet scope=local` reply as a record, or nullopt unless it
// is ok with an in-range version= and even-length hex data=. A
// `storeGetDigest` reply, which has no data=, reads as a record without
// bytes.
std::optional<PersistentStoreDaemon::ObjectRecord> reply_record(
    const util::Result<CmdLine>& reply) {
  if (!reply.ok() || !cmdlang::is_ok(reply.value())) return std::nullopt;
  const std::int64_t version = reply->get_integer("version", -1);
  auto data = decode_hex(reply->get_text("data"));
  if (version < 0 || !data) return std::nullopt;
  return PersistentStoreDaemon::ObjectRecord{
      static_cast<std::uint64_t>(version), std::move(*data),
      reply->get_text("deleted") == "yes"};
}

// A vote a quorum read can count: ok or an authoritative not_found; an ok
// whose version is out of range, or whose data is not even-length hex, is
// no reply at all.
bool countable(const util::Result<CmdLine>& reply) {
  if (reply.ok() && !cmdlang::is_ok(reply.value()))
    return cmdlang::reply_error(reply.value()).code == util::Errc::not_found;
  return reply_record(reply).has_value();
}

// One replicated record on the wire: a netstring-packed field tuple
// [key, version, d|l, hex data, hint owner or ""], nested inside the
// storeReplicateBatch `entries` payload (daemon/wire.hpp pack_batch).
std::string encode_replica_entry(const std::string& key,
                                 const PersistentStoreDaemon::ObjectRecord& r,
                                 const std::string& hint) {
  return daemon::wire::pack_batch({key, std::to_string(r.version),
                                   r.deleted ? "d" : "l",
                                   util::hex_encode(r.data), hint});
}

// One encode_replica_entry record, or nullopt unless it has 5 fields, a
// version parse_version takes, d or l, hex data and a hint empty or
// host:port.
struct ReplicaEntry {
  std::string key;
  PersistentStoreDaemon::ObjectRecord record;
  std::optional<net::Address> hint;
};
std::optional<ReplicaEntry> decode_replica_entry(const std::string& packed) {
  auto f = daemon::wire::unpack_batch(packed);
  if (!f || f->size() != 5) return std::nullopt;
  const std::string &flag = (*f)[2], &hint = (*f)[4];
  ReplicaEntry e{(*f)[0], {}, net::Address::parse(hint)};
  auto version = parse_version((*f)[1]);
  auto data = decode_hex((*f)[3]);
  if (!version || (flag != "d" && flag != "l") || !data ||
      (!hint.empty() && !e.hint))
    return std::nullopt;
  e.record.version = *version;
  e.record.deleted = flag == "d";
  e.record.data = std::move(*data);
  return e;
}

}  // namespace

std::optional<util::Bytes> decode_hex(std::string_view hex) {
  util::Bytes bytes = util::hex_decode(hex);
  if (bytes.size() * 2 != hex.size()) return std::nullopt;
  return bytes;
}

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
      obs_batch_flushes_(&env.metrics().counter("store.batch_flushes")),
      obs_batch_records_(&env.metrics().counter("store.batch_records")),
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
  // The coordinating commands answer through a daemon::Reply: a write
  // from its peers' acks, a read from its votes, so no coordinator parks
  // a thread on a peer. storePut and storeDelete WAL-sync the local apply
  // while the peers' round trip is out, so they run on the strand;
  // storeGet never waits at all, so it runs inline.
  register_command(
      CommandSpec("storePut", "store an object (quorum write)").concurrent_ok()
          .arg(string_arg("key"))
          .arg(string_arg("data")),
      [this](const CmdLine& cmd, const CallerInfo&, daemon::Reply reply) {
        auto data = decode_hex(cmd.get_text("data"));
        if (!data) {
          reply.send(cmdlang::make_error(util::Errc::invalid,
                                         "data is not even-length hex"));
          return;
        }
        write(cmd.get_text("key"),
              {.version = 0, .data = std::move(*data), .deleted = false},
              std::move(reply));
      });

  register_command(
      CommandSpec("storeGet", "fetch an object (quorum read)").concurrent_ok()
          .arg(string_arg("key"))
          .arg(word_arg("scope").optional_arg().choices({"cluster", "local"}))
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&, daemon::Reply reply) {
        const std::string key = cmd.get_text("key");
        if (cmd.get_text("scope") != "local") {
          coordinate_read(key, std::move(reply));
          return;
        }
        CmdLine local =
            cmdlang::make_error(util::Errc::not_found, "no such object");
        {
          std::scoped_lock lock(mu_);
          if (auto it = objects_.find(key); it != objects_.end()) {
            local = cmdlang::make_ok();
            local.arg("data", util::hex_encode(it->second.data));
            local.arg("version",
                      static_cast<std::int64_t>(it->second.version));
            local.arg("deleted", Word{it->second.deleted ? "yes" : "no"});
          }
        }
        reply.send(std::move(local));  // its notifications run unlocked
      });

  // Read-path internal: version/tombstone digest only — no value bytes.
  // This is what lets a quorum read ship one full copy plus R-1 digests.
  // It and the three other replica-local reads below (storeCount and the
  // two Merkle digests) are nonblocking: mu_ is never held across a WAL
  // sync or an RPC.
  register_command(
      CommandSpec("storeGetDigest",
                  "version digest of one object (this replica)").concurrent_ok()
          .arg(string_arg("key"))
          .nonblocking(),
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
      [this](const CmdLine& cmd, const CallerInfo&, daemon::Reply reply) {
        write(cmd.get_text("key"), {.version = 0, .data = {}, .deleted = true},
              std::move(reply));
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

  register_command(CommandSpec("storeCount", "count live objects (this replica)").concurrent_ok().nonblocking(),
                   [this](const CmdLine&, const CallerInfo&) {
                     CmdLine reply = cmdlang::make_ok();
                     reply.arg("count",
                               static_cast<std::int64_t>(object_count()));
                     return reply;
                   });

  register_command(
      CommandSpec("storeDigestTree", "Merkle digest-tree hashes for anti-entropy").concurrent_ok()
          .arg(string_arg("nodes"))
          .nonblocking(),
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
          .arg(integer_arg("bucket"))
          .nonblocking(),
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

  // Peer-internal group commit: one frame carrying many replicated writes
  // (daemon/wire.hpp pack_batch of encode_replica_entry records). An entry
  // with a hint makes this replica a sloppy-quorum stand-in: it keeps the
  // record and owes the named owner a hand-off.
  register_command(
      CommandSpec("storeReplicateBatch", "apply a batch of replicated writes (internal)").concurrent_ok()
          .arg(string_arg("entries")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto records = daemon::wire::unpack_batch(cmd.get_text("entries"));
        if (!records)
          return cmdlang::make_error(util::Errc::semantic_error,
                                     "malformed batch payload");
        // Check every entry before applying any: the ok below acks the
        // whole batch, so a replica never acks a record it dropped.
        std::vector<ReplicaEntry> entries;
        for (const std::string& packed : *records) {
          auto entry = decode_replica_entry(packed);
          if (!entry)
            return cmdlang::make_error(util::Errc::semantic_error,
                                       "malformed batch entry");
          entries.push_back(std::move(*entry));
        }
        std::vector<WalTicket> tickets;
        for (const ReplicaEntry& e : entries) {
          tickets.push_back(apply(e.key, e.record));
          if (e.hint)
            tickets.push_back(record_hint(*e.hint, e.key, e.record.version));
        }
        // One group-commit flush covers the whole batch: the first sync
        // fsyncs everything appended, the rest return immediately.
        for (const WalTicket& t : tickets) DurableLog::sync(t);
        CmdLine reply = cmdlang::make_ok();
        reply.arg("applied", static_cast<std::int64_t>(entries.size()));
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
  outbox_.open([this](const net::Address& peer, std::vector<Replica> batch,
                      daemon::Outbox<Replica>::Settled settled) {
    ship_replicas(peer, std::move(batch), settled);
  });
  // The monitor's first round, at once, is the boot catch-up sync.
  start_duty(
      options_.probe_interval,
      [this, peer_up = std::map<net::Address, bool>{}, first = true]() mutable {
        monitor_round(peer_up, first);
      },
      /*at_once=*/true);
  return util::Status::ok_status();
}

void PersistentStoreDaemon::shutdown_runtime(bool flush) {
  std::shared_ptr<DurableLog> dlog;
  {
    std::scoped_lock lock(mu_);
    dlog = dlog_;
  }
  // Closed first: every record settles, and a read repair still queued
  // leaves its hint here. Command handlers may still be draining; what
  // they replicate from now on fails at once, and a write that misses
  // answers from its fallback on the ops pool, which stop() and crash()
  // wait for with every other reply.
  for (Replica& left : outbox_.close()) left.then(false);
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
// The first round doubles as the boot catch-up sync a rejoining replica
// needs.
void PersistentStoreDaemon::monitor_round(std::map<net::Address, bool>& peer_up,
                                          bool& first) {
  std::vector<net::Address> peers;
  {
    std::scoped_lock lock(mu_);
    peers = peers_;
  }
  // A peer that does not answer its ping within this is down this round.
  constexpr std::chrono::milliseconds kProbeTimeout{150};
  bool rejoined = false;
  std::vector<net::Address> reachable;
  for (const net::Address& peer : peers) {
    auto pong = control_client().call(
        peer, CmdLine("ping"),
        daemon::CallOptions{
            .timeout = kProbeTimeout, .require_ok = true, .retries = 0});
    const bool up = pong.ok();
    if (up) reachable.push_back(peer);
    auto [it, fresh] = peer_up.try_emplace(peer, up);
    if (!fresh) {
      if (!it->second && up) rejoined = true;
      it->second = up;
    }
  }
  if (!running()) return;  // stop()/crash() began: quit between RPCs
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

std::optional<std::uint64_t> PersistentStoreDaemon::next_version() {
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
  const std::uint64_t next = std::max(lamport_ + 1, now);
  if (next > kMaxVersion >> 8) return std::nullopt;  // would not fit
  lamport_ = next;
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
  // Out of range (a corrupt record): refused, so it cannot push the clock
  // past what next_version() can step over.
  if (record.version > kMaxVersion) return {};
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

// Hands a peer's whole backlog to its lane at once and returns only once
// every record has settled: each is then either home or back in the
// ledger, so the snapshot maybe_compact takes next misses no hint.
void PersistentStoreDaemon::drain_hints(const net::Address& peer) {
  std::map<std::string, std::uint64_t> backlog;
  {
    std::scoped_lock lock(mu_);
    auto it = hints_.find(peer);
    if (it == hints_.end() || it->second.empty()) return;
    backlog.swap(it->second);
    hints_.erase(it);
  }
  std::vector<std::pair<std::string, std::uint64_t>> handoffs;
  Shipments shipments;
  for (const auto& [key, version] : backlog) {
    auto record = object(key);
    // Superseded locally; anti-entropy covers the rest.
    if (!record || record->version < version) continue;
    handoffs.emplace_back(key, version);
    shipments.emplace_back(peer, encode_replica_entry(key, *record, ""));
  }
  // No deadline: every record settles, by its batch's reply or timeout or
  // as the outbox closes.
  const std::vector<bool> acked =
      replicate_all(shipments, steady_clock::time_point::max());
  for (std::size_t i = 0; i < handoffs.size(); ++i) {
    const auto& [key, version] = handoffs[i];
    if (acked[i]) {
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

// A coordinated write between its sends and its reply. The local sync and
// every target settle it once, each on its own thread; the last one
// replies, or hands the misses to write_fallback.
struct PersistentStoreDaemon::Write {
  std::string key;
  ObjectRecord record;
  std::vector<net::Address> order;  // the key's ring walk
  std::size_t n = 0;                // preference-list length
  int w_eff = 0;
  bool self_owner = false;
  std::vector<net::Address> targets;
  daemon::Reply reply;
  std::optional<obs::Span> span;  // store.replicate, ended before the reply

  std::mutex mu;  // guards the three below until `outstanding` is 0
  std::vector<char> acked;  // per target
  std::size_t outstanding = 0;
  bool missed = false;

  int acks = 0;  // self, peers and stand-ins, once settled
  int peer_acks = 0;
};

void PersistentStoreDaemon::write(const std::string& key, ObjectRecord record,
                                  daemon::Reply reply) {
  auto version = next_version();
  if (!version) {
    reply.send(
        cmdlang::make_error(util::Errc::conflict, "version clock exhausted"));
    return;
  }
  record.version = *version;
  coordinate_write(key, std::move(record), std::move(reply));
}

void PersistentStoreDaemon::coordinate_write(const std::string& key,
                                             ObjectRecord record,
                                             daemon::Reply reply) {
  auto w = std::make_shared<Write>();
  w->span.emplace(env().metrics(), "store", "replicate");
  w->key = key;
  w->record = std::move(record);
  w->reply = std::move(reply);
  {
    std::scoped_lock lock(mu_);
    w->order = ring_.walk(key);
  }
  const net::Address self = address();
  if (w->order.empty()) w->order.push_back(self);
  w->n = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, options_.replication)),
      w->order.size());
  w->w_eff = options_.write_quorum <= 0
                 ? 0
                 : std::min(options_.write_quorum, static_cast<int>(w->n));
  for (std::size_t i = 0; i < w->n; ++i) {
    if (w->order[i] == self)
      w->self_owner = true;
    else
      w->targets.push_back(w->order[i]);
  }

  WalTicket local;
  if (w->self_owner) local = apply(key, w->record);
  w->acked.assign(w->targets.size(), 0);
  w->outstanding = w->targets.size() + 1;  // + the local sync
  // A write served during start(), before on_start opened the outbox,
  // finds it closed: every target and remote stand-in counts as a miss and
  // the coordinator keeps the hints. Every attempt is awaited even once W
  // acks are in: a miss must be *observed* to leave a hint behind, and
  // that hint is what makes the downed replica converge on heal. The
  // per-peer circuit breaker keeps misses on a dead peer cheap after the
  // first few timeouts.
  const std::string entry = encode_replica_entry(key, w->record, "");
  for (std::size_t i = 0; i < w->targets.size(); ++i)
    replicate(w->targets[i], entry, [this, w, i](bool acked) {
      {
        std::scoped_lock lock(w->mu);
        w->acked[i] = acked;
      }
      write_settled(w);
    });
  // Durability point for the local apply, while the peers' round trip is
  // out: it must be on the platter before the coordinator replies ok.
  // Concurrent coordinators ride one leader fsync (group commit).
  DurableLog::sync(local);
  write_settled(w);
}

void PersistentStoreDaemon::write_settled(const std::shared_ptr<Write>& w) {
  {
    std::scoped_lock lock(w->mu);
    if (--w->outstanding > 0) return;
  }
  for (char acked : w->acked) {
    w->peer_acks += acked ? 1 : 0;
    w->missed = w->missed || !acked;
  }
  w->acks = (w->self_owner ? 1 : 0) + w->peer_acks;
  if (!w->missed) {
    finish_write(*w);
    return;
  }
  // The stand-in hand-off waits on a peer and the hints on the WAL: off
  // this thread, which may be a core worker. A task the reactor drops
  // drops `w`, whose Reply then answers unavailable.
  env().reactor().post_blocking([this, w] { write_fallback(*w); });
}

// Sloppy quorum: each unreachable owner's copy is handed to the next ring
// successor, tagged with the intended owner so the stand-in can push it
// home on heal. When the ring is exhausted (e.g. the 3-node cluster, where
// there is no one left), an owning coordinator keeps a local hint instead
// — targeted anti-entropy for the downed peer.
void PersistentStoreDaemon::write_fallback(Write& w) {
  const net::Address self = address();
  std::vector<WalTicket> tickets;
  std::size_t fallback_index = w.n;
  for (std::size_t i = 0; i < w.targets.size(); ++i) {
    if (w.acked[i]) continue;
    const net::Address& dead = w.targets[i];
    bool handed = false;
    while (fallback_index < w.order.size() && !handed) {
      const net::Address fb = w.order[fallback_index++];
      if (fb == self) {
        tickets.push_back(apply(w.key, w.record));
        tickets.push_back(record_hint(dead, w.key, w.record.version));
        ++w.acks;
        handed = true;
        break;
      }
      const Shipments handoff{
          {fb, encode_replica_entry(w.key, w.record, dead.to_string())}};
      if (replicate_all(handoff,
                        steady_clock::now() + options_.replicate_timeout)[0]) {
        ++w.acks;
        ++w.peer_acks;
        handed = true;
      }
    }
    if (!handed && w.self_owner)
      tickets.push_back(record_hint(dead, w.key, w.record.version));
  }
  // The hints this ack rests on must be on the platter before the reply.
  for (const WalTicket& t : tickets) DurableLog::sync(t);
  finish_write(w);
}

void PersistentStoreDaemon::finish_write(Write& w) {
  obs_replica_acks_->inc(static_cast<std::uint64_t>(w.peer_acks));
  const bool quorum_met = w.w_eff == 0 || w.acks >= w.w_eff;
  if (!quorum_met) obs_quorum_failures_->inc();
  w.span->set_ok(quorum_met && !w.missed);
  w.span.reset();
  if (!quorum_met) {
    w.reply.send(cmdlang::make_error(
        util::Errc::unavailable,
        "write quorum not met (acks=" + std::to_string(w.acks) + ")"));
    return;
  }
  CmdLine reply = cmdlang::make_ok();
  reply.arg("version", static_cast<std::int64_t>(w.record.version));
  reply.arg("acks", static_cast<std::int64_t>(w.acks));
  w.reply.send(std::move(reply));  // last: stop() may return once it is out
}

// A quorum read between its sends and its reply.
struct PersistentStoreDaemon::Read {
  struct Vote {
    bool replied = false;  // countable: ok or authoritative not_found
    bool has = false;      // holds a record (maybe a tombstone)
    bool full = false;     // record.data is populated
    ObjectRecord record;
  };
  std::string key;
  std::vector<net::Address> prefs;
  bool self_owner = false;
  std::vector<Vote> votes;          // one per preference-list replica
  std::vector<std::size_t> voter;   // voter[k]: request k's vote
  ObjectRecord winner;
  daemon::Reply reply;
};

// Parallel digest read: one full value (from this replica when it owns
// the key, else from the first listed owner) plus version digests from
// every other preference-list replica, all requests sent at once on the
// pipelined channels by one call_all, in its callback form. The votes are
// tallied once R countable answers are in, not the whole fan-out; if a
// digest outvotes the full copy, the newest value is fetched from one of
// its holders before replying, and any replica observed stale or absent
// is repaired off the reply path. Nothing here waits: the reply goes out
// from the thread that settles the votes.
void PersistentStoreDaemon::coordinate_read(const std::string& key,
                                            daemon::Reply reply) {
  auto read = std::make_shared<Read>();
  read->key = key;
  {
    std::scoped_lock lock(mu_);
    read->prefs = ring_.preference_list(
        key, static_cast<std::size_t>(std::max(1, options_.replication)));
  }
  std::vector<net::Address>& prefs = read->prefs;
  const net::Address self = address();
  if (prefs.empty()) prefs.push_back(self);
  const int r_eff = std::max(
      1, std::min(options_.read_quorum, static_cast<int>(prefs.size())));

  // The full-value target; everyone else ships a digest.
  std::size_t full_index = 0;
  for (std::size_t i = 0; i < prefs.size(); ++i) {
    if (prefs[i] == self) {
      full_index = i;
      read->self_owner = true;
      break;
    }
  }
  const bool self_owner = read->self_owner;

  // Fast path: an owning coordinator's own copy satisfies R=1 without any
  // fan-out.
  if (r_eff == 1 && self_owner) {
    CmdLine found =
        cmdlang::make_error(util::Errc::not_found, "no such object");
    {
      std::scoped_lock lock(mu_);
      auto it = objects_.find(key);
      if (it != objects_.end() && !it->second.deleted) {
        found = cmdlang::make_ok();
        found.arg("data", util::hex_encode(it->second.data));
        found.arg("version", static_cast<std::int64_t>(it->second.version));
      }
    }
    reply.send(std::move(found));
    return;
  }

  obs_digest_reads_->inc();
  read->reply = std::move(reply);
  read->votes.resize(prefs.size());

  // The local vote is answered inline under one lock scope — an owner
  // that lacks the key is a countable "authoritative absent".
  if (self_owner) {
    Read::Vote& v = read->votes[full_index];
    std::scoped_lock lock(mu_);
    v.replied = true;
    auto it = objects_.find(key);
    if (it != objects_.end()) {
      v.has = v.full = true;
      v.record = it->second;
    }
  }

  // One request per remote replica; voter[k] is request k's vote.
  std::vector<daemon::AceClient::Request> requests;
  for (std::size_t i = 0; i < prefs.size(); ++i) {
    if (self_owner && i == full_index) continue;
    const bool want_full = !self_owner && i == full_index;
    CmdLine sub(want_full ? "storeGet" : "storeGetDigest");
    sub.arg("key", key);
    if (want_full) sub.arg("scope", Word{"local"});
    requests.push_back({prefs[i], std::move(sub)});
    read->voter.push_back(i);
  }
  // Quorum: R countable replies with the full-value attempt settled.
  control_client().call_all(
      requests, options_.replicate_timeout,
      [self_owner, r_eff](const daemon::AceClient::Replies& rs) {
        if (!self_owner && !rs[0]) return false;
        int replied = self_owner ? 1 : 0;
        for (const auto& r : rs)
          if (r && countable(*r)) ++replied;
        return replied >= r_eff;
      },
      [this, read](daemon::AceClient::Replies results) {
        read_voted(read, std::move(results));
      });
}

void PersistentStoreDaemon::read_voted(const std::shared_ptr<Read>& read,
                                       daemon::AceClient::Replies results) {
  const int r_eff = std::max(1, std::min(options_.read_quorum,
                                         static_cast<int>(read->prefs.size())));
  for (std::size_t k = 0; k < results.size(); ++k) {
    // Not awaited, or not countable.
    if (!results[k] || !countable(*results[k])) continue;
    Read::Vote& v = read->votes[read->voter[k]];
    v.replied = true;
    auto record = reply_record(*results[k]);
    if (!record) continue;  // authoritative absence
    v.has = true;
    v.full = !read->self_owner && k == 0;
    v.record = std::move(*record);
  }

  int replies = 0;
  std::optional<std::size_t> best;  // newest record among the votes
  for (std::size_t i = 0; i < read->votes.size(); ++i) {
    const Read::Vote& v = read->votes[i];
    if (v.replied) ++replies;
    if (v.has && (!best || v.record.version > read->votes[*best].record.version))
      best = i;
  }
  if (replies < r_eff) {
    obs_read_unavailable_->inc();
    read->reply.send(cmdlang::make_error(
        util::Errc::unavailable,
        "read quorum not met (replies=" + std::to_string(replies) +
            " R=" + std::to_string(r_eff) + ")"));
    return;
  }
  if (!best) {
    read->reply.send(
        cmdlang::make_error(util::Errc::not_found, "no such object"));
    return;
  }

  read->winner = read->votes[*best].record;
  if (!read->votes[*best].full) {
    // The full-value copy was not the newest (or did not answer): the
    // digests disagreed. A live winner needs its bytes fetched from one
    // of the replicas that voted the newest version.
    obs_digest_mismatches_->inc();
    if (!read->winner.deleted) {
      materialize(read, 0);
      return;
    }
  }
  finish_read(*read);
}

// Fetches the winner's bytes from the first holder at or after `from`
// that voted its version, trying the next one if that fails.
void PersistentStoreDaemon::materialize(const std::shared_ptr<Read>& read,
                                        std::size_t from) {
  std::size_t i = from;
  while (i < read->votes.size() &&
         (!read->votes[i].has ||
          read->votes[i].record.version != read->winner.version))
    ++i;
  if (i == read->votes.size()) {
    // Never reply with a value older than the newest version observed:
    // the client's failover can try another coordinator instead.
    obs_read_unavailable_->inc();
    read->reply.send(cmdlang::make_error(util::Errc::unavailable,
                                         "newest version unreachable"));
    return;
  }
  CmdLine sub("storeGet");
  sub.arg("key", read->key);
  sub.arg("scope", Word{"local"});
  const daemon::AceClient::Request request{read->prefs[i], std::move(sub)};
  control_client().call_all(
      {&request, 1}, options_.replicate_timeout, {},
      [this, read, i](daemon::AceClient::Replies results) {
        auto fetched = reply_record(*results.front());
        if (!fetched || fetched->version < read->winner.version) {
          materialize(read, i + 1);
          return;
        }
        read->winner = std::move(*fetched);
        finish_read(*read);
      });
}

// Read repair, then the reply: every replica observed stale or absent
// converges on the winner without waiting for Merkle anti-entropy.
void PersistentStoreDaemon::finish_read(Read& read) {
  const net::Address self = address();
  std::vector<net::Address> stale;
  bool self_stale = false;
  for (std::size_t i = 0; i < read.votes.size(); ++i) {
    const Read::Vote& v = read.votes[i];
    if (!v.replied) continue;  // unreachable: hints/anti-entropy
    if (v.has && v.record.version >= read.winner.version) continue;
    if (read.prefs[i] == self)
      self_stale = true;
    else
      stale.push_back(read.prefs[i]);
  }
  if (self_stale) {
    // Inline and lazily synced: LWW makes a crash-replayed repair a no-op,
    // so the reply need not wait on the fsync.
    (void)apply(read.key, read.winner);
  }
  if (!stale.empty()) schedule_read_repair(read.key, read.winner, stale);

  if (read.winner.deleted) {
    read.reply.send(
        cmdlang::make_error(util::Errc::not_found, "no such object"));
    return;
  }
  CmdLine reply = cmdlang::make_ok();
  reply.arg("data", util::hex_encode(read.winner.data));
  reply.arg("version", static_cast<std::int64_t>(read.winner.version));
  read.reply.send(std::move(reply));
}

void PersistentStoreDaemon::schedule_read_repair(
    const std::string& key, const ObjectRecord& winner,
    const std::vector<net::Address>& stale) {
  const std::string entry = encode_replica_entry(key, winner, "");
  for (const net::Address& peer : stale)
    replicate(peer, entry,
              [this, peer, key, version = winner.version](bool acked) {
                if (acked) {
                  obs_read_repairs_->inc();
                  return;
                }
                // The repair missed; leave a hinted-handoff obligation so
                // the monitor pushes it home when the peer is reachable
                // again. Logged but lazily synced, since this may run on a
                // core worker: a hint lost to a crash leaves the peer to
                // anti-entropy.
                (void)record_hint(peer, key, version);
              });
}

void PersistentStoreDaemon::replicate(const net::Address& peer,
                                      std::string entry,
                                      std::function<void(bool)> then) {
  Replica replica{std::move(entry), std::move(then)};
  // A closed outbox leaves the record with us: it settles as a miss.
  if (!outbox_.push(peer, std::move(replica))) replica.then(false);
}

std::vector<bool> PersistentStoreDaemon::replicate_all(
    const Shipments& shipments, steady_clock::time_point deadline) {
  net::expect_may_block("PersistentStoreDaemon::replicate_all");
  using Acks = daemon::Completion<bool>;
  auto acks = std::make_shared<Acks>(shipments.size());
  for (std::size_t i = 0; i < shipments.size(); ++i)
    replicate(shipments[i].first, shipments[i].second,
              [acks, i](bool acked) { acks->complete(i, acked); });
  acks->wait_until(deadline, Acks::all_settled);
  std::vector<bool> acked;
  for (const std::optional<bool>& settled : acks->take())
    acked.push_back(settled.value_or(false));
  return acked;
}

// A batch lands whole (the peer applies every record; LWW apply cannot
// fail per record) or fails whole (transport error or timeout), so one
// reply settles every record in it, on the thread that settles the call.
void PersistentStoreDaemon::ship_replicas(
    const net::Address& peer, std::vector<Replica> batch,
    daemon::Outbox<Replica>::Settled settled) {
  std::vector<std::string> entries;
  entries.reserve(batch.size());
  for (Replica& r : batch) entries.push_back(std::move(r.entry));
  CmdLine cmd("storeReplicateBatch");
  cmd.arg("entries", daemon::wire::pack_batch(entries));
  const daemon::AceClient::Request request{peer, std::move(cmd)};
  control_client().call_all(
      {&request, 1}, options_.replicate_timeout, {},
      [this, batch = std::move(batch),
       settled](daemon::AceClient::Replies replies) {
        const util::Result<CmdLine>& reply = *replies.front();
        const bool acked = reply.ok() && cmdlang::is_ok(reply.value());
        obs_batch_flushes_->inc();
        obs_batch_records_->inc(batch.size());
        for (const Replica& r : batch) r.then(acked);
        settled();
      });
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
// answered without an RPC, the rest sent at once by one call_all), the
// coordinator merges them in order and only emits keys at or below the
// lowest point every still-active shard has been scanned to (the
// "barrier"), so no key can later arrive behind the emission front. The
// cursor blob records, per peer, where to resume — which makes the cursor
// resumable through any coordinator. Unreachable peers are dropped from
// the remainder of the scan, best effort.
util::Result<PersistentStoreDaemon::ClusterPage>
PersistentStoreDaemon::scan_cluster(const std::string& prefix,
                                    const std::string& cursor_blob,
                                    std::size_t limit) {
  const net::Address self = address();
  std::vector<PeerCursor> entries;
  if (cursor_blob.empty()) {
    std::scoped_lock lock(mu_);
    entries.push_back(PeerCursor{self, false, ""});
    for (const net::Address& peer : peers_)
      entries.push_back(PeerCursor{peer, false, ""});
  } else {
    auto parsed = parse_scan_cursor(cursor_blob);
    if (!parsed)
      return util::Error{util::Errc::semantic_error, "malformed scan cursor"};
    entries = std::move(*parsed);
  }

  // One page per active shard; nullopt for a shard that did not answer.
  std::vector<std::optional<ScanPage>> pages(entries.size());
  std::vector<daemon::AceClient::Request> requests;
  std::vector<std::size_t> shard;  // shard[k]: request k's entry
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const PeerCursor& e = entries[i];
    if (e.exhausted) {
      pages[i].emplace().done = true;
    } else if (e.addr == self) {
      pages[i] = scan_local(prefix, e.last, limit);
    } else {
      CmdLine sub("storeScan");
      sub.arg("prefix", prefix);
      sub.arg("cursor", e.last);
      sub.arg("limit", static_cast<std::int64_t>(limit));
      sub.arg("scope", Word{"local"});
      requests.push_back({e.addr, std::move(sub)});
      shard.push_back(i);
    }
  }
  const auto replies =
      control_client().call_all(requests, options_.replicate_timeout);
  for (std::size_t k = 0; k < replies.size(); ++k) {
    const util::Result<CmdLine>& reply = *replies[k];
    if (!reply.ok() || !cmdlang::is_ok(reply.value())) continue;
    ScanPage& page = pages[shard[k]].emplace();
    page.keys = reply->get_strings("keys");
    page.next = reply->get_text("next");
    page.done = reply->get_text("done") == "yes";
  }

  // Merge in order. A shard whose page is not done may hold further keys
  // just past what it sent, so nothing above the lowest such resume point
  // may be emitted yet.
  std::set<std::string> merged;
  std::optional<std::string> barrier;
  for (const auto& page : pages) {
    if (!page) continue;
    merged.insert(page->keys.begin(), page->keys.end());
    if (!page->done && (!barrier || page->next < *barrier))
      barrier = page->next;
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
    if (!pages[i]) {
      e.exhausted = true;  // unreachable: dropped for the rest of the scan
      continue;
    }
    const ScanPage& page = *pages[i];
    if (!out.keys.empty()) {
      if (page.done && (page.keys.empty() || page.keys.back() <= front)) {
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
      if (page.done && page.keys.empty()) {
        e.exhausted = true;
      } else {
        if (!page.done) e.last = page.next;
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
  const auto version = parse_version(parts[1]);
  if (!version) return 0;
  bool newer;
  {
    std::scoped_lock lock(mu_);
    auto it = objects_.find(key);
    newer = it == objects_.end() || it->second.version < *version;
  }
  if (!newer) return 0;
  // Sharded clusters: do not hoard keys this replica is not an owner of.
  if (!owns(key)) return 0;
  if (parts[2] == "d") {
    ObjectRecord tomb;
    tomb.version = *version;
    tomb.deleted = true;
    apply(key, tomb);
    obs_sync_fetched_->inc();
    return 1;
  }
  CmdLine get("storeGet");
  get.arg("key", key);
  get.arg("scope", Word{"local"});
  auto record = reply_record(control_client().call(
      peer, get, daemon::CallOptions{.timeout = std::chrono::milliseconds(500),
                                     .retries = 0}));
  if (!record) return 0;  // no reply from this peer
  apply(key, *record);
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
      // Only ids this request names are descended into, each once: a peer
      // cannot steer the walk (or keep it from ending).
      std::set<std::size_t> asked(frontier.begin() + chunk,
                                  frontier.begin() + end);
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
      // No hashes at all ends the walk; an empty list only this chunk.
      const cmdlang::Value* hashes = reply->find("hashes");
      if (!hashes || !hashes->is_vector()) return fetched;
      std::scoped_lock lock(mu_);
      for (const std::string& hash : reply->get_strings("hashes")) {
        auto parts = util::split(hash, '|');
        if (parts.size() != 2) continue;
        const std::size_t id = std::strtoull(parts[0].c_str(), nullptr, 10);
        if (asked.erase(id) == 0) continue;
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
    for (const std::string& entry : reply->get_strings("entries"))
      fetched += ingest_digest_entry(peer, entry);
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

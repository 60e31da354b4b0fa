// E16 — Scaled persistent store: sharding, quorum replication, Merkle
// anti-entropy, group commit (supersedes E9's resync and throughput
// numbers; see EXPERIMENTS.md).
//
// Measures the four claims of the scaled design:
//   * E16a sharding: a >N cluster spreads the namespace, each key keeps
//     exactly N copies on its ring preference list,
//   * E16b Merkle anti-entropy: resync cost is ~flat in total store size
//     for fixed divergence,
//   * E16c quorum ablation: write latency vs W,
//   * E16d group commit: concurrent replicated-write throughput against
//     the E9e 9.4k writes/s baseline,
//   * E16e chaos torture: acked-write durability under W=2 with replicas
//     crashing and restarting mid-storm.
//
// Plus the read-path experiments (E20, see EXPERIMENTS.md):
//   * E20a digest reads: read latency vs R with the parallel digest
//     fan-out, and read repair converging a stale replica,
//   * E20b paginated scans: storeScan page streaming vs a full
//     StoreClient::list() at growing key counts, reply size bounded by the
//     limit.
//
// `--smoke` runs a seconds-scale subset (used by ci.sh bench-smoke) and
// still exports `bench_store.metrics.json` for counter validation.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <thread>

#include "bench_common.hpp"
#include "chaos/chaos.hpp"
#include "store/persistent_store.hpp"
#include "store/store_client.hpp"

using namespace ace;
using namespace std::chrono_literals;

namespace {

struct Cluster {
  std::unique_ptr<testenv::AceTestEnv> deployment;
  std::vector<std::unique_ptr<daemon::DaemonHost>> hosts;
  std::vector<std::shared_ptr<io::SimDisk>> disks;  // durable clusters only
  std::vector<store::PersistentStoreDaemon*> replicas;
  std::vector<net::Address> addresses;
  std::unique_ptr<daemon::AceClient> client;
};

Cluster make_cluster(int replica_count, std::uint64_t seed,
                     store::StoreOptions options = {}, bool durable = false) {
  Cluster c;
  c.deployment = std::make_unique<testenv::AceTestEnv>(seed);
  if (!c.deployment->start().ok()) return c;
  for (int i = 0; i < replica_count; ++i) {
    c.hosts.push_back(std::make_unique<daemon::DaemonHost>(
        c.deployment->env, "store" + std::to_string(i + 1)));
    daemon::DaemonConfig cfg;
    cfg.name = "store" + std::to_string(i + 1);
    cfg.room = "machine-room";
    cfg.port = 6000;
    if (durable) {
      c.disks.push_back(std::make_shared<io::SimDisk>(seed * 10 + i));
      options.disk = c.disks.back();
    }
    c.replicas.push_back(&c.hosts.back()->add_daemon<store::PersistentStoreDaemon>(
        cfg, i + 1, options));
  }
  for (int i = 0; i < replica_count; ++i) {
    std::vector<net::Address> peers;
    for (int j = 0; j < replica_count; ++j)
      if (j != i) peers.push_back(c.replicas[j]->address());
    c.replicas[i]->set_peers(peers);
    (void)c.replicas[i]->start();
    c.addresses.push_back(c.replicas[i]->address());
  }
  c.client = c.deployment->make_client("app", "svc/app");
  return c;
}

// ------------------------------------------------------------------- E16a
void shard_layout(bool smoke) {
  bench::header("E16a", "sharding: 5 replicas, N=3 preference lists");
  store::StoreOptions opts;
  opts.replication = 3;
  Cluster c = make_cluster(5, 160, opts);
  if (!c.client) return;
  store::StoreClient store(*c.client, c.addresses, 3);

  const int keys = smoke ? 60 : 200;
  util::Bytes payload(64, 0x42);
  for (int i = 0; i < keys; ++i)
    if (!store.put("shard/k" + std::to_string(i), payload).ok()) return;

  int copies = 0, misplaced = 0;
  for (int i = 0; i < keys; ++i) {
    const std::string key = "shard/k" + std::to_string(i);
    auto owners = c.replicas[0]->ring().preference_list(key, 3);
    for (std::size_t r = 0; r < c.replicas.size(); ++r) {
      const bool holds = c.replicas[r]->object(key).has_value();
      const bool owns = std::find(owners.begin(), owners.end(),
                                  c.addresses[r]) != owners.end();
      if (holds) ++copies;
      if (holds != owns) ++misplaced;
    }
  }
  std::printf("  %d keys -> %d copies (expect %d), %d misplaced\n", keys,
              copies, keys * 3, misplaced);
  std::printf("  per-replica live objects:");
  for (auto* r : c.replicas)
    std::printf(" %zu", r->object_count());
  std::printf("\n  (shape: ~3/5 of the keyspace per replica, not full "
              "copies everywhere)\n");
}

// ------------------------------------------------------------------- E16b
struct ResyncResult {
  double ms = 0;
  long long fetched = 0;
  std::uint64_t tree_rpcs = 0;
  std::uint64_t bucket_rpcs = 0;
};

ResyncResult run_resync(int total_objects, int divergent,
                        obs::MetricsSnapshot* snapshot_out) {
  Cluster c = make_cluster(3, 161);
  ResyncResult r;
  if (!c.client) return r;
  store::StoreClient store(*c.client, c.addresses);
  util::Bytes payload(128, 0x5a);
  for (int i = 0; i < total_objects; ++i)
    if (!store.put("base/" + std::to_string(i), payload).ok()) return r;

  // Fixed divergence: replica 3 misses `divergent` writes, then resyncs.
  // fail() crashes the daemon too, so the resync below is the only
  // anti-entropy running — no monitor thread races the measurement.
  c.hosts[2]->fail();
  for (int i = 0; i < divergent; ++i)
    (void)store.put("miss/" + std::to_string(i), payload);
  c.hosts[2]->restore();

  auto& metrics = c.deployment->env.metrics();
  const auto tree0 = metrics.counter("store.sync_tree_rpcs").value();
  const auto bucket0 = metrics.counter("store.sync_bucket_rpcs").value();
  auto start = bench::Clock::now();
  auto fetched = c.replicas[2]->sync_from_peers();
  r.ms = bench::us_since(start) / 1000.0;
  if (fetched.ok()) r.fetched = fetched.value();
  r.tree_rpcs = metrics.counter("store.sync_tree_rpcs").value() - tree0;
  r.bucket_rpcs = metrics.counter("store.sync_bucket_rpcs").value() - bucket0;
  if (snapshot_out) *snapshot_out = metrics.snapshot();
  return r;
}

void merkle_resync(bool smoke, obs::MetricsSnapshot* exported) {
  bench::header("E16b", "anti-entropy: Merkle tree, fixed divergence");
  std::printf("%10s %12s %10s %10s %10s\n", "objects", "resync_ms",
              "fetched", "tree_rpcs", "bkt_rpcs");
  const std::vector<int> sizes =
      smoke ? std::vector<int>{400} : std::vector<int>{500, 2000, 8000};
  const int divergent = 64;
  for (int n : sizes) {
    obs::MetricsSnapshot snap;
    ResyncResult m = run_resync(n, divergent, &snap);
    *exported = snap;  // largest run's counters back the claims
    std::printf("%10d %12.1f %10lld %10llu %10llu\n", n, m.ms, m.fetched,
                static_cast<unsigned long long>(m.tree_rpcs),
                static_cast<unsigned long long>(m.bucket_rpcs));
  }
  std::printf("  (shape: resync ~flat in store size — O(log buckets "
              "+ divergence))\n");
}

// ------------------------------------------------------------------- E16c
void quorum_ablation(bool smoke) {
  bench::header("E16c", "write latency vs write quorum W (3 replicas)");
  std::printf("%6s %14s %14s %10s\n", "W", "write_us(p50)", "write_us(p99)",
              "acks");
  const int writes = smoke ? 100 : 300;
  for (int w : {0, 1, 2, 3}) {
    store::StoreOptions opts;
    opts.write_quorum = w;
    Cluster c = make_cluster(3, 162, opts);
    if (!c.client) return;
    store::StoreClient store(*c.client, c.addresses);
    util::Bytes payload(256, 0xab);
    (void)store.put("warm", payload);
    bench::Series us;
    for (int i = 0; i < writes; ++i) {
      auto start = bench::Clock::now();
      if (!store.put("q/" + std::to_string(i % 50), payload).ok()) return;
      us.add(bench::us_since(start));
    }
    const auto acks =
        c.deployment->env.metrics().counter("store.replica_acks").value();
    std::printf("%6d %14.1f %14.1f %10llu\n", w, us.percentile(50),
                us.percentile(99), static_cast<unsigned long long>(acks));
  }
  std::printf("  (shape: W changes the failure contract, not the happy "
              "path — every attempt is awaited so hints are observed)\n");
}

// ------------------------------------------------------------------- E16d
// Writers injecting storePut through execute() — the same concurrency the
// wire sees for concurrent_ok commands, minus the client-RPC overhead that
// dominates wall-clock on small hosts. This isolates the replication
// engine: coordinate_write + preference-list fan-out.
double run_engine_storm(Cluster& c, int writers,
                        std::chrono::milliseconds duration) {
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(writers), 0);
  util::Bytes payload(256, 0x7e);
  const std::string hex = store::hex_of(payload);
  daemon::CallerInfo caller;
  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      auto* coordinator = c.replicas[static_cast<std::size_t>(t) %
                                     c.replicas.size()];
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        cmdlang::CmdLine put("storePut");
        put.arg("key",
                "w" + std::to_string(t) + "/" + std::to_string(i++ % 100))
            .arg("data", hex);
        if (cmdlang::is_ok(coordinator->execute(put, caller)))
          counts[static_cast<std::size_t>(t)]++;
      }
    });
  }
  std::this_thread::sleep_for(duration);
  stop.store(true);
  for (auto& th : threads) th.join();
  std::uint64_t total = 0;
  for (auto n : counts) total += n;
  return static_cast<double>(total) /
         std::chrono::duration<double>(duration).count();
}

// End-to-end contrast: writers going through StoreClient over the wire.
double run_wire_storm(Cluster& c, int writers,
                      std::chrono::milliseconds duration) {
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<daemon::AceClient>> clients;
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(writers), 0);
  for (int t = 0; t < writers; ++t)
    clients.push_back(c.deployment->make_client("app" + std::to_string(t),
                                                "svc/app" + std::to_string(t)));
  util::Bytes payload(256, 0x7e);
  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      store::StoreClient store(*clients[static_cast<std::size_t>(t)],
                               c.addresses);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key =
            "w" + std::to_string(t) + "/" + std::to_string(i++ % 100);
        if (store.put(key, payload).ok())
          counts[static_cast<std::size_t>(t)]++;
      }
    });
  }
  std::this_thread::sleep_for(duration);
  stop.store(true);
  for (auto& th : threads) th.join();
  std::uint64_t total = 0;
  for (auto n : counts) total += n;
  return static_cast<double>(total) /
         std::chrono::duration<double>(duration).count();
}

void group_commit_throughput(bool smoke) {
  bench::header("E16d",
                "group commit: concurrent replicated-write throughput");
  std::printf("%10s %10s %14s %16s\n", "harness", "writers", "writes/s",
              "records/flush");
  const auto duration = smoke ? 500ms : 1500ms;
  const int engine_writers = 28, wire_writers = 6;
  double engine_rate = 0;
  {
    Cluster c = make_cluster(3, 163);
    if (!c.client) return;
    engine_rate = run_engine_storm(c, engine_writers, duration);
    auto& m = c.deployment->env.metrics();
    const double flushes =
        static_cast<double>(m.counter("store.batch_flushes").value());
    const double records =
        static_cast<double>(m.counter("store.batch_records").value());
    std::printf("%10s %10d %14.0f %16.1f\n", "engine", engine_writers,
                engine_rate, flushes > 0 ? records / flushes : 0.0);
  }
  {
    Cluster c = make_cluster(3, 163);
    if (!c.client) return;
    std::printf("%10s %10d %14.0f %16s\n", "wire", wire_writers,
                run_wire_storm(c, wire_writers, duration), "-");
  }
  std::printf("  group commit: %.1fx the E9e wire baseline (~9.4k "
              "writes/s)\n",
              engine_rate / 9400.0);
}

// ------------------------------------------------------------------- E16e
void chaos_durability(bool smoke) {
  bench::header("E16e",
                "acked-write durability under chaos (W=2, crash/restart)");
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.read_quorum = 2;
  opts.probe_interval = 100ms;
  Cluster c = make_cluster(3, 164, opts);
  if (!c.client) return;
  store::StoreClient store(*c.client, c.addresses);

  chaos::ScheduleParams params;
  params.duration = smoke ? 1200ms : 3000ms;
  params.mean_interval = 300ms;
  params.min_fault = 200ms;
  params.max_fault = 700ms;
  params.service_cooldown = 300ms;
  params.weight_service_crash = 1;
  params.weight_link_down = 0;
  params.weight_host_isolate = 0;
  params.weight_latency_spike = 0;
  params.weight_loss_burst = 0;
  params.max_concurrent_crashes = 1;  // keep a W=2 majority alive
  chaos::Targets targets;
  targets.services = {"store1", "store2", "store3"};
  targets.hosts = {"store1", "store2", "store3"};
  auto schedule =
      chaos::generate_schedule(chaos::seed_from_env(0x16e), params, targets);

  std::mutex acked_mu;
  std::map<std::string, int> acked;
  std::atomic<bool> stop{false};
  std::atomic<int> attempts{0};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      const std::string key = "t/" + std::to_string(i % 64);
      attempts.fetch_add(1);
      if (store.put(key, util::to_bytes("v" + std::to_string(i))).ok()) {
        std::scoped_lock lock(acked_mu);
        acked[key] = i;
      }
      ++i;
      std::this_thread::sleep_for(1ms);
    }
  });

  int crashes = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& e : schedule.events) {
    std::this_thread::sleep_until(start + e.at);
    if (e.kind == chaos::FaultKind::service_crash) {
      c.replicas[e.a == "store1" ? 0 : e.a == "store2" ? 1 : 2]->crash();
      ++crashes;
    } else if (e.kind == chaos::FaultKind::service_restart) {
      (void)c.replicas[e.a == "store1" ? 0 : e.a == "store2" ? 1 : 2]->start();
    }
  }
  std::this_thread::sleep_until(start + schedule.duration);
  stop.store(true);
  writer.join();

  auto total_hints = [&] {
    return c.replicas[0]->hints_pending() + c.replicas[1]->hints_pending() +
           c.replicas[2]->hints_pending();
  };
  bool settled = false;
  for (int i = 0; i < 1000 && !settled; ++i) {
    settled = total_hints() == 0 &&
              c.replicas[0]->merkle_root() == c.replicas[1]->merkle_root() &&
              c.replicas[1]->merkle_root() == c.replicas[2]->merkle_root();
    if (!settled) std::this_thread::sleep_for(10ms);
  }

  // Durability contract (monotone LWW): every acked write reads back at
  // its own value or a later one — never older, never absent.
  int checked = 0, survived = 0;
  for (const auto& [key, seq] : acked) {
    auto got = store.get(key);
    ++checked;
    if (!got.ok()) continue;
    const std::string text = util::to_string(got.value());
    if (text.rfind("v", 0) == 0 && std::stoi(text.substr(1)) >= seq)
      ++survived;
  }
  std::printf("  %d crash events; %d write attempts, %zu keys acked\n",
              crashes, attempts.load(), acked.size());
  std::printf("  converged: %s; acked writes surviving: %d/%d (%.1f%%)\n",
              settled ? "yes" : "no", survived, checked,
              checked ? 100.0 * survived / checked : 0.0);
}

// ------------------------------------------------------------------- E19a
struct RecoveryRun {
  double recover_ms = 0;
  std::uint64_t snap_records = 0;
  std::uint64_t wal_records = 0;
  double resync_ms = 0;
  long long fetched = 0;
};

RecoveryRun run_restart_recovery(int total_objects, int divergent,
                                 obs::MetricsSnapshot* snapshot_out = nullptr) {
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.read_quorum = 2;
  opts.probe_interval = 5s;    // keep the monitor out of the measurements
  opts.compact_wal_bytes = 0;  // compaction is explicit below
  Cluster c = make_cluster(3, 190, opts, /*durable=*/true);
  RecoveryRun r;
  if (!c.client) return r;
  store::StoreClient store(*c.client, c.addresses);
  util::Bytes payload(128, 0x5a);

  // First half, snapshot replica 3, second half: recovery must stitch the
  // snapshot and the post-snapshot WAL back together.
  for (int i = 0; i < total_objects / 2; ++i)
    if (!store.put("base/" + std::to_string(i), payload).ok()) return r;
  if (!c.replicas[2]->compact_now().ok()) return r;
  for (int i = total_objects / 2; i < total_objects; ++i)
    if (!store.put("base/" + std::to_string(i), payload).ok()) return r;

  // Machine power loss on replica 3; the survivors take `divergent` writes
  // it misses — the tail anti-entropy must cover after recovery.
  c.replicas[2]->crash();
  c.disks[2]->crash();
  for (int i = 0; i < divergent; ++i)
    (void)store.put("miss/" + std::to_string(i), payload);

  auto start = bench::Clock::now();
  if (!c.replicas[2]->start().ok()) return r;
  r.recover_ms = bench::us_since(start) / 1000.0;
  auto rs = c.replicas[2]->last_recovery();
  r.snap_records = rs.snapshot_records;
  r.wal_records = rs.wal_records;

  start = bench::Clock::now();
  auto fetched = c.replicas[2]->sync_from_peers();
  r.resync_ms = bench::us_since(start) / 1000.0;
  if (fetched.ok()) r.fetched = fetched.value();
  if (snapshot_out) *snapshot_out = c.deployment->env.metrics().snapshot();
  return r;
}

void restart_recovery(bool smoke, obs::MetricsSnapshot* exported) {
  bench::header("E19a",
                "restart recovery: snapshot + WAL replay, then tail resync");
  std::printf("%10s %12s %10s %10s %11s %8s\n", "objects", "recover_ms",
              "snap_rec", "wal_rec", "resync_ms", "fetched");
  const std::vector<int> sizes =
      smoke ? std::vector<int>{500} : std::vector<int>{1000, 8000, 32000};
  const int divergent = 64;
  for (int n : sizes) {
    obs::MetricsSnapshot snap;
    RecoveryRun r = run_restart_recovery(n, divergent, &snap);
    *exported = snap;  // largest durable run's counters back the claims
    std::printf("%10d %12.1f %10llu %10llu %11.1f %8lld\n", n, r.recover_ms,
                static_cast<unsigned long long>(r.snap_records),
                static_cast<unsigned long long>(r.wal_records), r.resync_ms,
                r.fetched);
  }
  std::printf("  (shape: recovery replay grows with store size; the "
              "post-restart Merkle resync stays ~flat — it covers only the "
              "missed-write tail, not the recovered bulk)\n");
}

// ------------------------------------------------------------------- E19b
void chaos_disk_durability(bool smoke) {
  bench::header("E19b",
                "durability under combined crash + disk-fault chaos (W=2)");
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.read_quorum = 2;
  opts.probe_interval = 100ms;
  opts.compact_wal_bytes = 32u << 10;  // compact mid-storm, under fire
  Cluster c = make_cluster(3, 191, opts, /*durable=*/true);
  if (!c.client) return;
  store::StoreClient store(*c.client, c.addresses);

  chaos::ScheduleParams params;
  params.duration = smoke ? 1200ms : 3000ms;
  params.mean_interval = 250ms;
  params.min_fault = 200ms;
  params.max_fault = 700ms;
  params.service_cooldown = 300ms;
  params.weight_service_crash = 2;
  params.weight_link_down = 0;
  params.weight_host_isolate = 0;
  params.weight_latency_spike = 0;
  params.weight_loss_burst = 0;
  params.weight_disk_fault = 3;
  params.disk_bit_rot = false;  // torn tails + dropped fsyncs
  params.fsync_drop_count = 2;
  params.max_concurrent_crashes = 1;  // keep a W=2 majority alive
  chaos::Targets targets;
  targets.services = {"store1", "store2", "store3"};
  targets.hosts = {"store1", "store2", "store3"};
  targets.disks = {"store1", "store2", "store3"};
  auto schedule =
      chaos::generate_schedule(chaos::seed_from_env(0x19b), params, targets);
  int crashes = 0, disk_faults = 0;
  for (const auto& e : schedule.events) {
    if (e.kind == chaos::FaultKind::service_crash) ++crashes;
    if (e.kind == chaos::FaultKind::disk_torn_tail ||
        e.kind == chaos::FaultKind::disk_fsync_drop)
      ++disk_faults;
  }

  chaos::ChaosEngine engine(c.deployment->env, schedule);
  for (int i = 0; i < 3; ++i) {
    const std::string name = "store" + std::to_string(i + 1);
    engine.add_service(name, c.replicas[static_cast<std::size_t>(i)]);
    // A crash on this name is a machine power event: process AND tails die.
    engine.add_disk(name, c.disks[static_cast<std::size_t>(i)].get());
  }

  std::mutex acked_mu;
  std::map<std::string, int> acked;
  std::atomic<bool> stop{false};
  std::atomic<int> attempts{0};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      const std::string key = "t/" + std::to_string(i % 64);
      attempts.fetch_add(1);
      if (store.put(key, util::to_bytes("v" + std::to_string(i))).ok()) {
        std::scoped_lock lock(acked_mu);
        acked[key] = i;
      }
      ++i;
      std::this_thread::sleep_for(1ms);
    }
  });
  engine.start();
  engine.join();
  stop.store(true);
  writer.join();

  auto total_hints = [&] {
    return c.replicas[0]->hints_pending() + c.replicas[1]->hints_pending() +
           c.replicas[2]->hints_pending();
  };
  auto converge = [&] {
    bool settled = false;
    for (int i = 0; i < 1000 && !settled; ++i) {
      settled = total_hints() == 0 &&
                c.replicas[0]->merkle_root() == c.replicas[1]->merkle_root() &&
                c.replicas[1]->merkle_root() == c.replicas[2]->merkle_root();
      if (!settled) std::this_thread::sleep_for(10ms);
    }
    return settled;
  };
  bool settled = converge();

  // One final whole-cluster power cycle: whatever reads back after this
  // came off the disks, not out of anyone's memory.
  for (auto* r : c.replicas) r->crash();
  for (auto& d : c.disks) d->crash();
  for (auto* r : c.replicas) (void)r->start();
  settled = converge() && settled;

  int checked = 0, survived = 0;
  for (const auto& [key, seq] : acked) {
    auto got = store.get(key);
    ++checked;
    if (!got.ok()) continue;
    const std::string text = util::to_string(got.value());
    if (text.rfind("v", 0) == 0 && std::stoi(text.substr(1)) >= seq)
      ++survived;
  }
  auto& m = c.deployment->env.metrics();
  std::printf("  %d power-cycle events, %d disk faults; %d write attempts, "
              "%zu keys acked\n",
              crashes, disk_faults, attempts.load(), acked.size());
  std::printf("  recoveries=%llu compactions=%llu torn_tails_dropped=%llu\n",
              static_cast<unsigned long long>(
                  m.counter("store.recoveries").value()),
              static_cast<unsigned long long>(
                  m.counter("store.snapshot_compactions").value()),
              static_cast<unsigned long long>(
                  m.counter("store.wal_torn_tail_dropped").value()));
  std::printf("  converged: %s; acked writes surviving final power cycle: "
              "%d/%d (%.1f%%)\n",
              settled ? "yes" : "no", survived, checked,
              checked ? 100.0 * survived / checked : 0.0);
}

// Sums `from`'s counters into `into` (and appends unseen gauges) so one
// exported artifact can carry evidence from several independent clusters —
// E19a's WAL counters and E20's read-path counters both survive.
void merge_counters(obs::MetricsSnapshot* into,
                    const obs::MetricsSnapshot& from) {
  for (const auto& ce : from.counters) {
    auto it = std::find_if(
        into->counters.begin(), into->counters.end(),
        [&](const obs::MetricsSnapshot::CounterEntry& e) {
          return e.name == ce.name;
        });
    if (it == into->counters.end())
      into->counters.push_back(ce);
    else
      it->value += ce.value;
  }
  for (const auto& ge : from.gauges) {
    auto it = std::find_if(into->gauges.begin(), into->gauges.end(),
                           [&](const obs::MetricsSnapshot::GaugeEntry& e) {
                             return e.name == ge.name;
                           });
    if (it == into->gauges.end())
      into->gauges.push_back(ge);
    else
      it->value = ge.value;
  }
}

// ------------------------------------------------------------------- E20a
// The read path's latency is dominated by replica round trips once links
// have real latency, so the cluster here runs with a 1 ms default link
// delay: the digest path pays one RTT total however many replicas it
// consults (all fan-out RPCs in flight together) and moves the full value
// only once.
void digest_read_latency(bool smoke, obs::MetricsSnapshot* merged) {
  bench::header("E20a", "read latency vs R: parallel digest reads");
  std::printf("%6s %13s %13s %10s\n", "R", "read_us(p50)", "read_us(p99)",
              "reads/s");
  const int reads = smoke ? 60 : 240;
  const int key_count = 32;
  for (int r : {1, 2, 3}) {
    store::StoreOptions opts;
    opts.read_quorum = r;
    opts.probe_interval = 5s;  // keep the monitor out of the measurement
    Cluster c = make_cluster(3, 200, opts);
    if (!c.client) return;
    c.deployment->env.network().set_default_latency(1ms);
    store::StoreClient store(*c.client, c.addresses);
    util::Bytes payload(1024, 0x3c);  // >=1 KB: full-value copies matter
    for (int i = 0; i < key_count; ++i)
      if (!store.put("r/" + std::to_string(i), payload).ok()) return;
    (void)store.get("r/0");  // warm connections
    bench::Series us;
    const auto t0 = bench::Clock::now();
    for (int i = 0; i < reads; ++i) {
      auto t = bench::Clock::now();
      if (!store.get("r/" + std::to_string(i % key_count)).ok()) return;
      us.add(bench::us_since(t));
    }
    const double rate = reads / (bench::us_since(t0) / 1e6);
    std::printf("%6d %13.1f %13.1f %10.0f\n", r, us.percentile(50),
                us.percentile(99), rate);
    merge_counters(merged, c.deployment->env.metrics().snapshot());
  }

  // Read repair: one replica misses an overwrite behind a partition; after
  // the heal, a single strict-quorum read both answers the newest value
  // and pushes it back onto the stale replica.
  store::StoreOptions opts;
  opts.write_quorum = 2;
  opts.read_quorum = 3;
  opts.probe_interval = 60s;  // only read repair may converge the replica
  Cluster c = make_cluster(3, 201, opts);
  if (!c.client) return;
  store::StoreClient store(*c.client, c.addresses);
  if (!store.put("rr/k", util::to_bytes("v1")).ok()) return;
  auto& net = c.deployment->env.network();
  for (const char* peer : {"store1", "store2", "app"})
    net.set_partitioned("store3", peer, true);
  if (!store.put("rr/k", util::to_bytes("v2")).ok()) return;
  for (const char* peer : {"store1", "store2", "app"})
    net.set_partitioned("store3", peer, false);
  const auto t0 = bench::Clock::now();
  // Read through store1 specifically: a coordinator that is NOT the stale
  // replica, so the repair is a remote push (store3 coordinating would
  // self-heal inline without exercising the async path).
  cmdlang::CmdLine getcmd("storeGet");
  getcmd.arg("key", "rr/k");
  auto got = c.client->call(
      c.addresses[0], getcmd,
      daemon::CallOptions{.timeout = std::chrono::milliseconds(800)});
  auto& m = c.deployment->env.metrics();
  // Converged = replica holds the newest value AND the repair ack made it
  // back to the coordinator (the counter ticks one network beat later).
  bool repaired = false;
  for (int i = 0; i < 600 && !repaired; ++i) {
    auto obj = c.replicas[2]->object("rr/k");
    repaired = obj && util::to_string(obj->data) == "v2" &&
               m.counter("store.read_repairs").value() >= 1;
    if (!repaired) std::this_thread::sleep_for(5ms);
  }
  std::printf("  read repair: stale replica %s in %.1f ms after one read "
              "(read_repairs=%llu, mismatches=%llu)\n",
              repaired ? "converged" : "DID NOT CONVERGE",
              bench::us_since(t0) / 1000.0,
              static_cast<unsigned long long>(
                  m.counter("store.read_repairs").value()),
              static_cast<unsigned long long>(
                  m.counter("store.digest_mismatches").value()));
  if (!got.ok() || !cmdlang::is_ok(got.value()) ||
      got->get_text("data") != store::hex_of(util::to_bytes("v2")))
    std::printf("  WARNING: post-heal read did not return the newest value\n");
  merge_counters(merged, m.snapshot());
}

// ------------------------------------------------------------------- E20b
void scan_pagination(bool smoke, obs::MetricsSnapshot* merged) {
  bench::header("E20b",
                "paginated scans vs full list() (5 replicas, limit=256)");
  std::printf("%10s %10s %10s %8s %10s %14s\n", "keys", "list_ms", "scan_ms",
              "pages", "max_page", "scan_keys/s");
  const std::vector<int> sizes = smoke ? std::vector<int>{1000}
                                       : std::vector<int>{1000, 10000, 50000};
  std::size_t worst_page = 0;
  for (int n : sizes) {
    store::StoreOptions opts;
    opts.probe_interval = 5s;
    Cluster c = make_cluster(5, 202, opts);
    if (!c.client) return;
    store::StoreClient store(*c.client, c.addresses, 3);
    util::Bytes payload(64, 0x5e);
    char keybuf[32];
    for (int i = 0; i < n; ++i) {
      std::snprintf(keybuf, sizeof(keybuf), "scan/%06d", i);
      if (!store.put(keybuf, payload).ok()) return;
    }

    // The whole namespace materialized client-side: list() drains the
    // same pager, so this column is the cost of holding every key at once.
    auto t0 = bench::Clock::now();
    auto listed = store.list("scan/");
    const double list_ms = bench::us_since(t0) / 1000.0;
    if (!listed.ok()) return;
    const std::size_t listed_keys = listed->size();

    t0 = bench::Clock::now();
    store::StoreScanner scanner = store.scan("scan/", 256);
    std::size_t scanned = 0, pages = 0, max_page = 0;
    while (!scanner.done()) {
      auto page = scanner.next_page();
      if (!page.ok()) return;
      scanned += page->size();
      max_page = std::max(max_page, page->size());
      ++pages;
    }
    const double scan_ms = bench::us_since(t0) / 1000.0;
    worst_page = std::max(worst_page, max_page);
    std::printf("%10d %10.1f %10.1f %8zu %10zu %14.0f\n", n, list_ms,
                scan_ms, pages, max_page,
                scan_ms > 0 ? scanned / (scan_ms / 1000.0) : 0.0);
    if (scanned != listed_keys || scanned != static_cast<std::size_t>(n))
      std::printf("  WARNING: scan saw %zu keys, list %zu, expected %d\n",
                  scanned, listed_keys, n);
    merge_counters(merged, c.deployment->env.metrics().snapshot());
  }
  merged->gauges.push_back(
      {"bench.e20b_scan_max_page_keys",
       static_cast<std::int64_t>(worst_page)});
  std::printf("  (shape: list() materializes the whole namespace; every "
              "scan reply is bounded by the page limit — max_page <= 256 at "
              "every size)\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  obs::MetricsSnapshot exported;
  shard_layout(smoke);
  merkle_resync(smoke, &exported);
  quorum_ablation(smoke);
  group_commit_throughput(smoke);
  if (!smoke) chaos_durability(smoke);
  restart_recovery(smoke, &exported);
  if (!smoke) chaos_disk_durability(smoke);
  digest_read_latency(smoke, &exported);
  scan_pagination(smoke, &exported);
  // The artifact carries the proof of the mechanisms at work: quorum
  // writes (store.writes, store.replica_acks), group commit
  // (store.batch_records), Merkle anti-entropy (store.sync_tree_rpcs), the
  // WAL plane from the E19a durable run (store.wal_appends,
  // store.wal_fsyncs, store.recoveries, store.snapshot_compactions), and —
  // merged in from the E20 clusters — the read path
  // (store.digest_reads, store.digest_mismatches, store.read_repairs) and
  // paginated scans (store.scan_pages).
  bench::export_metrics_json("bench_store", exported);
  return 0;
}

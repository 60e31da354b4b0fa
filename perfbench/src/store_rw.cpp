// store_rw: the Ch 6 persistent store under a 50/50 get/put mix. Three
// PersistentStoreDaemon replicas, each on its own io::SimDisk (WAL,
// group-commit fsync, compaction), N=3 W=2 R=2, preloaded with 4096 keys of
// 256 B. Two callers share one AceClient (at most three channels) but each
// has its own StoreClient and its own half of the keys, picked uniformly.
// Writes (ring routing, coordination, per-peer group commit, WAL fsync)
// run beside reads (parallel digest reads) on the command path, without
// KeyNote, with larger hex payloads and nested replica RPCs.
#include <atomic>

#include "harness.hpp"
#include "io/sim_disk.hpp"
#include "util/rng.hpp"

namespace perf {
namespace {

using cmdlang::CmdLine;

constexpr int kCallers = 2;
constexpr int kReplicas = 3;
constexpr std::size_t kKeys = 4096;
constexpr std::size_t kKeysPerCaller = kKeys / kCallers;
constexpr std::size_t kValueBytes = 256;
constexpr std::size_t kValues = 64;   // pre-generated payload pool
constexpr std::size_t kRing = 16384;  // pre-generated ops per caller
constexpr std::size_t kReplaySample = 200;

struct Op {
  std::uint16_t key;    // index within the caller's half
  std::uint8_t value;   // payload pool index (puts)
  bool put;
};

class StoreRw final : public Workload {
 public:
  explicit StoreRw(std::uint64_t seed) : infra_(seed), seed_(seed) {
    util::Rng rng(seed);
    for (std::size_t k = 0; k < kKeys; ++k)
      keys_.push_back("perf/" + rng.next_name(6) + "-" + std::to_string(k));
    for (std::size_t v = 0; v < kValues; ++v) {
      util::Bytes b(kValueBytes);
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
      values_.push_back(std::move(b));
    }
    for (int c = 0; c < kCallers; ++c) {
      ops_[c].reserve(kRing);
      for (std::size_t i = 0; i < kRing; ++i)
        ops_[c].push_back(Op{
            static_cast<std::uint16_t>(rng.next_below(kKeysPerCaller)),
            static_cast<std::uint8_t>(rng.next_below(kValues)),
            rng.next_bool(0.5)});
      // What each key holds after the preload: the caller checks every
      // read against the last value it wrote (R + W > N).
      shadow_[c].resize(kKeysPerCaller);
      for (std::size_t k = 0; k < kKeysPerCaller; ++k)
        shadow_[c][k] = preload_value(c * kKeysPerCaller + k);
    }
  }

  Infra& infra() override { return infra_; }
  int threads() const override { return kCallers; }

  util::Status setup(Tracer& tracer) override {
    if (auto s = infra_.start(); !s.ok()) return s;
    // The store enforces no authorization; the credential only feeds the
    // traced run's KeyNote replay.
    if (auto s = infra_.grant(kPrincipal, "app_domain == \"ace\""); !s.ok())
      return s;

    store::StoreOptions opts;
    opts.replication = 3;
    opts.write_quorum = 2;
    opts.read_quorum = 2;
    for (int i = 0; i < kReplicas; ++i) {
      const std::string name = "store" + std::to_string(i + 1);
      hosts_.push_back(std::make_unique<daemon::DaemonHost>(infra_.env, name));
      disks_.push_back(std::make_shared<io::SimDisk>(seed_ * 10 + i));
      opts.disk = disks_.back();
      daemon::DaemonConfig cfg;
      cfg.name = name;
      cfg.room = "machine-room";
      cfg.port = 6000;
      replicas_.push_back(&hosts_.back()->add_daemon<store::PersistentStoreDaemon>(
          cfg, i + 1, opts));
    }
    for (int i = 0; i < kReplicas; ++i) {
      std::vector<net::Address> peers;
      for (int j = 0; j < kReplicas; ++j)
        if (j != i) peers.push_back(replicas_[j]->address());
      replicas_[i]->set_peers(peers);
      ScopedSpan span(tracer, "daemon.start");
      if (auto s = replicas_[i]->start(); !s.ok()) return s;
      addrs_.push_back(replicas_[i]->address());
    }

    client_ = infra_.make_client("store-app", kPrincipal);
    for (int c = 0; c < kCallers; ++c)
      store_clients_[c] =
          std::make_unique<store::StoreClient>(*client_, addrs_, 3);

    // Deterministic preload: one writer, fixed key order.
    for (std::size_t k = 0; k < kKeys; ++k) {
      const int c = static_cast<int>(k / kKeysPerCaller);
      if (auto s = store_clients_[c]->put(keys_[k], values_[preload_value(k)]);
          !s.ok())
        return s;
    }
    return util::Status::ok_status();
  }

  void drive(int t, LoadControl& ctl) override {
    store::StoreClient& sc = *store_clients_[t];
    std::vector<std::uint8_t>& shadow = shadow_[t];
    const std::vector<Op>& ring = ops_[t];
    const std::size_t base = static_cast<std::size_t>(t) * kKeysPerCaller;
    for (std::uint64_t i = 0;; ++i) {
      const int s = ctl.current();
      if (ctl.stopping(s)) return;
      const Op& op = ring[i % ring.size()];
      const std::string& key = keys_[base + op.key];
      const std::uint64_t span_op = (static_cast<std::uint64_t>(t) << 40) | i;
      const auto t0 = Clock::now();
      bool ok = false;
      if (op.put) {
        ScopedSpan span(ctl.tracer_for(s), "store.put", 0, span_op);
        ok = sc.put(key, values_[op.value]).ok();
        if (ok) shadow[op.key] = op.value;
        if (s >= 0) puts_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ScopedSpan span(ctl.tracer_for(s), "store.get", 0, span_op);
        auto got = sc.get(key);
        ok = got.ok() && got.value() == values_[shadow[op.key]];
        if (s >= 0) gets_.fetch_add(1, std::memory_order_relaxed);
      }
      ctl.record(t, s, us_between(t0, Clock::now()), ok);
    }
  }

  WindowCounts counts() override {
    WindowCounts w;
    w.puts = puts_.load();
    w.gets = gets_.load();
    for (const auto& d : disks_) {
      const io::DiskStats st = d->stats();
      w.disk_fsyncs += st.fsyncs;
      w.disk_bytes += st.append_bytes;
    }
    w.user_bytes = w.puts * kValueBytes;
    return w;
  }

  std::uint64_t verify(std::string&) override {
    return 0;  // every read was checked against the caller's last write
  }

  LayerInputs layer_inputs() override {
    LayerInputs in;
    in.target = replicas_[0];
    in.client = client_.get();
    in.principal = kPrincipal;
    in.target_name = replicas_[0]->config().name;
    in.replicas = replicas_;
    for (std::size_t i = 0; i < kReplaySample; ++i) {
      const int c = static_cast<int>(i % kCallers);
      const Op& op = ops_[c][i * (kRing / kReplaySample)];
      const std::string& key = keys_[c * kKeysPerCaller + op.key];
      CmdLine cmd(op.put ? "storePut" : "storeGet");
      cmd.arg("key", key);
      if (op.put) cmd.arg("data", util::hex_encode(values_[op.value]));
      in.requests.push_back(std::move(cmd));
      in.keys.push_back(key);
    }
    in.values = values_;
    return in;
  }

  void teardown() override {
    for (auto& sc : store_clients_) sc.reset();
    client_.reset();
    for (auto& h : hosts_) h->stop_all();
  }

 private:
  static constexpr const char* kPrincipal = "user/perf-store";

  std::uint8_t preload_value(std::size_t key) const {
    return static_cast<std::uint8_t>((key * 7 + seed_) % kValues);
  }

  Infra infra_;
  std::uint64_t seed_;
  std::vector<std::string> keys_;
  std::vector<util::Bytes> values_;
  std::vector<Op> ops_[kCallers];
  std::vector<std::uint8_t> shadow_[kCallers];
  std::vector<std::unique_ptr<daemon::DaemonHost>> hosts_;
  std::vector<std::shared_ptr<io::SimDisk>> disks_;
  std::vector<store::PersistentStoreDaemon*> replicas_;
  std::vector<net::Address> addrs_;
  std::unique_ptr<daemon::AceClient> client_;
  std::unique_ptr<store::StoreClient> store_clients_[kCallers];
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> gets_{0};
};

}  // namespace

std::unique_ptr<Workload> make_store_rw(std::uint64_t seed) {
  return std::make_unique<StoreRw>(seed);
}

}  // namespace perf

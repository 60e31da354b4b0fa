// Traced-run replay: after the load, a sample of the run's own inputs goes
// through each layer's public functions one call at a time, every call
// inside a span. Sub-microsecond calls are timed in batches of kReps (the
// span records the batch; per-call time = duration / reps). Layers a
// workload's path never touches are timed on small private fixtures, so
// each of the 43 per-layer metrics is measured on every workload.
#include <algorithm>

#include "cmdlang/parser.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "daemon/wire.hpp"
#include "harness.hpp"
#include "io/sim_disk.hpp"
#include "keynote/checker.hpp"
#include "media/audio.hpp"
#include "store/wal.hpp"
#include "util/rng.hpp"

namespace perf {

namespace {

constexpr std::uint32_t kReps = 32;
constexpr int kLookups = 100;
constexpr int kHandshakes = 8;
constexpr int kFixtureOps = 100;
constexpr int kSinks = 16;

// Keeps batched results observable so no call can be elided.
volatile std::size_t g_sink = 0;

util::Bytes seeded_bytes(util::Rng& rng, std::size_t n) {
  util::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// A one-replica in-memory store standing in for the store plane on
// workloads without one (N=W=R=1).
struct StoreFixture {
  StoreFixture(Infra& infra, daemon::AceClient& client) {
    host = std::make_unique<daemon::DaemonHost>(infra.env, "perf-probe-store");
    daemon::DaemonConfig cfg;
    cfg.name = "perf-probe-store";
    cfg.room = "machine-room";
    store::StoreOptions opts;
    opts.replication = 1;
    opts.write_quorum = 1;
    opts.read_quorum = 1;
    replica = &host->add_daemon<store::PersistentStoreDaemon>(cfg, 1, opts);
    ok = replica->start().ok();
    store_client = std::make_unique<store::StoreClient>(
        client, std::vector<net::Address>{replica->address()}, 1);
  }
  ~StoreFixture() {
    store_client.reset();
    host->stop_all();
  }

  std::unique_ptr<daemon::DaemonHost> host;
  store::PersistentStoreDaemon* replica = nullptr;
  std::unique_ptr<store::StoreClient> store_client;
  bool ok = false;
};

// Sixteen unpumped datagram sinks for timing send_many by itself.
struct SinkFixture {
  explicit SinkFixture(Infra& infra) {
    auto& sink_host = infra.env.network().add_host("perf-probe-sinks");
    for (int i = 0; i < kSinks; ++i) {
      auto s = sink_host.open_datagram(static_cast<std::uint16_t>(9100 + i));
      if (!s.ok()) continue;
      sinks.push_back(s.value());
      addrs.push_back(s.value()->address());
    }
    auto src = infra.env.network().add_host("perf-probe-src").open_datagram();
    if (src.ok()) sender = src.value();
  }
  ~SinkFixture() {
    for (auto& s : sinks) s->close();
    if (sender) sender->close();
  }

  std::vector<std::shared_ptr<net::DatagramSocket>> sinks;
  std::vector<net::Address> addrs;
  std::shared_ptr<net::DatagramSocket> sender;
};

double med_us(const Tracer& t, const char* name) {
  return median(t.per_call_us(name));
}

}  // namespace

std::map<std::string, double> replay_layers(Infra& infra, LayerInputs in,
                                            Tracer& tracer,
                                            std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5eed1a7e5ULL);
  std::uint64_t op = 1u << 20;  // replay op ids sit above the load's
  const bool store_target = !in.replicas.empty();

  // --- command plane: crypto, cmdlang, keynote, obs, daemon -------------
  crypto::ChaChaKey key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  const util::Bytes mac_key = seeded_bytes(rng, 32);
  util::Bytes record = seeded_bytes(
      rng, static_cast<std::size_t>(std::max(1.0, in.mean_frame_bytes)));
  const daemon::CallerInfo caller{in.principal, {}};

  for (const cmdlang::CmdLine& req : in.requests) {
    ++op;
    ScopedSpan op_span(tracer, "replay.op", 0, op);
    const std::uint32_t parent = op_span.id();

    const char* exec_name = "daemon.execute";
    if (store_target)
      exec_name = req.name() == "storePut" ? "store.coordinate_put"
                                           : "store.coordinate_get";
    cmdlang::CmdLine reply;
    {
      ScopedSpan s(tracer, exec_name, parent, op);
      reply = in.target->execute(req, caller);
    }
    const std::string req_text = req.to_string();
    const std::string reply_text = reply.to_string();
    {
      ScopedSpan s(tracer, "cmdlang.serialize", parent, op, kReps);
      for (std::uint32_t i = 0; i < kReps; ++i)
        g_sink = g_sink + req.to_string().size() + reply.to_string().size();
    }
    {
      ScopedSpan s(tracer, "cmdlang.parse", parent, op, kReps);
      for (std::uint32_t i = 0; i < kReps; ++i)
        g_sink = g_sink + cmdlang::Parser::parse(req_text).ok();
    }
    {
      ScopedSpan s(tracer, "cmdlang.parse_reply", parent, op, kReps);
      for (std::uint32_t i = 0; i < kReps; ++i)
        g_sink = g_sink + cmdlang::Parser::parse(reply_text).ok();
    }
    {
      ScopedSpan s(tracer, "cmdlang.validate", parent, op, kReps);
      for (std::uint32_t i = 0; i < kReps; ++i)
        g_sink = g_sink + in.target->semantics().validate(req).ok();
    }
    {
      // One round trip frames the request and the reply once each.
      ScopedSpan s(tracer, "daemon.wire", parent, op, kReps);
      for (std::uint32_t i = 0; i < kReps; ++i) {
        const util::Bytes a = daemon::wire::encode_frame(op, 0, req_text);
        const util::Bytes b = daemon::wire::encode_frame(op, 0, reply_text);
        g_sink = g_sink + daemon::wire::decode_frame(a)->body.size() +
                 daemon::wire::decode_frame(b)->body.size();
      }
    }
    {
      ScopedSpan s(tracer, "crypto.record", parent, op, kReps);
      for (std::uint32_t i = 0; i < kReps; ++i) {
        crypto::chacha20_xor(key, crypto::nonce_from_sequence(i, 7), 1,
                             record);
        g_sink = g_sink + crypto::hmac_sha256(mac_key, record)[0];
      }
    }
    {
      const keynote::ComplianceQuery q =
          infra.authorization_query(*in.target, in.principal, req.name());
      ScopedSpan s(tracer, "keynote.check", parent, op);
      g_sink = g_sink + keynote::ComplianceChecker::check(q, &infra.env.keys())
                            .ok();
    }
    {
      ScopedSpan s(tracer, "obs.span", parent, op, kReps);
      for (std::uint32_t i = 0; i < kReps; ++i)
        obs::Span span(infra.env.metrics(), "perfbench", "replay");
    }
    if (!in.calls_from_load) {
      ScopedSpan s(tracer, "daemon.call", parent, op);
      g_sink = g_sink + in.client->call(in.target->address(), req).ok();
    }
  }

  // --- services: uncached directory lookups of the workload's target ----
  {
    services::AsdClient asd(*in.client, infra.env.asd_address);
    for (int i = 0; i < kLookups; ++i) {
      ScopedSpan s(tracer, "services.asd_lookup", 0, ++op);
      g_sink = g_sink + asd.lookup(in.target_name).ok();
    }
  }

  // --- crypto handshake: first call on a fresh channel vs a warm one ----
  for (int i = 0; i < kHandshakes; ++i) {
    auto fresh = infra.make_client("perf-hs-" + std::to_string(i),
                                   in.principal);
    const cmdlang::CmdLine& req = in.requests[i % in.requests.size()];
    {
      ScopedSpan s(tracer, "crypto.first_call", 0, ++op);
      g_sink = g_sink + fresh->call(in.target->address(), req).ok();
    }
    {
      ScopedSpan s(tracer, "crypto.warm_call", 0, op);
      g_sink = g_sink + fresh->call(in.target->address(), req).ok();
    }
  }

  // --- media plane: peek and route lookup; net: send_many to 16 sinks ---
  media::FrameRouter private_router;
  std::vector<util::SharedBytes> frames = in.frames;
  if (frames.empty()) {
    for (int s = 0; s < 4; ++s) {
      std::vector<std::int16_t> samples(media::kFrameSamples);
      for (auto& x : samples) x = static_cast<std::int16_t>(rng.next());
      frames.push_back(media::serialize_frame(
          "probe-" + std::to_string(s), static_cast<std::uint32_t>(s), samples));
      for (int k = 0; k < kSinks; ++k)
        private_router.add_sink("probe-" + std::to_string(s),
                                {"perf-probe-sinks",
                                 static_cast<std::uint16_t>(9100 + k)});
    }
  }
  const media::FrameRouter& router = in.router ? *in.router : private_router;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const util::SharedBytes& f = frames[i];
    ++op;
    {
      ScopedSpan s(tracer, "media.peek", 0, op, kReps);
      for (std::uint32_t r = 0; r < kReps; ++r)
        g_sink = g_sink + media::peek_tag(f.view())->size();
    }
    const std::string_view tag = *media::peek_tag(f.view());
    {
      ScopedSpan s(tracer, "media.lookup", 0, op, kReps);
      for (std::uint32_t r = 0; r < kReps; ++r)
        g_sink = g_sink + (router.lookup(tag) != nullptr);
    }
  }
  {
    SinkFixture sinks(infra);
    for (int i = 0; i < kFixtureOps && sinks.sender; ++i) {
      ScopedSpan s(tracer, "net.send_many", 0, ++op);
      g_sink = g_sink +
               sinks.sender->send_many(sinks.addrs, frames[i % frames.size()])
                   .ok();
    }
  }

  // --- store plane ------------------------------------------------------
  std::vector<std::string> keys = in.keys;
  std::vector<util::Bytes> values = in.values;
  if (keys.empty()) {
    for (int i = 0; i < kFixtureOps; ++i) {
      keys.push_back("probe/" + rng.next_name(8));
      values.push_back(seeded_bytes(rng, 256));
    }
  }
  std::unique_ptr<StoreFixture> fixture;
  if (!store_target) {
    fixture = std::make_unique<StoreFixture>(infra, *in.client);
    for (std::size_t i = 0; i < keys.size() && fixture->ok; ++i) {
      const util::Bytes& v = values[i % values.size()];
      {
        ScopedSpan s(tracer, "store.put", 0, ++op);
        g_sink = g_sink + fixture->store_client->put(keys[i], v).ok();
      }
      {
        ScopedSpan s(tracer, "store.get", 0, op);
        g_sink = g_sink + fixture->store_client->get(keys[i]).ok();
      }
      cmdlang::CmdLine put("storePut");
      put.arg("key", keys[i]);
      put.arg("data", util::hex_encode(v));
      cmdlang::CmdLine get("storeGet");
      get.arg("key", keys[i]);
      {
        ScopedSpan s(tracer, "store.coordinate_put", 0, op);
        g_sink = g_sink + cmdlang::is_ok(fixture->replica->execute(put, caller));
      }
      {
        ScopedSpan s(tracer, "store.coordinate_get", 0, op);
        g_sink = g_sink + cmdlang::is_ok(fixture->replica->execute(get, caller));
      }
    }
  }
  const store::Ring& ring =
      store_target ? in.replicas.front()->ring() : fixture->replica->ring();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ++op;
    {
      ScopedSpan s(tracer, "store.ring", 0, op, kReps);
      for (std::uint32_t r = 0; r < kReps; ++r)
        g_sink = g_sink + ring.preference_list(keys[i], 3).size();
    }
    const util::Bytes& v = values[i % values.size()];
    {
      ScopedSpan s(tracer, "store.hex", 0, op, kReps);
      for (std::uint32_t r = 0; r < kReps; ++r)
        g_sink = g_sink + util::hex_decode(util::hex_encode(v)).size();
    }
  }
  {
    io::SimDisk disk(seed);
    store::DurableLog log(disk, "perf-probe", store::WalCounters{});
    log.recover([](const store::WalRecord&) {});
    for (std::size_t i = 0; i < keys.size(); ++i) {
      store::WalRecord r;
      r.kind = store::WalRecord::kPut;
      r.key = keys[i];
      r.version = i + 1;
      r.data = values[i % values.size()];
      ScopedSpan s(tracer, "store.wal", 0, ++op);
      g_sink = g_sink + store::DurableLog::sync(log.append(r));
    }
    log.close();
  }
  fixture.reset();

  // --- per-layer values -------------------------------------------------
  std::map<std::string, double> m;
  m["crypto.record_us"] = med_us(tracer, "crypto.record");
  m["crypto.handshake_ms"] =
      (med_us(tracer, "crypto.first_call") - med_us(tracer, "crypto.warm_call")) /
      1000.0;
  m["cmdlang.parse_ns"] = med_us(tracer, "cmdlang.parse") * 1000.0;
  m["cmdlang.parse_reply_ns"] = med_us(tracer, "cmdlang.parse_reply") * 1000.0;
  m["cmdlang.serialize_ns"] = med_us(tracer, "cmdlang.serialize") * 1000.0;
  m["cmdlang.validate_ns"] = med_us(tracer, "cmdlang.validate") * 1000.0;
  m["keynote.check_us"] = med_us(tracer, "keynote.check");
  m["obs.span_ns"] = med_us(tracer, "obs.span") * 1000.0;
  m["daemon.call_us"] = med_us(tracer, "daemon.call");
  if (store_target) {
    std::vector<double> both = tracer.per_call_us("store.coordinate_put");
    std::vector<double> gets = tracer.per_call_us("store.coordinate_get");
    both.insert(both.end(), gets.begin(), gets.end());
    m["daemon.execute_us"] = median(both);
  } else {
    m["daemon.execute_us"] = med_us(tracer, "daemon.execute");
  }
  m["daemon.wire_ns"] = med_us(tracer, "daemon.wire") * 1000.0;
  m["daemon.start_ms"] = med_us(tracer, "daemon.start") / 1000.0;
  // Four records per round trip (seal + open on each side); serialize and
  // wire already cover both directions.
  m["daemon.wait_us"] =
      m["daemon.call_us"] -
      (4 * m["crypto.record_us"] +
       (m["cmdlang.serialize_ns"] + m["cmdlang.parse_ns"] +
        m["cmdlang.parse_reply_ns"] + m["daemon.wire_ns"]) /
           1000.0 +
       m["daemon.execute_us"]);
  m["net.send_many_us"] = med_us(tracer, "net.send_many");
  m["net.core_hop_us"] = med_us(tracer, "net.core_hop");
  m["net.ops_hop_us"] = med_us(tracer, "net.ops_hop");
  m["services.asd_lookup_us"] = med_us(tracer, "services.asd_lookup");
  m["store.put_us"] = med_us(tracer, "store.put");
  m["store.get_us"] = med_us(tracer, "store.get");
  m["store.coordinate_put_us"] = med_us(tracer, "store.coordinate_put");
  m["store.coordinate_get_us"] = med_us(tracer, "store.coordinate_get");
  m["store.ring_ns"] = med_us(tracer, "store.ring") * 1000.0;
  m["store.hex_ns"] = med_us(tracer, "store.hex") * 1000.0;
  m["store.wal_us"] = med_us(tracer, "store.wal");
  m["media.peek_ns"] = med_us(tracer, "media.peek") * 1000.0;
  m["media.lookup_ns"] = med_us(tracer, "media.lookup") * 1000.0;
  return m;
}

}  // namespace perf

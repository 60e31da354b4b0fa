// E12/E17 — Scalability goals (paper Ch 9).
//
// "significant amount of testing must be done to ensure the scalability of
//  the system ... Central services such as the ASD, AUD, WSS, etc must be
//  fully tested for large communication loads."
//
// This harness loads the central services far past the scenario scale:
//   * ASD with thousands of registrations under concurrent lookup+renewal,
//   * AUD with thousands of users,
//   * sustained command throughput from several concurrent clients,
//   * media-plane throughput: converter and distribution streaming rates,
//   * E17: the reactor fabric holding tens of thousands of concurrent
//     endpoints in one process with O(pool) threads and flat per-endpoint
//     memory (the point of the event-driven ace::net rebuild).
//
// `--smoke` runs a seconds-scale E17 subset (used by ci.sh bench-smoke)
// and exports bench_scale.metrics.json for artifact validation.
#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "media/codec.hpp"
#include "services/streaming.hpp"
#include "services/user_db.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

namespace {

void asd_under_load() {
  bench::header("E12a", "ASD: 2000 services, concurrent lookups + renewals");
  testenv::AceTestEnv deployment(160);
  if (!deployment.start().ok()) return;
  constexpr int kServices = 2000;
  {
    auto loader = deployment.make_client("loader", "user/loader");
    for (int i = 0; i < kServices; ++i) {
      CmdLine reg("register");
      reg.arg("name", Word{"svc" + std::to_string(i)});
      reg.arg("host", "host" + std::to_string(i % 64));
      reg.arg("port", std::int64_t{1000 + i % 60000});
      reg.arg("class", "Service/Load/Kind" + std::to_string(i % 10));
      reg.arg("lease", std::int64_t{60000});
      if (!loader->call(deployment.env.asd_address, reg, daemon::kCallOk).ok()) return;
    }
  }

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 500;
  std::atomic<int> failures{0};
  auto start = bench::Clock::now();
  std::vector<std::jthread> workers;
  for (int w = 0; w < kClients; ++w) {
    workers.emplace_back([&, w] {
      auto client = deployment.make_client("worker" + std::to_string(w),
                                           "user/worker");
      util::Rng rng(w + 1);
      for (int i = 0; i < kOpsPerClient; ++i) {
        std::string name = "svc" + std::to_string(rng.next_below(kServices));
        if (i % 4 == 0) {
          CmdLine renew("renew");
          renew.arg("name", Word{name});
          if (!client->call(deployment.env.asd_address, renew, daemon::kCallOk).ok())
            failures++;
        } else {
          if (!services::AsdClient(*client, deployment.env.asd_address).lookup(name)
                   .ok())
            failures++;
        }
      }
    });
  }
  workers.clear();  // join
  double seconds = bench::us_since(start) / 1e6;
  int total_ops = kClients * kOpsPerClient;
  std::printf("  %d mixed lookup/renew ops from %d clients in %.2f s -> "
              "%.0f ops/s (failures: %d)\n",
              total_ops, kClients, seconds, total_ops / seconds,
              failures.load());
  std::printf("  directory still consistent: live_count=%zu\n",
              deployment.asd->live_count());
}

void aud_with_thousands_of_users() {
  bench::header("E12b", "AUD: 3000 users, lookup latency");
  testenv::AceTestEnv deployment(161);
  if (!deployment.start().ok()) return;
  daemon::DaemonHost host(deployment.env, "db-host");
  daemon::DaemonConfig cfg;
  cfg.name = "aud";
  cfg.room = "machine-room";
  auto& aud = host.add_daemon<services::UserDbDaemon>(cfg);
  if (!aud.start().ok()) return;
  auto client = deployment.make_client("bench", "user/bench");

  constexpr int kUsers = 3000;
  for (int i = 0; i < kUsers; ++i) {
    CmdLine add("userAdd");
    add.arg("username", Word{"user" + std::to_string(i)});
    add.arg("ibutton", "IB-" + std::to_string(i));
    if (!client->call(aud.address(), add, daemon::kCallOk).ok()) return;
  }

  bench::Series get_us, by_button_us;
  util::Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    std::string user = "user" + std::to_string(rng.next_below(kUsers));
    CmdLine get("userGet");
    get.arg("username", Word{user});
    auto start = bench::Clock::now();
    if (!client->call(aud.address(), get, daemon::kCallOk).ok()) return;
    get_us.add(bench::us_since(start));

    CmdLine find("userByIButton");
    find.arg("serial", "IB-" + std::to_string(rng.next_below(kUsers)));
    start = bench::Clock::now();
    if (!client->call(aud.address(), find, daemon::kCallOk).ok()) return;
    by_button_us.add(bench::us_since(start));
  }
  std::printf("  userGet:       p50=%.1f us  p95=%.1f us\n",
              get_us.percentile(50), get_us.percentile(95));
  std::printf("  userByIButton: p50=%.1f us  p95=%.1f us (linear scan)\n",
              by_button_us.percentile(50), by_button_us.percentile(95));
}

void converter_video_throughput() {
  bench::header("E12c", "converter: raw video -> RLE throughput");
  media::VideoFrame reference;
  bool has_ref = false;
  constexpr int kFrames = 200;
  constexpr int kW = 320, kH = 240;
  std::size_t in_bytes = 0, out_bytes = 0;
  auto start = bench::Clock::now();
  for (int t = 0; t < kFrames; ++t) {
    media::VideoFrame frame = media::synthetic_frame(kW, kH, t);
    auto encoded =
        media::rle_video_encode(frame, has_ref ? &reference : nullptr);
    in_bytes += frame.pixels.size();
    out_bytes += encoded.size();
    reference = std::move(frame);
    has_ref = true;
  }
  double seconds = bench::us_since(start) / 1e6;
  std::printf("  %d frames (%dx%d) in %.2f s -> %.1f fps, compression %.1fx\n",
              kFrames, kW, kH, seconds, kFrames / seconds,
              static_cast<double>(in_bytes) / out_bytes);
}

void distribution_throughput() {
  bench::header("E12d", "distribution service: fan-out streaming rate");
  testenv::AceTestEnv deployment(162);
  if (!deployment.start().ok()) return;
  daemon::DaemonHost host(deployment.env, "stream-box");
  daemon::DaemonConfig cfg;
  cfg.name = "dist";
  cfg.room = "machine-room";
  auto& dist = host.add_daemon<services::DistributionDaemon>(cfg);
  if (!dist.start().ok()) return;
  auto client = deployment.make_client("bench", "user/bench");

  constexpr int kSinks = 4;
  std::vector<std::shared_ptr<net::DatagramSocket>> sinks;
  for (int i = 0; i < kSinks; ++i) {
    auto sock = host.net_host().open_datagram(
        static_cast<std::uint16_t>(9000 + i));
    if (!sock.ok()) return;
    sinks.push_back(sock.value());
    CmdLine add("distAddSink");
    add.arg("stream", "feed");
    add.arg("dest", "stream-box:" + std::to_string(9000 + i));
    if (!client->call(dist.address(), add, daemon::kCallOk).ok()) return;
  }

  auto src = host.net_host().open_datagram(8999);
  if (!src.ok()) return;
  services::MediaPacket packet;
  packet.stream = "feed";
  packet.format = "raw_pcm";
  packet.payload = util::Bytes(1024, 0x42);
  constexpr int kPackets = 2000;
  auto start = bench::Clock::now();
  for (int i = 0; i < kPackets; ++i) {
    packet.sequence = static_cast<std::uint32_t>(i);
    if (!(*src)->send_to(dist.data_address(), packet.serialize()).ok())
      return;
  }
  // Wait for the fan-out to drain.
  auto deadline = bench::Clock::now() + 10s;
  while (dist.route_stats().frames <
             static_cast<std::uint64_t>(kPackets) &&
         bench::Clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  double seconds = bench::us_since(start) / 1e6;
  auto stats = dist.route_stats();
  std::printf("  %llu packets x %d sinks in %.2f s -> %.0f packets/s in, "
              "%.1f MB/s out\n",
              static_cast<unsigned long long>(stats.frames), kSinks, seconds,
              stats.frames / seconds,
              static_cast<double>(stats.fanout) * 1024 / seconds / 1e6);
}

// ------------------------------------------------------------------- E17

// /proc introspection for the O(threads) / flat-memory claims.
long process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0)
      return std::strtol(line.c_str() + 8, nullptr, 10);
  return -1;
}

double process_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return resident * 4096.0 / 1e6;
}

// Echo service used for the secure-fabric slice of E17.
class EchoDaemon : public daemon::ServiceDaemon {
 public:
  EchoDaemon(daemon::Environment& env, daemon::DaemonHost& host,
             daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("echo", "echo the text back")
            .arg(cmdlang::string_arg("text"))
            .concurrent_ok(),
        [](const CmdLine& cmd, const daemon::CallerInfo&) {
          CmdLine reply = cmdlang::make_ok();
          reply.arg("text", cmd.get_text("text"));
          return reply;
        });
  }
};

// The reactor-fabric scalability experiment: park tens of thousands of
// live stream endpoints (every one driven by an on_frame pump on the
// deployment's single reactor), then push a sustained ping round through
// all of them. The claims under test:
//   * thread count is O(reactor pool), independent of endpoint count,
//   * per-endpoint memory is flat (a queue pair + pump state, no stacks),
//   * the fabric still routes real daemon RPC traffic while loaded.
void endpoint_scale(bool smoke) {
  bench::header("E17", smoke
      ? "reactor fabric: concurrent endpoints (smoke scale)"
      : "reactor fabric: 60k+ concurrent endpoints, O(pool) threads");
  testenv::AceTestEnv deployment(170);
  if (!deployment.start().ok()) return;
  auto& network = deployment.env.network();
  auto& reactor = deployment.env.reactor();

  // Secure-fabric slice: a real daemon + pipelined client, so the exported
  // artifact carries end-to-end counters (handshake, dispatch, demux) from
  // the same process that holds the endpoint load.
  daemon::DaemonHost svc_host(deployment.env, "svc");
  daemon::DaemonConfig cfg;
  cfg.name = "echo";
  cfg.room = "machine-room";
  cfg.service_class = "Service/Test";
  auto& echo = svc_host.add_daemon<EchoDaemon>(cfg);
  if (!echo.start().ok()) return;
  auto client = deployment.make_client("bench", "user/bench");

  const long threads_before = process_threads();
  const double rss_before = process_rss_mb();

  // Mass-endpoint slice: raw stream connections to one hub listener. Both
  // ends of every connection get a pump, so kConns connections = 2*kConns
  // live endpoints multiplexed on the one reactor.
  const int kConns = smoke ? 1500 : 30000;
  net::Host& hub = network.add_host("hub");
  auto listener = hub.listen(100);
  if (!listener.ok()) return;

  std::atomic<long> echoed{0};
  std::mutex mu;
  std::vector<std::shared_ptr<net::Connection>> hub_side;
  std::vector<net::Subscription> pumps;
  hub_side.reserve(kConns);
  pumps.reserve(kConns * 2);
  auto accept_sub = (*listener)->on_accept(
      reactor, [&](std::optional<net::Connection> conn) {
        if (!conn) return;
        auto shared = std::make_shared<net::Connection>(std::move(*conn));
        auto pump = shared->on_frame(
            reactor, [&, shared](std::optional<net::Frame> frame) {
              if (frame) (void)shared->send(std::move(*frame));  // echo
            });
        std::scoped_lock lock(mu);
        hub_side.push_back(std::move(shared));
        pumps.push_back(std::move(pump));
      });

  std::atomic<long> replies{0};
  std::vector<net::Connection> client_side;
  client_side.reserve(kConns);
  auto connect_start = bench::Clock::now();
  for (int i = 0; i < kConns; ++i) {
    // ~25k ephemeral ports per host: spread the origins.
    net::Host* origin = network.find_host("origin" + std::to_string(i / 20000));
    if (!origin)
      origin = &network.add_host("origin" + std::to_string(i / 20000));
    auto conn = origin->connect({"hub", 100});
    if (!conn.ok()) {
      std::printf("  connect %d failed: %s\n", i,
                  conn.error().to_string().c_str());
      return;
    }
    client_side.push_back(std::move(*conn));
  }
  double connect_s = bench::us_since(connect_start) / 1e6;
  {
    // Client-side pumps count echo replies.
    std::vector<net::Subscription> client_pumps;
    client_pumps.reserve(kConns);
    for (auto& conn : client_side)
      client_pumps.push_back(conn.on_frame(
          reactor, [&](std::optional<net::Frame> frame) {
            if (frame) replies++;
          }));
    // Wait for all accepts to land.
    auto deadline = bench::Clock::now() + 60s;
    while (bench::Clock::now() < deadline) {
      std::scoped_lock lock(mu);
      if (hub_side.size() == static_cast<std::size_t>(kConns)) break;
      std::this_thread::sleep_for(1ms);
    }

    const long threads_loaded = process_threads();
    const double rss_loaded = process_rss_mb();

    // Sustained round: one ping through every endpoint pair, interleaved
    // with real RPC traffic on the secure fabric.
    const int kRpcs = smoke ? 50 : 500;
    std::jthread rpc_traffic([&] {
      CmdLine cmd("echo");
      cmd.arg("text", "loaded");
      for (int i = 0; i < kRpcs; ++i)
        if (!client->call(echo.address(), cmd, daemon::kCallOk).ok()) return;
    });
    auto ping_start = bench::Clock::now();
    for (auto& conn : client_side)
      if (!conn.send(util::to_bytes("ping")).ok()) return;
    deadline = bench::Clock::now() + 120s;
    while (replies.load() < kConns && bench::Clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    double ping_s = bench::us_since(ping_start) / 1e6;
    rpc_traffic.join();

    std::printf("  %d connections (%d live endpoints) up in %.2f s\n",
                kConns, 2 * kConns, connect_s);
    std::printf("  threads: %ld before, %ld loaded (delta %ld — O(pool), "
                "not O(connections))\n",
                threads_before, threads_loaded,
                threads_loaded - threads_before);
    std::printf("  rss: %.1f MB before, %.1f MB loaded -> %.1f KB per "
                "endpoint\n",
                rss_before, rss_loaded,
                (rss_loaded - rss_before) * 1000.0 / (2 * kConns));
    std::printf("  ping round: %ld/%d echoed in %.2f s -> %.0f frames/s "
                "(+%d RPCs on the secure fabric)\n",
                replies.load(), kConns, ping_s,
                replies.load() * 2 / std::max(ping_s, 1e-9), kRpcs);
    auto stats = reactor.stats();
    std::printf("  reactor: %llu tasks, %llu timers, %d core + %d ops "
                "threads\n",
                static_cast<unsigned long long>(stats.tasks_run),
                static_cast<unsigned long long>(stats.timers_fired),
                stats.core_threads, stats.ops_threads);

    for (auto& conn : client_side) conn.close();
    for (auto& sub : client_pumps) sub.stop();
  }
  (*listener)->close();
  accept_sub.stop();
  {
    std::scoped_lock lock(mu);
    for (auto& sub : pumps) sub.stop();
    hub_side.clear();
  }
  bench::export_metrics_json("bench_scale", deployment.env.metrics().snapshot());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  if (!smoke) {
    asd_under_load();
    aud_with_thousands_of_users();
    converter_video_throughput();
    distribution_throughput();
  }
  endpoint_scale(smoke);
  return 0;
}

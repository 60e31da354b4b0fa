// perfbench harness: runs one workload in this process and prints its
// metrics. perfbench/run.py builds this binary and drives it; see
// perfbench/README.md for the workloads, the metrics and the traced run.
//
//   perfbench --workload <cmd_rpc|store_rw|media_fanout> --seed <n>
//             --seconds <s> --trace <0|1> [--setup-only] [--trace-dir <dir>]
//
// Phases: setup (timed as setup_s), warm-up with the workload's own load
// until the reactor's ops pool has settled and the host is quiet, the
// measured window (cut into slices; a traced run alternates untraced and
// traced slices), output checks, and in a traced run the layer replay. The
// last stdout line is the result JSON.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <thread>

#include "harness.hpp"
#include "util/log.hpp"

namespace perf {
namespace {

using namespace std::chrono_literals;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string trace_dir;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"latency_p50_us", "us"},
    {"latency_p90_us", "us"}, {"cpu_us_per_op", "us"},
    {"rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"crypto.record_us", "us"},
    {"crypto.handshake_ms", "ms"},
    {"cmdlang.parse_ns", "ns"},
    {"cmdlang.parse_reply_ns", "ns"},
    {"cmdlang.serialize_ns", "ns"},
    {"cmdlang.validate_ns", "ns"},
    {"keynote.check_us", "us"},
    {"obs.span_ns", "ns"},
    {"daemon.call_us", "us"},
    {"daemon.execute_us", "us"},
    {"daemon.wire_ns", "ns"},
    {"daemon.wait_us", "us"},
    {"daemon.start_ms", "ms"},
    {"daemon.retries", "count"},
    {"net.core_hop_us", "us"},
    {"net.ops_hop_us", "us"},
    {"net.frames_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"net.tasks_per_op", "count"},
    {"net.blocking_tasks_per_op", "count"},
    {"net.threads", "count"},
    {"net.ops_spawned", "count"},
    {"net.send_many_us", "us"},
    {"net.datagrams_per_frame", "count"},
    {"services.asd_lookup_us", "us"},
    {"store.put_us", "us"},
    {"store.get_us", "us"},
    {"store.coordinate_put_us", "us"},
    {"store.coordinate_get_us", "us"},
    {"store.ring_ns", "ns"},
    {"store.hex_ns", "ns"},
    {"store.wal_us", "us"},
    {"store.records_per_flush", "count"},
    {"store.acks_per_put", "count"},
    {"store.digest_reads_per_get", "count"},
    {"store.compactions", "count"},
    {"io.fsyncs_per_put", "count"},
    {"io.bytes_per_user_byte", "ratio"},
    {"media.peek_ns", "ns"},
    {"media.lookup_ns", "ns"},
    {"media.fanout_per_frame", "count"},
    {"media.bytes_copied", "B"},
    {"media.frames_dropped", "count"},
};

// Warm-up ends once the ops pool has neither grown nor shrunk for longer
// than the reactor's ops_idle (2 s) and the host stole at most
// kWarmupStealPct of its CPU over the last two seconds. On a shared VM,
// co-tenants steal 15-25% of the CPU for minutes at a time, and a window
// inside such a stretch reads 50% slower at p50 however its slices are
// chosen; waiting here lets the window start after it. Warm-up lasts at
// least kMinWarmup, and at most what keeps warm-up plus window within
// kWarmupAndWindow, so that a whole run with its set-ups ends within three
// minutes.
constexpr auto kSettle = 2500ms;
constexpr auto kMinWarmup = 2500ms;
constexpr auto kMaxWarmupFloor = 10s;
constexpr auto kWarmupAndWindow = 120s;
constexpr auto kWarmupTick = 100ms;
constexpr std::size_t kStealTicks = 20;  // the last two seconds of warm-up
constexpr double kWarmupStealPct = 5.0;
constexpr auto kProbeEvery = 5ms;
// The window is cut into slices of kSlice seconds. Co-tenant VMs steal
// CPU from this one in bursts: on a shared 4-vCPU VM the host's steal share
// swings between 0 and over 25% from one 250 ms slice to the next, and
// every latency and CPU figure of a slice rises with it. The end-to-end
// latency and CPU metrics therefore come from the quiet slices only: every
// slice with at most kQuietStealPct steal, or if fewer than an eighth of
// the slices are that quiet, the quietest eighth. Attempted and failed ops
// count every slice.
constexpr double kSlice = 0.25;
constexpr double kQuietStealPct = 2.0;
constexpr std::size_t kQuietDivisor = 8;
constexpr std::size_t kMinQuiet = 2;
constexpr std::size_t kSpanCapacity = 1u << 19;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<cmd_rpc|store_rw|media_fanout> --seed <n> --seconds <s> "
               "--trace <0|1> [--setup-only] [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--setup-only") o.setup_only = true;
    else if (a == "--trace-dir") o.trace_dir = value();
    else usage(("unknown argument " + a).c_str());
  }
  if (o.seconds <= 0 || o.seconds > 600) usage("--seconds out of range");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "cmd_rpc") return make_cmd_rpc(o.seed);
  if (o.workload == "store_rw") return make_store_rw(o.seed);
  if (o.workload == "media_fanout") return make_media_fanout(o.seed);
  usage(("unknown workload '" + o.workload + "'").c_str());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Process CPU and host CPU counters at one slice edge.
struct Edge {
  double cpu_us = 0;
  HostCpu host;
};

double steal_pct(const HostCpu& from, const HostCpu& to) {
  return 100.0 * ratio(static_cast<double>(to.steal - from.steal),
                       static_cast<double>(to.total - from.total));
}

// The load's records merged over a set of window slices.
struct Merged {
  LatencyHistogram hist;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double cpu_us = 0;
  double steal_pct = 0;  // mean over the slices
  std::size_t slices = 0;

  double cpu_us_per_op() const {
    return ratio(cpu_us, static_cast<double>(ops));
  }
};

Merged merge(const LoadControl& ctl, int threads,
             const std::vector<Edge>& edges, const std::vector<int>& slices) {
  Merged m;
  for (const int k : slices) {
    for (int t = 0; t < threads; ++t) {
      const LoadControl::Cell& c = ctl.cells[t][k + 1];
      m.hist.merge(c.hist);
      m.ops += c.ops;
      m.failed += c.failed;
    }
    m.cpu_us += edges[k + 1].cpu_us - edges[k].cpu_us;
    m.steal_pct += steal_pct(edges[k].host, edges[k + 1].host);
  }
  m.slices = slices.size();
  if (m.slices > 0) m.steal_pct /= static_cast<double>(m.slices);
  return m;
}

// The quiet slices among `slices` (see kQuietStealPct).
std::vector<int> quietest(std::vector<int> slices,
                          const std::vector<Edge>& edges) {
  auto steal = [&](int k) { return steal_pct(edges[k].host, edges[k + 1].host); };
  std::stable_sort(slices.begin(), slices.end(),
                   [&](int a, int b) { return steal(a) < steal(b); });
  const std::size_t least = std::min(
      slices.size(), std::max(kMinQuiet, slices.size() / kQuietDivisor));
  if (least == 0) return slices;
  const double limit = std::max(kQuietStealPct, steal(slices[least - 1]));
  std::erase_if(slices, [&](int k) { return steal(k) > limit; });
  return slices;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<MetricSpec, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].first.name, metrics[i].second,
                metrics[i].first.unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Options& opt, Clock::time_point process_start) {
  util::Logger::instance().set_level(util::LogLevel::error);
  std::unique_ptr<Workload> w = make_workload(opt);
  Tracer tracer;
  if (opt.trace) tracer.enable(kSpanCapacity);

  if (auto s = w->setup(tracer); !s.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 s.error().to_string().c_str());
    return 1;
  }
  const double setup_s = us_between(process_start, Clock::now()) / 1e6;
  if (opt.setup_only) {
    w->teardown();
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }

  Infra& infra = w->infra();
  net::Reactor& reactor = infra.env.reactor();
  auto ctl = std::make_unique<LoadControl>();
  ctl->slices = std::clamp(static_cast<int>(std::lround(opt.seconds / kSlice)),
                           2, LoadControl::kMaxSlices);
  ctl->trace = opt.trace;
  ctl->tracer = &tracer;
  const auto slice_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opt.seconds / ctl->slices));

  std::vector<std::jthread> load;
  for (int t = 0; t < w->threads(); ++t)
    load.emplace_back([&w, &ctl, t] { w->drive(t, *ctl); });

  // Warm-up: the workload's own load until the ops pool settles and the
  // host is quiet.
  const auto max_warmup = std::max<Clock::duration>(
      kMaxWarmupFloor, kWarmupAndWindow - slice_len * ctl->slices);
  const auto warm_start = Clock::now();
  auto last_change = warm_start;
  net::Reactor::Stats pool = reactor.stats();
  std::deque<HostCpu> recent{read_host_cpu()};
  double warmup_steal = 100;
  for (;;) {
    std::this_thread::sleep_for(kWarmupTick);
    const auto now = Clock::now();
    const net::Reactor::Stats st = reactor.stats();
    if (st.ops_spawned != pool.ops_spawned || st.ops_threads != pool.ops_threads) {
      pool = st;
      last_change = now;
    }
    recent.push_back(read_host_cpu());
    if (recent.size() > kStealTicks + 1) recent.pop_front();
    if (recent.size() == kStealTicks + 1)
      warmup_steal = steal_pct(recent.front(), recent.back());
    if ((now - warm_start >= kMinWarmup && now - last_change >= kSettle &&
         warmup_steal <= kWarmupStealPct) ||
        now - warm_start >= max_warmup)
      break;
  }
  const double warmup_s = us_between(warm_start, Clock::now()) / 1e6;

  // Reactor hop probes, traced slices only.
  std::atomic<int> probes_inflight{0};
  std::jthread prober;
  if (opt.trace) {
    prober = std::jthread([&](std::stop_token st) {
      while (!st.stop_requested()) {
        if (ctl->traced(ctl->current())) {
          const auto posted = Clock::now();
          probes_inflight += 2;
          reactor.post([&, posted] {
            tracer.record("net.core_hop", posted, Clock::now());
            --probes_inflight;
          });
          reactor.post_blocking([&, posted] {
            tracer.record("net.ops_hop", posted, Clock::now());
            --probes_inflight;
          });
        }
        std::this_thread::sleep_for(kProbeEvery);
      }
    });
  }

  // The measured window.
  const obs::MetricsSnapshot before = infra.env.metrics().snapshot();
  const WindowCounts counts0 = w->counts();
  std::vector<Edge> edges(static_cast<std::size_t>(ctl->slices) + 1);
  const auto window_start = Clock::now();
  edges[0] = {process_cpu_us(), read_host_cpu()};
  for (int k = 0; k < ctl->slices; ++k) {
    ctl->slice.store(k, std::memory_order_release);
    std::this_thread::sleep_until(window_start + slice_len * (k + 1));
    edges[static_cast<std::size_t>(k) + 1] = {process_cpu_us(), read_host_cpu()};
  }
  const double window_s = us_between(window_start, Clock::now()) / 1e6;
  const double rss_raw = rss_mib();
  malloc_trim(0);
  const double rss = rss_mib();
  const int harness_threads = 1 + w->threads() + (opt.trace ? 1 : 0);
  const int threads_at_end = process_threads();
  const obs::MetricsSnapshot after = infra.env.metrics().snapshot();
  const WindowCounts counts1 = w->counts();
  ctl->slice.store(ctl->slices, std::memory_order_release);
  load.clear();  // joins
  if (prober.joinable()) {
    prober.request_stop();
    prober.join();
  }
  for (int i = 0; i < 200 && probes_inflight.load() > 0; ++i)
    std::this_thread::sleep_for(5ms);

  std::string why;
  const std::uint64_t failed_checks = w->verify(why);
  std::vector<int> all_slices, traced_slices, untraced_slices;
  for (int k = 0; k < ctl->slices; ++k) {
    all_slices.push_back(k);
    (ctl->traced(k) ? traced_slices : untraced_slices).push_back(k);
  }
  const Merged all = merge(*ctl, w->threads(), edges, all_slices);
  // Untraced slices only: in a traced run the odd slices carry spans.
  const Merged quiet = merge(*ctl, w->threads(), edges,
                             quietest(untraced_slices, edges));
  const std::uint64_t failed = all.failed + failed_checks;
  const bool correct = failed == 0 && all.ops > 0;
  auto delta = [&](const char* name) {
    return static_cast<double>(after.counter_value(name) -
                               before.counter_value(name));
  };
  const double ops = static_cast<double>(all.ops);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf(
      "diag seed=%llu attempted=%llu failed=%llu (checks %llu%s%s) "
      "window_s=%.3f throughput_ops_s=%.1f p99_us=%.2f steal_pct=%.2f "
      "quiet_slices=%zu/%d quiet_steal_pct=%.2f warmup_s=%.1f "
      "warmup_steal_pct=%.1f "
      "reactor.threads=%lld reactor.ops_spawned=%.0f process_threads=%d "
      "rss_untrimmed_mb=%.1f\n",
      static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(all.ops),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(failed_checks), why.empty() ? "" : ": ",
      why.c_str(), window_s, ops / window_s, all.hist.percentile(99),
      steal_pct(edges.front().host, edges.back().host), quiet.slices,
      ctl->slices, quiet.steal_pct, warmup_s, warmup_steal,
      static_cast<long long>(after.gauge_value("reactor.threads")),
      delta("reactor.ops_spawned"), threads_at_end, rss_raw);
  std::printf("slices p50_us/steal_pct:");
  for (int k = 0; k < ctl->slices; ++k) {
    const Merged one = merge(*ctl, w->threads(), edges, {k});
    std::printf(" %.0f/%.0f", one.hist.percentile(50), one.steal_pct);
  }
  std::printf("\n");

  std::vector<std::pair<MetricSpec, double>> out;
  if (!opt.trace) {
    const double values[] = {setup_s, quiet.hist.percentile(50),
                             quiet.hist.percentile(90), quiet.cpu_us_per_op(),
                             rss};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
      out.emplace_back(kEndToEnd[i], values[i]);
    std::printf("metric latency_p50_us=%.2f latency_p90_us=%.2f (n=%llu) "
                "cpu_us_per_op=%.3f rss_mb=%.1f setup_s=%.4f (this process)\n",
                values[1], values[2],
                static_cast<unsigned long long>(quiet.hist.count()), values[3],
                values[4], values[0]);
    w->teardown();
    print_result(correct, all.ops, failed, out);
    return 0;
  }

  // Traced run: per-layer metrics.
  LayerInputs in = w->layer_inputs();
  in.mean_frame_bytes =
      ratio(delta("net.bytes_sent"), delta("net.frames_sent"));
  if (!in.frames.empty()) {
    double total = 0;
    for (const auto& f : in.frames) total += static_cast<double>(f.size());
    in.mean_frame_bytes = total / static_cast<double>(in.frames.size());
  }
  std::map<std::string, double> m = replay_layers(infra, in, tracer, opt.seed);
  const double puts = static_cast<double>(counts1.puts - counts0.puts);
  const double gets = static_cast<double>(counts1.gets - counts0.gets);
  m["daemon.retries"] = delta("client.retries") + delta("client.timeouts") +
                        delta("client.reconnects");
  m["net.frames_per_op"] = ratio(delta("net.frames_sent"), ops);
  m["net.bytes_per_op"] = ratio(delta("net.bytes_sent"), ops);
  m["net.tasks_per_op"] = ratio(delta("reactor.tasks"), ops);
  m["net.blocking_tasks_per_op"] = ratio(delta("reactor.blocking_tasks"), ops);
  m["net.threads"] = threads_at_end - harness_threads;
  m["net.ops_spawned"] = delta("reactor.ops_spawned");
  m["net.datagrams_per_frame"] = ratio(delta("net.datagrams_delivered"), ops);
  m["store.records_per_flush"] =
      ratio(delta("store.batch_records"), delta("store.batch_flushes"));
  m["store.acks_per_put"] = ratio(delta("store.replica_acks"), puts);
  m["store.digest_reads_per_get"] = ratio(delta("store.digest_reads"), gets);
  m["store.compactions"] = delta("store.snapshot_compactions");
  m["io.fsyncs_per_put"] =
      ratio(static_cast<double>(counts1.disk_fsyncs - counts0.disk_fsyncs), puts);
  m["io.bytes_per_user_byte"] =
      ratio(static_cast<double>(counts1.disk_bytes - counts0.disk_bytes),
            static_cast<double>(counts1.user_bytes - counts0.user_bytes));
  m["media.fanout_per_frame"] =
      ratio(delta("media.datagrams_fanned"), delta("media.frames_routed"));
  m["media.bytes_copied"] = delta("media.bytes_copied");
  m["media.frames_dropped"] = delta("media.frames_dropped");

  // Tracing overhead: the quiet traced slices minus the quiet untraced
  // slices of this window.
  const Merged traced = merge(*ctl, w->threads(), edges,
                              quietest(traced_slices, edges));
  std::printf(
      "trace_overhead latency_p50_us=%+.2f (%.2f vs %.2f) latency_p90_us=%+.2f "
      "(%.2f vs %.2f) cpu_us_per_op=%+.3f (%.3f vs %.3f) span_store_mib=%.1f "
      "spans=%zu dropped=%llu\n",
      traced.hist.percentile(50) - quiet.hist.percentile(50),
      traced.hist.percentile(50), quiet.hist.percentile(50),
      traced.hist.percentile(90) - quiet.hist.percentile(90),
      traced.hist.percentile(90), quiet.hist.percentile(90),
      traced.cpu_us_per_op() - quiet.cpu_us_per_op(), traced.cpu_us_per_op(),
      quiet.cpu_us_per_op(),
      static_cast<double>(tracer.used() * sizeof(SpanRecord)) / (1 << 20),
      tracer.used(), static_cast<unsigned long long>(tracer.dropped()));

  for (const MetricSpec& spec : kPerLayer) {
    const double v = m.at(spec.name);
    out.emplace_back(spec, v);
    std::printf("layer %-28s %14.4f %s\n", spec.name, v, spec.unit);
  }
  if (!opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (tracer.write_chrome_trace(path))
      std::printf("trace written to %s\n", path.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  w->teardown();
  print_result(correct, all.ops, failed, out);
  return 0;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  const auto process_start = perf::Clock::now();
  return perf::run(perf::parse(argc, argv), process_start);
}

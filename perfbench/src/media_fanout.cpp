// media_fanout: the §4.15 datagram plane. One DistributionDaemon routes
// four stream tags, each installed at setup by `routeAdd` to the same 16
// sink sockets. The sinks are reactor-pumped and only check tag and
// sequence and bump a counter. One driver thread keeps one pre-serialized
// 20 ms AudioFrame in flight per stream; an op is one frame, timed from
// send_to until the last of the 16 sinks has it. The path is SharedBytes,
// FrameRouter, send_many and the datagram pumps: no crypto, cmdlang,
// keynote or store work.
#include <condition_variable>
#include <mutex>

#include "harness.hpp"
#include "media/audio.hpp"
#include "services/streaming.hpp"
#include "util/rng.hpp"

namespace perf {
namespace {

using cmdlang::CmdLine;
using namespace std::chrono_literals;

constexpr int kStreams = 4;
constexpr int kSinks = 16;
constexpr std::uint32_t kPool = 512;  // pre-serialized frames per stream
constexpr auto kFrameTimeout = 1s;

class MediaFanout final : public Workload {
 public:
  explicit MediaFanout(std::uint64_t seed) : infra_(seed) {
    util::Rng rng(seed);
    for (int s = 0; s < kStreams; ++s) {
      tags_[s] = "room-" + rng.next_name(4) + "-mic" + std::to_string(s);
      // A seeded tone per stream, sliced into consecutive 20 ms frames.
      const double hz = 200.0 + 50.0 * static_cast<double>(rng.next_below(40));
      const auto phase = static_cast<std::size_t>(rng.next_below(1000));
      for (std::uint32_t k = 0; k < kPool; ++k) {
        const auto samples = media::sine_wave(
            hz, 8000.0, media::kFrameSamples, phase + k * media::kFrameSamples);
        pool_[s].push_back(media::serialize_frame(tags_[s], k, samples));
      }
    }
  }

  ~MediaFanout() override { teardown(); }

  Infra& infra() override { return infra_; }
  int threads() const override { return 1; }

  util::Status setup(Tracer& tracer) override {
    if (auto s = infra_.start(); !s.ok()) return s;
    // No daemon here enforces authorization; the credential only feeds the
    // traced run's KeyNote replay.
    if (auto s = infra_.grant(kPrincipal, "app_domain == \"ace\""); !s.ok())
      return s;

    dist_host_ = std::make_unique<daemon::DaemonHost>(infra_.env, "dist-host");
    daemon::DaemonConfig cfg;
    cfg.name = "dist";
    cfg.room = "hawk";
    dist_ = &dist_host_->add_daemon<services::DistributionDaemon>(cfg);
    {
      ScopedSpan span(tracer, "daemon.start");
      if (auto s = dist_->start(); !s.ok()) return s;
    }

    net::Reactor& reactor = infra_.env.reactor();
    auto& sink_host = infra_.env.network().add_host("sink-host");
    for (int i = 0; i < kSinks; ++i) {
      auto sock = sink_host.open_datagram(static_cast<std::uint16_t>(7000 + i));
      if (!sock.ok()) return sock.error();
      sinks_[i] = sock.value();
      sink_subs_[i] = sinks_[i]->on_datagram(
          reactor, [this, i](std::optional<net::Datagram> dg) {
            if (dg) on_sink(i, *dg);
          });
    }
    auto drv = infra_.env.network().add_host("media-driver").open_datagram();
    if (!drv.ok()) return drv.error();
    driver_ = drv.value();

    client_ = infra_.make_client("media-ctl", kPrincipal);
    for (int s = 0; s < kStreams; ++s) {
      for (int i = 0; i < kSinks; ++i) {
        CmdLine add("routeAdd");
        add.arg("stream", tags_[s]);
        add.arg("dest", sinks_[i]->address().to_string());
        auto r = client_->call(dist_->address(), add, daemon::kCallOk);
        if (!r.ok()) return r.error();
        route_cmds_.push_back(std::move(add));
      }
    }
    return util::Status::ok_status();
  }

  void drive(int t, LoadControl& ctl) override {
    const net::Address dest = dist_->data_address();
    std::uint32_t next_seq[kStreams] = {};
    Clock::time_point sent_at[kStreams];
    auto send = [&](int s) {
      arrivals_[s].store(0, std::memory_order_relaxed);
      const std::uint32_t seq = next_seq[s]++;
      sent_at[s] = Clock::now();
      (void)driver_->send_to(dest, pool_[s][seq % kPool]);
    };
    for (int s = 0; s < kStreams; ++s) send(s);

    std::uint64_t op = 0;
    bool stopping = false;
    int outstanding = kStreams;
    while (outstanding > 0) {
      const int slice = ctl.current();
      stopping = stopping || ctl.stopping(slice);
      std::uint32_t done_mask = 0;
      {
        std::unique_lock lock(mu_);
        cv_.wait_for(lock, 50ms, [&] { return done_mask_ != 0; });
        done_mask = std::exchange(done_mask_, 0);
      }
      const auto now = Clock::now();
      for (int s = 0; s < kStreams; ++s) {
        const bool done = (done_mask >> s) & 1u;
        const bool lost = !done && now - sent_at[s] > kFrameTimeout &&
                          arrivals_[s].load() < kSinks;
        if (!done && !lost) continue;
        if (lost) lost_frames_.fetch_add(1);
        const Clock::time_point end =
            done ? done_at_[s].load(std::memory_order_acquire) : now;
        if (!stopping) {
          ctl.record(t, slice, us_between(sent_at[s], end), done);
          ctl.tracer_for(slice).record("media.frame", sent_at[s], end, 0,
                                       ++op);
        }
        completed_[s] += done ? 1 : 0;
        if (stopping) {
          --outstanding;
        } else {
          send(s);
        }
      }
    }
  }

  std::uint64_t verify(std::string& why) override {
    std::uint64_t bad = seq_errors_.load() + lost_frames_.load();
    for (int i = 0; i < kSinks; ++i)
      for (int s = 0; s < kStreams; ++s)
        if (received_[i][s].load() != completed_[s]) {
          ++bad;
          if (why.empty())
            why = "sink " + std::to_string(i) + " stream " + std::to_string(s) +
                  " got " + std::to_string(received_[i][s].load()) + " of " +
                  std::to_string(completed_[s]) + " frames";
        }
    const std::uint64_t copied =
        infra_.env.metrics().counter("media.bytes_copied").value();
    if (copied > 0) {
      ++bad;
      why = "media.bytes_copied = " + std::to_string(copied);
    }
    if (why.empty() && bad > 0) why = "frames lost or out of sequence";
    return bad;
  }

  LayerInputs layer_inputs() override {
    LayerInputs in;
    in.target = dist_;
    in.client = client_.get();
    in.principal = kPrincipal;
    in.target_name = "dist";
    in.requests = route_cmds_;
    in.router = &dist_->router();
    for (int s = 0; s < kStreams; ++s)
      for (std::uint32_t k = 0; k < kPool; k += kPool / 16)
        in.frames.push_back(pool_[s][k]);
    return in;
  }

  void teardown() override {
    if (!dist_host_) return;
    client_.reset();
    for (auto& sub : sink_subs_) sub.stop();
    for (auto& sink : sinks_)
      if (sink) sink->close();
    if (driver_) driver_->close();
    dist_host_->stop_all();
    dist_host_.reset();
  }

 private:
  static constexpr const char* kPrincipal = "user/perf-media";

  // Runs on a reactor core worker, serialized per sink socket.
  void on_sink(int sink, const net::Datagram& dg) {
    const auto view = media::AudioFrameView::parse(dg.payload.view());
    int s = 0;
    while (view && s < kStreams && view->stream != tags_[s]) ++s;
    if (!view || s == kStreams) {
      seq_errors_.fetch_add(1);
      return;
    }
    const std::uint32_t expect =
        expected_[sink][s].fetch_add(1, std::memory_order_relaxed) % kPool;
    if (view->sequence != expect) seq_errors_.fetch_add(1);
    received_[sink][s].fetch_add(1, std::memory_order_relaxed);
    if (arrivals_[s].fetch_add(1, std::memory_order_acq_rel) + 1 == kSinks) {
      done_at_[s].store(Clock::now(), std::memory_order_release);
      {
        std::scoped_lock lock(mu_);
        done_mask_ |= 1u << s;
      }
      cv_.notify_one();
    }
  }

  Infra infra_;
  std::string tags_[kStreams];
  std::vector<util::SharedBytes> pool_[kStreams];
  std::unique_ptr<daemon::DaemonHost> dist_host_;
  services::DistributionDaemon* dist_ = nullptr;
  std::shared_ptr<net::DatagramSocket> sinks_[kSinks];
  std::shared_ptr<net::DatagramSocket> driver_;
  std::unique_ptr<daemon::AceClient> client_;
  std::vector<CmdLine> route_cmds_;

  std::atomic<std::uint32_t> arrivals_[kStreams] = {};
  std::atomic<Clock::time_point> done_at_[kStreams] = {};
  std::atomic<std::uint32_t> expected_[kSinks][kStreams] = {};
  std::atomic<std::uint64_t> received_[kSinks][kStreams] = {};
  std::uint64_t completed_[kStreams] = {};
  std::atomic<std::uint64_t> seq_errors_{0};
  std::atomic<std::uint64_t> lost_frames_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint32_t done_mask_ = 0;
  // Sink pumps capture `this`; teardown() stops them before any state
  // they touch goes away.
  net::Subscription sink_subs_[kSinks];
};

}  // namespace

std::unique_ptr<Workload> make_media_fanout(std::uint64_t seed) {
  return std::make_unique<MediaFanout>(seed);
}

}  // namespace perf

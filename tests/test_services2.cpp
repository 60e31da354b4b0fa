// Second service-layer suite: notification wiring between infrastructure
// services (ASD watchers, HRM samplers, NetLogger alerts), SAL fallback
// paths, the Converter's video route over the network, and mixed
// concurrent/control command traffic.
#include <gtest/gtest.h>

#include <atomic>

#include "ace_test_env.hpp"
#include "endpoint_waiter.hpp"
#include "apps/vnc.hpp"
#include "apps/workspace_backend.hpp"
#include "media/codec.hpp"
#include "services/launchers.hpp"
#include "services/monitors.hpp"
#include "services/streaming.hpp"
#include "services/workspace.hpp"
#include "store/persistent_store.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

namespace {

// Generic notification sink counting deliveries per command name.
class CountingSink : public daemon::ServiceDaemon {
 public:
  CountingSink(daemon::Environment& env, daemon::DaemonHost& host,
               daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(cmdlang::CommandSpec("onEvent", "sink")
                         .arg(cmdlang::string_arg("source"))
                         .arg(cmdlang::word_arg("command"))
                         .arg(cmdlang::string_arg("detail")),
                     [this](const CmdLine& cmd, const daemon::CallerInfo&) {
                       std::scoped_lock lock(mu_);
                       counts_[cmd.get_text("command")]++;
                       last_detail_ = cmd.get_text("detail");
                       return cmdlang::make_ok();
                     });
  }

  int count(const std::string& command) const {
    std::scoped_lock lock(mu_);
    auto it = counts_.find(command);
    return it == counts_.end() ? 0 : it->second;
  }
  std::string last_detail() const {
    std::scoped_lock lock(mu_);
    return last_detail_;
  }
  bool wait_count(const std::string& command, int n,
                  std::chrono::milliseconds timeout = 3s) const {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (count(command) >= n) return true;
      std::this_thread::sleep_for(10ms);
    }
    return count(command) >= n;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, int> counts_;
  std::string last_detail_;
};

}  // namespace

class Services2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    host_ = std::make_unique<daemon::DaemonHost>(deployment_->env, "work");
    client_ = deployment_->make_client("laptop", "user/tester");
  }

  daemon::DaemonConfig config(const std::string& name) {
    daemon::DaemonConfig c;
    c.name = name;
    c.room = "hawk";
    return c;
  }

  CountingSink& make_sink(const std::string& name) {
    auto& sink = host_->add_daemon<CountingSink>(config(name));
    EXPECT_TRUE(sink.start().ok());
    return sink;
  }

  void subscribe(const net::Address& notifier, const std::string& command,
                 const CountingSink& sink) {
    CmdLine sub("addNotification");
    sub.arg("command", Word{command});
    sub.arg("service", sink.address().to_string());
    sub.arg("method", Word{"onEvent"});
    ASSERT_TRUE(client_->call(notifier, sub, daemon::kCallOk).ok());
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::DaemonHost> host_;
  std::unique_ptr<daemon::AceClient> client_;
};

// ------------------------------------------------------------- ASD watchers

TEST_F(Services2Test, AsdRegisterDeregisterNotifyWatchers) {
  auto& sink = make_sink("watcher");
  subscribe(deployment_->env.asd_address, "register", sink);
  subscribe(deployment_->env.asd_address, "deregister", sink);

  auto& svc = host_->add_daemon<services::HrmDaemon>(config("newcomer"));
  ASSERT_TRUE(svc.start().ok());
  ASSERT_TRUE(sink.wait_count("register", 1));
  // The notification detail carries the original register command.
  auto detail = cmdlang::Parser::parse(sink.last_detail());
  ASSERT_TRUE(detail.ok());
  EXPECT_EQ(detail->name(), "register");
  EXPECT_EQ(detail->get_text("name"), "newcomer");

  svc.stop();
  EXPECT_TRUE(sink.wait_count("deregister", 1));
}

TEST_F(Services2Test, AsdExpiryNotifiesWatchers) {
  auto& sink = make_sink("reaper-watcher");
  subscribe(deployment_->env.asd_address, "serviceExpired", sink);

  daemon::DaemonConfig c = config("shortlease");
  c.lease = 300ms;
  c.lease_renew = 100ms;
  auto& svc = host_->add_daemon<services::HrmDaemon>(c);
  ASSERT_TRUE(svc.start().ok());
  svc.crash();
  ASSERT_TRUE(sink.wait_count("serviceExpired", 1, 3s));
  auto detail = cmdlang::Parser::parse(sink.last_detail());
  ASSERT_TRUE(detail.ok());
  EXPECT_EQ(detail->get_text("name"), "shortlease");
}

// ------------------------------------------------------------- HRM sampling

TEST_F(Services2Test, HrmSamplerPushesPeriodicSamples) {
  services::HrmOptions options;
  options.sample_period = 50ms;
  auto& hrm = host_->add_daemon<services::HrmDaemon>(config("hrm"), options);
  ASSERT_TRUE(hrm.start().ok());
  auto& sink = make_sink("load-watcher");
  subscribe(hrm.address(), "hrmSample", sink);

  host_->set_base_load(0.42);
  ASSERT_TRUE(sink.wait_count("hrmSample", 3));
  auto detail = cmdlang::Parser::parse(sink.last_detail());
  ASSERT_TRUE(detail.ok());
  EXPECT_EQ(detail->name(), "hrmSample");
  EXPECT_DOUBLE_EQ(detail->get_real("cpu_load"), 0.42);

  // The sampler dies with the process and comes back with the relaunch:
  // a subscriber of the new process receives samples again.
  hrm.crash();
  ASSERT_TRUE(hrm.start().ok());
  auto& fresh = make_sink("load-watcher-2");
  subscribe(hrm.address(), "hrmSample", fresh);
  EXPECT_TRUE(fresh.wait_count("hrmSample", 3));
}

// --------------------------------------------------------- NetLogger alerts

TEST_F(Services2Test, SecurityAlertNotificationReachesSubscribers) {
  auto& sink = make_sink("siem");
  subscribe(deployment_->env.net_logger_address, "securityAlert", sink);

  for (int i = 0; i < 3; ++i) {
    CmdLine log("log");
    log.arg("source", "door-scanner");
    log.arg("level", Word{"security"});
    log.arg("message", "invalid identification attempt");
    ASSERT_TRUE(
        client_->call(deployment_->env.net_logger_address, log, daemon::kCallOk).ok());
  }
  ASSERT_TRUE(sink.wait_count("securityAlert", 1));
  auto detail = cmdlang::Parser::parse(sink.last_detail());
  ASSERT_TRUE(detail.ok());
  EXPECT_EQ(detail->get_text("source"), "door-scanner");
}

// ------------------------------------------------------------- SAL fallback

TEST_F(Services2Test, SalFallsBackToHalHostWithoutSrm) {
  auto& hal = host_->add_daemon<services::HalDaemon>(config("hal"));
  auto& sal = host_->add_daemon<services::SalDaemon>(config("sal"));
  ASSERT_TRUE(hal.start().ok());
  ASSERT_TRUE(sal.start().ok());
  // No SRM/HRM anywhere: SAL must still place via any registered HAL.
  CmdLine launch("salLaunch");
  launch.arg("command", "lonely-app");
  auto r = client_->call(sal.address(), launch, daemon::kCallOk);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->get_text("host"), "work");
  EXPECT_EQ(host_->processes().size(), 1u);
}

TEST_F(Services2Test, SalFailsCleanlyWithNoHals) {
  auto& sal = host_->add_daemon<services::SalDaemon>(config("sal"));
  ASSERT_TRUE(sal.start().ok());
  CmdLine launch("salLaunch");
  launch.arg("command", "nowhere-app");
  auto r = client_->call(sal.address(), launch);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(cmdlang::is_error(r.value()));
}

// -------------------------------------------------------- video conversion

TEST_F(Services2Test, ConverterVideoRouteCompressesAndDecodes) {
  auto& conv = host_->add_daemon<services::ConverterDaemon>(config("conv"));
  ASSERT_TRUE(conv.start().ok());
  auto dest = host_->net_host().open_datagram(9300);
  ASSERT_TRUE(dest.ok());
  testenv::DatagramInbox dest_rx(deployment_->env.reactor(), **dest);

  CmdLine route("convRoute");
  route.arg("stream", "cam-feed");
  route.arg("from", Word{"raw_video"});
  route.arg("to", Word{"rle_video"});
  route.arg("dest", "work:9300");
  ASSERT_TRUE(client_->call(conv.address(), route, daemon::kCallOk).ok());

  auto src = host_->net_host().open_datagram(9301);
  ASSERT_TRUE(src.ok());

  constexpr int kFrames = 10;
  constexpr int kW = 64, kH = 48;
  media::VideoFrame reference;
  bool has_ref = false;
  std::size_t raw_bytes = 0, encoded_bytes = 0;
  std::size_t last_frame_bytes = 0, frame_raw_bytes = 0;
  for (int t = 0; t < kFrames; ++t) {
    media::VideoFrame frame = media::synthetic_frame(kW, kH, t);
    services::MediaPacket packet;
    packet.stream = "cam-feed";
    packet.sequence = static_cast<std::uint32_t>(t);
    packet.format = "raw_video";
    util::ByteWriter w;
    w.u32(kW);
    w.u32(kH);
    w.raw(frame.pixels);
    packet.payload = w.take();
    raw_bytes += packet.payload.size();
    ASSERT_TRUE(
        (*src)->send_to(conv.data_address(), packet.serialize()).ok());

    auto out = dest_rx.next(2s);
    ASSERT_TRUE(out.has_value()) << "frame " << t;
    auto out_packet = services::MediaPacket::parse(out->payload);
    ASSERT_TRUE(out_packet.has_value());
    EXPECT_EQ(out_packet->format, "rle_video");
    encoded_bytes += out_packet->payload.size();
    last_frame_bytes = out_packet->payload.size();
    frame_raw_bytes = packet.payload.size();

    // A receiver with matching reference state reconstructs losslessly.
    auto decoded = media::rle_video_decode(out_packet->payload,
                                           has_ref ? &reference : nullptr);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->pixels, frame.pixels);
    reference = std::move(*decoded);
    has_ref = true;
  }
  // The intra (first) frame of the per-pixel gradient compresses poorly;
  // inter frames delta-code the static background to near nothing.
  EXPECT_LT(encoded_bytes, raw_bytes);
  EXPECT_LT(last_frame_bytes, frame_raw_bytes / 8);
}

// -------------------------------------------- concurrent + control commands

TEST_F(Services2Test, ControlCommandsStayResponsiveUnderStoreLoad) {
  daemon::DaemonConfig c = config("store");
  c.port = 6000;
  auto& replica = host_->add_daemon<store::PersistentStoreDaemon>(c, 1);
  ASSERT_TRUE(replica.start().ok());

  // Hammer the concurrent storePut path from two writers while verifying
  // the control-thread path (ping/info) stays live.
  std::atomic<bool> stop{false};
  std::vector<std::jthread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      auto wc = deployment_->make_client("writer" + std::to_string(w),
                                         "svc/writer");
      int i = 0;
      while (!stop.load()) {
        CmdLine put("storePut");
        put.arg("key", "k" + std::to_string(i++ % 20));
        put.arg("data", "abcd");
        (void)wc->call(replica.address(), put,
                       daemon::CallOptions{.timeout = 500ms});
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    auto r = client_->call(replica.address(), CmdLine("info"), daemon::kCallOk);
    ASSERT_TRUE(r.ok()) << "control path wedged at iteration " << i;
  }
  stop.store(true);
  writers.clear();
  EXPECT_GT(replica.object_count(), 0u);
}

// --------------------------------------------- WSS destroy tears down server

TEST_F(Services2Test, WssRemoveDestroysVncServer) {
  auto& wss = host_->add_daemon<services::WssDaemon>(config("wss"));
  ASSERT_TRUE(wss.start().ok());
  apps::VncWorkspaceFactory factory(deployment_->env, {host_.get()}, {});
  factory.install(wss);

  CmdLine create("wssCreate");
  create.arg("owner", Word{"kate"});
  create.arg("name", Word{"scratch"});
  auto ws = client_->call(wss.address(), create, daemon::kCallOk);
  ASSERT_TRUE(ws.ok());
  net::Address server_addr{ws->get_text("host"),
                           static_cast<std::uint16_t>(ws->get_integer("port"))};
  auto* server = factory.server_at(server_addr);
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server->running());

  CmdLine remove("wssRemove");
  remove.arg("workspace", "kate/scratch");
  ASSERT_TRUE(client_->call(wss.address(), remove, daemon::kCallOk).ok());
  EXPECT_FALSE(server->running());
  EXPECT_EQ(factory.server_at(server_addr), nullptr);
}

TEST_F(Services2Test, AsdReRegistrationReplacesStaleEntry) {
  // A restarted service re-registers under the same name with a new
  // address (the Robustness Manager path depends on this).
  auto reg = [&](const char* host_name, int port) {
    CmdLine r("register");
    r.arg("name", Word{"phoenix"});
    r.arg("host", host_name);
    r.arg("port", std::int64_t{port});
    r.arg("lease", std::int64_t{60000});
    ASSERT_TRUE(client_->call(deployment_->env.asd_address, r, daemon::kCallOk).ok());
  };
  reg("old-host", 1000);
  reg("new-host", 2000);  // restart elsewhere

  auto found = services::AsdClient(*client_, deployment_->env.asd_address).lookup("phoenix");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->address.to_string(), "new-host:2000");
  EXPECT_EQ(deployment_->asd->live_count(), 4u);  // 3 infra + 1, not 5
}

TEST_F(Services2Test, HelpForUnknownCommandFails) {
  CmdLine help("help");
  help.arg("command", Word{"teleport"});
  auto r = client_->call(deployment_->env.asd_address, help);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(cmdlang::is_error(r.value()));
  EXPECT_EQ(cmdlang::reply_error(r.value()).code, util::Errc::not_found);
}

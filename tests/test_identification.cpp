// Tests for the identification stack (paper §4.6, §4.8, §4.9; Scenario 2):
// FIU fingerprint matching, iButton resolution, and the ID Monitor's
// reaction chain (AUD location update + workspace bring-up via WSS).
#include <gtest/gtest.h>

#include "ace_test_env.hpp"
#include "services/identification.hpp"
#include "services/launchers.hpp"
#include "services/user_db.hpp"
#include "services/workspace.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

namespace {
cmdlang::Vector features(std::initializer_list<double> values) {
  return cmdlang::real_vector(std::vector<double>(values));
}
}  // namespace

class IdentificationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    client_ = deployment_->make_client("admin-pc", "user/admin");

    host_ = std::make_unique<daemon::DaemonHost>(deployment_->env, "hawk-box");
    aud_ = &host_->add_daemon<services::UserDbDaemon>(config("aud"));
    ASSERT_TRUE(aud_->start().ok());

    // Register John with fingerprint template + iButton serial.
    CmdLine add("userAdd");
    add.arg("username", Word{"john"});
    add.arg("fullname", "John Doe");
    add.arg("fingerprint", "fp-john");
    add.arg("ibutton", "IB-77");
    ASSERT_TRUE(client_->call(aud_->address(), add, daemon::kCallOk).ok());
  }

  daemon::DaemonConfig config(const std::string& name) {
    daemon::DaemonConfig c;
    c.name = name;
    c.room = "hawk";
    return c;
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::DaemonHost> host_;
  std::unique_ptr<daemon::AceClient> client_;
  services::UserDbDaemon* aud_ = nullptr;
};

TEST_F(IdentificationTest, FiuEnrollAndExactScan) {
  auto& fiu = host_->add_daemon<services::FiuDaemon>(config("fiu"));
  ASSERT_TRUE(fiu.start().ok());

  CmdLine enroll("fiuEnroll");
  enroll.arg("template", Word{"fp_john"});
  enroll.arg("features", features({0.1, 0.9, 0.3, 0.7}));
  ASSERT_TRUE(client_->call(fiu.address(), enroll, daemon::kCallOk).ok());

  // The AUD knows the template as "fp-john"; re-register to match.
  CmdLine fix("userUpdate");
  fix.arg("username", Word{"john"});
  fix.arg("fingerprint", "fp_john");
  ASSERT_TRUE(client_->call(aud_->address(), fix, daemon::kCallOk).ok());

  CmdLine scan("fiuScan");
  scan.arg("features", features({0.1, 0.9, 0.3, 0.7}));
  scan.arg("station", "podium");
  auto r = client_->call(fiu.address(), scan, daemon::kCallOk);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->get_text("user"), "john");
  EXPECT_NEAR(r->get_real("distance"), 0.0, 1e-9);
}

TEST_F(IdentificationTest, FiuToleratesSensorNoiseWithinThreshold) {
  services::FiuOptions options;
  options.match_threshold = 0.5;
  auto& fiu = host_->add_daemon<services::FiuDaemon>(config("fiu"), options);
  ASSERT_TRUE(fiu.start().ok());

  CmdLine fix("userUpdate");
  fix.arg("username", Word{"john"});
  fix.arg("fingerprint", "fp_john");
  ASSERT_TRUE(client_->call(aud_->address(), fix, daemon::kCallOk).ok());

  CmdLine enroll("fiuEnroll");
  enroll.arg("template", Word{"fp_john"});
  enroll.arg("features", features({0.5, 0.5, 0.5, 0.5}));
  ASSERT_TRUE(client_->call(fiu.address(), enroll, daemon::kCallOk).ok());

  // Slightly noisy scan still matches.
  CmdLine scan("fiuScan");
  scan.arg("features", features({0.55, 0.45, 0.52, 0.48}));
  auto r = client_->call(fiu.address(), scan, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->get_text("user"), "john");

  // A very different finger does not.
  CmdLine bad("fiuScan");
  bad.arg("features", features({0.9, 0.1, 0.9, 0.1}));
  auto denied = client_->call(fiu.address(), bad);
  ASSERT_TRUE(denied.ok());
  EXPECT_TRUE(cmdlang::is_error(denied.value()));
}

TEST_F(IdentificationTest, FiuFailureLogsSecurityEvent) {
  auto& fiu = host_->add_daemon<services::FiuDaemon>(config("fiu"));
  ASSERT_TRUE(fiu.start().ok());

  CmdLine scan("fiuScan");
  scan.arg("features", features({0.9, 0.9}));
  scan.arg("station", "back-door");
  auto denied = client_->call(fiu.address(), scan);
  ASSERT_TRUE(denied.ok());
  EXPECT_TRUE(cmdlang::is_error(denied.value()));

  bool logged = false;
  for (int i = 0; i < 100 && !logged; ++i) {
    for (const auto& e : deployment_->net_logger->entries_from("fiu"))
      logged |= e.level == "security";
    if (!logged) std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(logged);
}

TEST_F(IdentificationTest, IButtonResolvesSerialThroughAud) {
  auto& reader = host_->add_daemon<services::IButtonDaemon>(config("ibutton"));
  ASSERT_TRUE(reader.start().ok());

  CmdLine read("ibuttonRead");
  read.arg("serial", "IB-77");
  read.arg("station", "door");
  auto r = client_->call(reader.address(), read, daemon::kCallOk);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->get_text("user"), "john");

  CmdLine unknown("ibuttonRead");
  unknown.arg("serial", "IB-9999");
  auto denied = client_->call(reader.address(), unknown);
  ASSERT_TRUE(denied.ok());
  EXPECT_TRUE(cmdlang::is_error(denied.value()));
}

TEST_F(IdentificationTest, IdMonitorUpdatesLocationAndShowsWorkspace) {
  // Full Scenario 2+3 chain: FIU -> notification -> ID Monitor -> AUD
  // location + WSS workspace at the access point.
  auto& hal = host_->add_daemon<services::HalDaemon>(config("hal"));
  auto& sal = host_->add_daemon<services::SalDaemon>(config("sal"));
  auto& wss = host_->add_daemon<services::WssDaemon>(config("wss"));
  auto& fiu = host_->add_daemon<services::FiuDaemon>(config("fiu"));
  auto& monitor =
      host_->add_daemon<services::IdMonitorDaemon>(config("id-monitor"));
  ASSERT_TRUE(hal.start().ok());
  ASSERT_TRUE(sal.start().ok());
  ASSERT_TRUE(wss.start().ok());
  ASSERT_TRUE(fiu.start().ok());
  ASSERT_TRUE(monitor.start().ok());
  ASSERT_TRUE(monitor.watch_device(fiu.address()).ok());

  CmdLine fix("userUpdate");
  fix.arg("username", Word{"john"});
  fix.arg("fingerprint", "fp_john");
  ASSERT_TRUE(client_->call(aud_->address(), fix, daemon::kCallOk).ok());

  CmdLine enroll("fiuEnroll");
  enroll.arg("template", Word{"fp_john"});
  enroll.arg("features", features({0.2, 0.4, 0.6}));
  ASSERT_TRUE(client_->call(fiu.address(), enroll, daemon::kCallOk).ok());

  CmdLine scan("fiuScan");
  scan.arg("features", features({0.2, 0.4, 0.6}));
  scan.arg("station", "hawk-box");
  ASSERT_TRUE(client_->call(fiu.address(), scan, daemon::kCallOk).ok());

  // The chain is asynchronous (notification + monitor actions): poll.
  bool located = false;
  for (int i = 0; i < 200 && !located; ++i) {
    auto user = aud_->user("john");
    located = user && user->location_room == "hawk" &&
              user->location_station == "hawk-box";
    if (!located) std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(located);

  bool workspace_up = false;
  for (int i = 0; i < 200 && !workspace_up; ++i) {
    workspace_up = wss.workspace("john/default").has_value();
    if (!workspace_up) std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(workspace_up);
  EXPECT_FALSE(monitor.events().empty());
}

TEST_F(IdentificationTest, IdMonitorRecordsFailedAttempts) {
  auto& fiu = host_->add_daemon<services::FiuDaemon>(config("fiu"));
  services::IdMonitorOptions options;
  options.auto_show_workspace = false;
  auto& monitor = host_->add_daemon<services::IdMonitorDaemon>(
      config("id-monitor"), options);
  ASSERT_TRUE(fiu.start().ok());
  ASSERT_TRUE(monitor.start().ok());
  ASSERT_TRUE(monitor.watch_device(fiu.address()).ok());

  CmdLine scan("fiuScan");
  scan.arg("features", features({0.1}));
  scan.arg("station", "door");
  (void)client_->call(fiu.address(), scan);

  bool recorded = false;
  for (int i = 0; i < 200 && !recorded; ++i) {
    for (const auto& e : monitor.events())
      recorded |= !e.positive && e.device == "fiu";
    if (!recorded) std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(recorded);
}

// The monitor keeps the latest 256 identification events and drops older
// ones.
TEST_F(IdentificationTest, IdMonitorKeepsLatestEvents) {
  auto& monitor =
      host_->add_daemon<services::IdMonitorDaemon>(config("id-monitor"));
  for (int i = 1; i <= 257; ++i) {
    CmdLine failed("identifyFailed");
    failed.arg("room", Word{"hawk"});
    failed.arg("station", "door-" + std::to_string(i));
    failed.arg("device", Word{"fiu"});
    CmdLine notify("idNotify");
    notify.arg("source", "fiu");
    notify.arg("command", Word{"identifyFailed"});
    notify.arg("detail", failed.to_string());
    ASSERT_TRUE(cmdlang::is_ok(monitor.execute(notify, daemon::CallerInfo{})));
  }

  auto reply = monitor.execute(CmdLine("idEvents"), daemon::CallerInfo{});
  ASSERT_TRUE(cmdlang::is_ok(reply));
  auto events = reply.get_vector("events");
  ASSERT_TRUE(events.has_value());
  ASSERT_EQ(events->elements.size(), 256u);
  // Oldest first: door-2 up to door-257; door-1 was dropped.
  EXPECT_EQ(events->elements.front().as_text(), "fail||hawk|door-2|fiu");
  EXPECT_EQ(events->elements.back().as_text(), "fail||hawk|door-257|fiu");
}

TEST_F(IdentificationTest, PoweredOffDevicesRefuseScans) {
  auto& fiu = host_->add_daemon<services::FiuDaemon>(config("fiu"));
  auto& reader = host_->add_daemon<services::IButtonDaemon>(config("ibutton"));
  ASSERT_TRUE(fiu.start().ok());
  ASSERT_TRUE(reader.start().ok());

  // Identification devices come up powered; power them down.
  ASSERT_TRUE(client_->call(fiu.address(), CmdLine("deviceOff"), daemon::kCallOk).ok());
  ASSERT_TRUE(client_->call(reader.address(), CmdLine("deviceOff"), daemon::kCallOk).ok());

  CmdLine scan("fiuScan");
  scan.arg("features", features({0.1, 0.2}));
  auto r1 = client_->call(fiu.address(), scan);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(cmdlang::is_error(r1.value()));

  CmdLine read("ibuttonRead");
  read.arg("serial", "IB-77");
  auto r2 = client_->call(reader.address(), read);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(cmdlang::is_error(r2.value()));

  // Power restored: the reader resolves John again.
  ASSERT_TRUE(client_->call(reader.address(), CmdLine("deviceOn"), daemon::kCallOk).ok());
  auto r3 = client_->call(reader.address(), read, daemon::kCallOk);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->get_text("user"), "john");
}

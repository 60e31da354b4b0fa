// Tests for the extension features beyond the paper's implemented core:
// PTZ slew timing (model ablation), the Room DB nearest-service query
// (Ch 9 task automation), and the personnel tracker (§1.1's non-human
// ACE user).
#include <gtest/gtest.h>

#include <cmath>

#include "ace_test_env.hpp"
#include "daemon/devices.hpp"
#include "services/identification.hpp"
#include "services/tracking.hpp"
#include "services/user_db.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

class ExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    host_ = std::make_unique<daemon::DaemonHost>(deployment_->env, "work");
    client_ = deployment_->make_client("laptop", "user/tester");
  }

  daemon::DaemonConfig config(const std::string& name,
                              const std::string& room = "hawk") {
    daemon::DaemonConfig c;
    c.name = name;
    c.room = room;
    return c;
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::DaemonHost> host_;
  std::unique_ptr<daemon::AceClient> client_;
};

// ------------------------------------------------------------ PTZ slew model

TEST_F(ExtensionsTest, CameraReportsMovingDuringSlew) {
  daemon::PtzModelSpec slow = daemon::vcc3_spec();
  slow.degrees_per_second = 100.0;  // 90 degrees -> 0.9 s
  auto& camera = host_->add_daemon<daemon::PtzCameraDaemon>(config("cam"),
                                                            slow);
  ASSERT_TRUE(camera.start().ok());
  ASSERT_TRUE(client_->call(camera.address(), CmdLine("deviceOn"), daemon::kCallOk).ok());

  CmdLine move("ptzMove");
  move.arg("pan", 90.0);
  move.arg("tilt", 0.0);
  ASSERT_TRUE(client_->call(camera.address(), move, daemon::kCallOk).ok());
  EXPECT_TRUE(camera.moving());
  auto state = client_->call(camera.address(), CmdLine("ptzGet"), daemon::kCallOk);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->get_text("moving"), "yes");

  // Wait past the slew time: settled.
  std::this_thread::sleep_for(1000ms);
  EXPECT_FALSE(camera.moving());
  state = client_->call(camera.address(), CmdLine("ptzGet"), daemon::kCallOk);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->get_text("moving"), "no");
}

TEST_F(ExtensionsTest, FasterModelSettlesSooner) {
  // VCC4 slews at 300 deg/s vs VCC3 at 70 deg/s: for the same 60-degree
  // move the VCC4 must settle while the VCC3 is still in motion.
  auto& vcc3 = host_->add_daemon<daemon::PtzCameraDaemon>(config("cam3"),
                                                          daemon::vcc3_spec());
  auto& vcc4 = host_->add_daemon<daemon::PtzCameraDaemon>(config("cam4"),
                                                          daemon::vcc4_spec());
  ASSERT_TRUE(vcc3.start().ok());
  ASSERT_TRUE(vcc4.start().ok());
  for (auto* cam : {&vcc3, &vcc4})
    ASSERT_TRUE(client_->call(cam->address(), CmdLine("deviceOn"), daemon::kCallOk).ok());

  CmdLine move("ptzMove");
  move.arg("pan", 60.0);
  move.arg("tilt", 0.0);
  ASSERT_TRUE(client_->call(vcc3.address(), move, daemon::kCallOk).ok());
  ASSERT_TRUE(client_->call(vcc4.address(), move, daemon::kCallOk).ok());
  // 60/300 = 0.2 s for VCC4; 60/70 = 0.86 s for VCC3.
  std::this_thread::sleep_for(400ms);
  EXPECT_FALSE(vcc4.moving());
  EXPECT_TRUE(vcc3.moving());
}

// --------------------------------------------------- nearest-service lookup

TEST_F(ExtensionsTest, RoomDbFindsNearestPrinter) {
  auto place = [&](const char* name, const char* cls, double x, double y) {
    CmdLine add("roomAddService");
    add.arg("room", Word{"hawk"});
    add.arg("name", Word{name});
    add.arg("host", "box");
    add.arg("port", 1);
    add.arg("class", cls);
    add.arg("x", x);
    add.arg("y", y);
    add.arg("z", 0.0);
    ASSERT_TRUE(client_->call(deployment_->env.room_db_address, add, daemon::kCallOk).ok());
  };
  place("printer_near", "Service/Device/Printer", 1.0, 1.0);
  place("printer_far", "Service/Device/Printer", 9.0, 9.0);
  place("camera", "Service/Device/PTZCamera/VCC4", 0.5, 0.5);

  // "print this out to the nearest printer" from (0,0).
  CmdLine nearest("roomNearestService");
  nearest.arg("room", Word{"hawk"});
  nearest.arg("class", "Service/Device/Printer*");
  nearest.arg("x", 0.0);
  nearest.arg("y", 0.0);
  auto r = client_->call(deployment_->env.room_db_address, nearest, daemon::kCallOk);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->get_text("name"), "printer_near");
  EXPECT_NEAR(r->get_real("distance"), std::sqrt(2.0), 1e-9);

  // From the far corner the other printer wins.
  CmdLine nearest2("roomNearestService");
  nearest2.arg("room", Word{"hawk"});
  nearest2.arg("class", "Service/Device/Printer*");
  nearest2.arg("x", 10.0);
  nearest2.arg("y", 10.0);
  auto r2 = client_->call(deployment_->env.room_db_address, nearest2, daemon::kCallOk);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->get_text("name"), "printer_far");

  // Class filter excludes the camera even though it is nearest overall.
  EXPECT_NE(r->get_text("name"), "camera");
}

TEST_F(ExtensionsTest, NearestServiceIgnoresUnlocatedServices) {
  CmdLine add("roomAddService");
  add.arg("room", Word{"hawk"});
  add.arg("name", Word{"ghost_printer"});
  add.arg("host", "box");
  add.arg("port", 1);
  add.arg("class", "Service/Device/Printer");
  // no coordinates
  ASSERT_TRUE(client_->call(deployment_->env.room_db_address, add, daemon::kCallOk).ok());

  CmdLine nearest("roomNearestService");
  nearest.arg("room", Word{"hawk"});
  nearest.arg("class", "Service/Device/Printer*");
  nearest.arg("x", 0.0);
  nearest.arg("y", 0.0);
  auto r = client_->call(deployment_->env.room_db_address, nearest);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(cmdlang::is_error(r.value()));
}

// ---------------------------------------------------------- personnel tracker

class TrackerTest : public ExtensionsTest {
 protected:
  void SetUp() override {
    ExtensionsTest::SetUp();
    aud_ = &host_->add_daemon<services::UserDbDaemon>(config("aud"));
    ASSERT_TRUE(aud_->start().ok());
    for (const char* user : {"kate", "john"}) {
      CmdLine add("userAdd");
      add.arg("username", Word{user});
      add.arg("ibutton", std::string("IB-") + user);
      ASSERT_TRUE(client_->call(aud_->address(), add, daemon::kCallOk).ok());
    }
  }

  services::IButtonDaemon& reader_in(const std::string& room) {
    auto& r = host_->add_daemon<services::IButtonDaemon>(
        config("ibutton-" + room, room));
    EXPECT_TRUE(r.start().ok());
    return r;
  }

  services::UserDbDaemon* aud_ = nullptr;
};

TEST_F(TrackerTest, TracksUsersAcrossRooms) {
  auto& door_hawk = reader_in("hawk");
  auto& door_dove = reader_in("dove");
  auto& tracker = host_->add_daemon<services::TrackerDaemon>(
      config("tracker", "machine-room"));
  ASSERT_TRUE(tracker.start().ok());

  auto subscribed = client_->call(tracker.address(),
                                     CmdLine("trackWatchAll"), daemon::kCallOk);
  ASSERT_TRUE(subscribed.ok());
  EXPECT_EQ(subscribed->get_integer("devices"), 2);

  auto badge = [&](services::IButtonDaemon& reader, const char* serial,
                   const char* station) {
    CmdLine read("ibuttonRead");
    read.arg("serial", serial);
    read.arg("station", station);
    ASSERT_TRUE(client_->call(reader.address(), read, daemon::kCallOk).ok());
  };
  badge(door_hawk, "IB-kate", "hawk-door");
  badge(door_dove, "IB-john", "dove-door");
  badge(door_dove, "IB-kate", "dove-door");  // kate moves to dove

  // Notifications are asynchronous; wait for kate's second sighting.
  bool moved = false;
  for (int i = 0; i < 300 && !moved; ++i) {
    auto s = tracker.last_sighting("kate");
    moved = s && s->room == "dove";
    if (!moved) std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(moved);

  CmdLine where("trackWhereIs");
  where.arg("user", Word{"kate"});
  auto r = client_->call(tracker.address(), where, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->get_text("room"), "dove");
  EXPECT_EQ(r->get_integer("sightings"), 2);

  CmdLine history("trackHistory");
  history.arg("user", Word{"kate"});
  auto h = client_->call(tracker.address(), history, daemon::kCallOk);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->get_vector("entries")->elements.size(), 2u);

  // Presence: kate and john are both last seen in dove.
  CmdLine present("trackPresent");
  present.arg("room", Word{"dove"});
  auto p = client_->call(tracker.address(), present, daemon::kCallOk);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->get_vector("users")->elements.size(), 2u);
  CmdLine present_hawk("trackPresent");
  present_hawk.arg("room", Word{"hawk"});
  auto ph = client_->call(tracker.address(), present_hawk, daemon::kCallOk);
  ASSERT_TRUE(ph.ok());
  EXPECT_TRUE(ph->get_vector("users")->elements.empty());
}

// The tracker keeps each user's latest 64 sightings and drops older ones.
TEST_F(TrackerTest, HistoryKeepsLatestSightings) {
  auto& tracker = host_->add_daemon<services::TrackerDaemon>(
      config("tracker", "machine-room"));
  for (int i = 1; i <= 65; ++i) {
    CmdLine identified("identified");
    identified.arg("user", Word{"kate"});
    identified.arg("room", Word{"hawk"});
    identified.arg("station", "door-" + std::to_string(i));
    identified.arg("device", Word{"ibutton"});
    CmdLine notify("trackNotify");
    notify.arg("source", "ibutton-hawk");
    notify.arg("command", Word{"identified"});
    notify.arg("detail", identified.to_string());
    ASSERT_TRUE(cmdlang::is_ok(tracker.execute(notify, daemon::CallerInfo{})));
  }

  CmdLine history("trackHistory");
  history.arg("user", Word{"kate"});
  history.arg("limit", std::int64_t{1000});
  auto h = tracker.execute(history, daemon::CallerInfo{});
  ASSERT_TRUE(cmdlang::is_ok(h));
  auto entries = h.get_vector("entries");
  ASSERT_TRUE(entries.has_value());
  ASSERT_EQ(entries->elements.size(), 64u);
  // Newest first: door-65 down to door-2; door-1 was dropped.
  EXPECT_EQ(entries->elements.front().as_text(), "hawk|door-65|ibutton");
  EXPECT_EQ(entries->elements.back().as_text(), "hawk|door-2|ibutton");
}

TEST_F(TrackerTest, UnknownUserQueriesFailCleanly) {
  auto& tracker = host_->add_daemon<services::TrackerDaemon>(
      config("tracker", "machine-room"));
  ASSERT_TRUE(tracker.start().ok());
  CmdLine where("trackWhereIs");
  where.arg("user", Word{"nobody"});
  auto r = client_->call(tracker.address(), where);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(cmdlang::is_error(r.value()));
}

TEST_F(TrackerTest, FailedIdentificationsAreNotTracked) {
  auto& door = reader_in("hawk");
  auto& tracker = host_->add_daemon<services::TrackerDaemon>(
      config("tracker", "machine-room"));
  ASSERT_TRUE(tracker.start().ok());
  ASSERT_TRUE(client_->call(tracker.address(),
                               CmdLine("trackWatchAll"), daemon::kCallOk).ok());

  CmdLine read("ibuttonRead");
  read.arg("serial", "IB-unknown");
  read.arg("station", "hawk-door");
  (void)client_->call(door.address(), read);  // fails
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(tracker.tracked_users(), 0u);
}

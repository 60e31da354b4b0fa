// Integration tests reproducing the paper's Chapter 7 scenarios end to end:
//   Scenario 1 — new user & default workspace provisioning (Fig 18)
//   Scenario 2 — user identification at the podium (Fig 19, steps 1-3)
//   Scenario 3 — workspace brought to the access point (Fig 19, steps 4-7)
//   Scenario 4 — multiple workspaces + selector
//   Scenario 5 — device control through the room database and GUI
#include <gtest/gtest.h>

#include "ace_test_env.hpp"
#include "apps/admin_gui.hpp"
#include "apps/workspace_backend.hpp"
#include "daemon/devices.hpp"
#include "services/identification.hpp"
#include "services/launchers.hpp"
#include "services/monitors.hpp"
#include "services/user_db.hpp"
#include "services/workspace.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

namespace {

cmdlang::Vector john_finger() {
  return cmdlang::real_vector({0.12, 0.88, 0.34, 0.56, 0.71});
}

template <typename Predicate>
bool wait_until(Predicate p, std::chrono::milliseconds timeout = 3s) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return p();
}

}  // namespace

// Full ACE deployment: infrastructure + monitors/launchers on two compute
// hosts + identification + WSS with the real VNC backend + devices in the
// conference room ("hawk").
class ScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    admin_ = deployment_->make_client("admin-pc", "user/admin");

    // Compute hosts "bar" and "tube" (Fig 19's host names).
    bar_ = std::make_unique<daemon::DaemonHost>(deployment_->env, "bar");
    tube_ = std::make_unique<daemon::DaemonHost>(deployment_->env, "tube");
    // The podium access point in room hawk.
    podium_ = std::make_unique<daemon::DaemonHost>(deployment_->env, "podium");

    for (auto* host : {bar_.get(), tube_.get()}) {
      daemon::DaemonConfig hrm_cfg;
      hrm_cfg.name = "hrm-" + host->name();
      hrm_cfg.room = "machine-room";
      host->add_daemon<services::HrmDaemon>(hrm_cfg);
      daemon::DaemonConfig hal_cfg;
      hal_cfg.name = "hal-" + host->name();
      hal_cfg.room = "machine-room";
      host->add_daemon<services::HalDaemon>(hal_cfg);
      ASSERT_TRUE(host->start_all().ok());
    }

    daemon::DaemonConfig srm_cfg;
    srm_cfg.name = "srm";
    srm_cfg.room = "machine-room";
    services::SrmOptions srm_options;
    srm_options.cache_ttl = 0ms;
    srm_ = &bar_->add_daemon<services::SrmDaemon>(srm_cfg, srm_options);
    daemon::DaemonConfig sal_cfg;
    sal_cfg.name = "sal";
    sal_cfg.room = "machine-room";
    sal_ = &bar_->add_daemon<services::SalDaemon>(sal_cfg);
    ASSERT_TRUE(srm_->start().ok());
    ASSERT_TRUE(sal_->start().ok());

    daemon::DaemonConfig aud_cfg;
    aud_cfg.name = "aud";
    aud_cfg.room = "machine-room";
    aud_ = &tube_->add_daemon<services::UserDbDaemon>(aud_cfg);
    ASSERT_TRUE(aud_->start().ok());

    daemon::DaemonConfig wss_cfg;
    wss_cfg.name = "wss";
    wss_cfg.room = "machine-room";
    wss_ = &tube_->add_daemon<services::WssDaemon>(wss_cfg);
    ASSERT_TRUE(wss_->start().ok());

    factory_ = std::make_unique<apps::VncWorkspaceFactory>(
        deployment_->env,
        std::vector<daemon::DaemonHost*>{bar_.get(), tube_.get()},
        std::map<std::string, daemon::DaemonHost*>{
            {"podium", podium_.get()}});
    factory_->install(*wss_);

    daemon::DaemonConfig fiu_cfg;
    fiu_cfg.name = "fiu-podium";
    fiu_cfg.room = "hawk";
    fiu_ = &podium_->add_daemon<services::FiuDaemon>(fiu_cfg);
    ASSERT_TRUE(fiu_->start().ok());

    daemon::DaemonConfig idm_cfg;
    idm_cfg.name = "id-monitor";
    idm_cfg.room = "machine-room";
    id_monitor_ = &tube_->add_daemon<services::IdMonitorDaemon>(idm_cfg);
    ASSERT_TRUE(id_monitor_->start().ok());
    ASSERT_TRUE(id_monitor_->watch_device(fiu_->address()).ok());

    // Conference-room devices.
    daemon::DaemonConfig cam_cfg;
    cam_cfg.name = "hawk-camera";
    cam_cfg.room = "hawk";
    camera_ = &podium_->add_daemon<daemon::PtzCameraDaemon>(
        cam_cfg, daemon::vcc4_spec());
    daemon::DaemonConfig proj_cfg;
    proj_cfg.name = "hawk-projector";
    proj_cfg.room = "hawk";
    projector_ = &podium_->add_daemon<daemon::ProjectorDaemon>(
        proj_cfg, daemon::epson7350_spec());
    ASSERT_TRUE(camera_->start().ok());
    ASSERT_TRUE(projector_->start().ok());
  }

  void TearDown() override {
    // The WSS holds backend callbacks into factory_, and factory_ is
    // destroyed before the daemon hosts. Stop the WSS first so no
    // callback can be mid-dispatch when the factory goes away.
    if (wss_) wss_->stop();
  }

  // Scenario 1's administrator flow.
  void provision_john() {
    CmdLine add("userAdd");
    add.arg("username", Word{"john"});
    add.arg("fullname", "John Doe");
    add.arg("password", "new-hire");
    add.arg("fingerprint", "fp_john");
    ASSERT_TRUE(admin_->call(aud_->address(), add, daemon::kCallOk).ok());

    CmdLine enroll("fiuEnroll");
    enroll.arg("template", Word{"fp_john"});
    enroll.arg("features", john_finger());
    ASSERT_TRUE(admin_->call(fiu_->address(), enroll, daemon::kCallOk).ok());

    CmdLine ws("wssDefault");
    ws.arg("owner", Word{"john"});
    ASSERT_TRUE(admin_->call(wss_->address(), ws, daemon::kCallOk).ok());
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::AceClient> admin_;
  std::unique_ptr<daemon::DaemonHost> bar_, tube_, podium_;
  std::unique_ptr<apps::VncWorkspaceFactory> factory_;
  services::SrmDaemon* srm_ = nullptr;
  services::SalDaemon* sal_ = nullptr;
  services::UserDbDaemon* aud_ = nullptr;
  services::WssDaemon* wss_ = nullptr;
  services::FiuDaemon* fiu_ = nullptr;
  services::IdMonitorDaemon* id_monitor_ = nullptr;
  daemon::PtzCameraDaemon* camera_ = nullptr;
  daemon::ProjectorDaemon* projector_ = nullptr;
};

TEST_F(ScenarioTest, Scenario1NewUserGetsDefaultWorkspace) {
  provision_john();
  EXPECT_TRUE(aud_->user("john").has_value());
  auto ws = wss_->workspace("john/default");
  ASSERT_TRUE(ws.has_value());
  // The workspace server is really running on one of the compute hosts.
  auto* server = factory_->server_at(ws->server);
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server->running());
  EXPECT_TRUE(ws->server.host == "bar" || ws->server.host == "tube");
}

TEST_F(ScenarioTest, Scenario2FingerprintIdentificationUpdatesLocation) {
  provision_john();
  CmdLine scan("fiuScan");
  scan.arg("features", john_finger());
  scan.arg("station", "podium");
  auto r = admin_->call(fiu_->address(), scan, daemon::kCallOk);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->get_text("user"), "john");

  EXPECT_TRUE(wait_until([&] {
    auto u = aud_->user("john");
    return u && u->location_room == "hawk" && u->location_station == "podium";
  }));
}

TEST_F(ScenarioTest, Scenario3WorkspaceAppearsAtAccessPoint) {
  provision_john();
  CmdLine scan("fiuScan");
  scan.arg("features", john_finger());
  scan.arg("station", "podium");
  ASSERT_TRUE(admin_->call(fiu_->address(), scan, daemon::kCallOk).ok());

  // The ID monitor drives WSS -> VNC: a viewer on the podium converges to
  // the workspace server's framebuffer.
  ASSERT_TRUE(wait_until([&] {
    return factory_->viewer_on("podium") != nullptr;
  }));
  auto ws = wss_->workspace("john/default");
  ASSERT_TRUE(ws.has_value());
  auto* server = factory_->server_at(ws->server);
  auto* viewer = factory_->viewer_on("podium");
  ASSERT_NE(server, nullptr);
  ASSERT_NE(viewer, nullptr);
  EXPECT_TRUE(wait_until([&] {
    return server->framebuffer_hash() == viewer->framebuffer_hash();
  }));
  // wssShow records the location only once the viewer's attach returns,
  // which can be after the framebuffers have already converged.
  EXPECT_TRUE(wait_until([&] {
    return wss_->workspace("john/default")->shown_at == "podium";
  }));
}

TEST_F(ScenarioTest, Scenario4MultipleWorkspacesSelectable) {
  provision_john();
  // John worked in a second workspace earlier.
  CmdLine extra("wssCreate");
  extra.arg("owner", Word{"john"});
  extra.arg("name", Word{"slides"});
  ASSERT_TRUE(admin_->call(wss_->address(), extra, daemon::kCallOk).ok());

  // The workspace selector lists both.
  CmdLine list("wssList");
  list.arg("owner", Word{"john"});
  auto l = admin_->call(wss_->address(), list, daemon::kCallOk);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l->get_vector("workspaces")->elements.size(), 2u);

  // He selects the secondary workspace; it appears at the podium.
  CmdLine show("wssShow");
  show.arg("workspace", "john/slides");
  show.arg("location", "podium");
  ASSERT_TRUE(admin_->call(wss_->address(), show, daemon::kCallOk).ok());
  auto slides = wss_->workspace("john/slides");
  ASSERT_TRUE(slides.has_value());
  EXPECT_EQ(slides->shown_at, "podium");
  auto* server = factory_->server_at(slides->server);
  auto* viewer = factory_->viewer_on("podium");
  ASSERT_NE(server, nullptr);
  ASSERT_NE(viewer, nullptr);
  EXPECT_TRUE(wait_until([&] {
    return server->framebuffer_hash() == viewer->framebuffer_hash();
  }));
}

TEST_F(ScenarioTest, Scenario5DeviceControlThroughRoomAndGui) {
  // Place devices in the room database with coordinates.
  CmdLine place("roomSetLocation");
  place.arg("room", Word{"hawk"});
  place.arg("name", Word{"hawk-camera"});
  place.arg("x", 3.0);
  place.arg("y", 1.0);
  place.arg("z", 2.4);
  ASSERT_TRUE(admin_->call(deployment_->env.room_db_address, place, daemon::kCallOk).ok());

  // The device GUI discovers what is in the room (Fig 2 / Scenario 5).
  CmdLine in_room("roomServices");
  in_room.arg("room", Word{"hawk"});
  auto services_here =
      admin_->call(deployment_->env.room_db_address, in_room, daemon::kCallOk);
  ASSERT_TRUE(services_here.ok());
  EXPECT_GE(services_here->get_vector("services")->elements.size(), 2u);

  apps::AdminGuiModel gui(deployment_->env, *admin_);
  ASSERT_TRUE(gui.refresh().ok());

  // John turns the projector on and displays his workspace...
  ASSERT_TRUE(gui.invoke("hawk-projector", CmdLine("deviceOn")).ok());
  CmdLine display("projDisplay");
  display.arg("source", "john/default");
  ASSERT_TRUE(gui.invoke("hawk-projector", display).ok());

  // ...adds the camera picture-in-picture...
  CmdLine pip("projPictureInPicture");
  pip.arg("source", "hawk-camera");
  pip.arg("enable", Word{"on"});
  ASSERT_TRUE(gui.invoke("hawk-projector", pip).ok());

  // ...and points the camera at the podium.
  ASSERT_TRUE(gui.invoke("hawk-camera", CmdLine("deviceOn")).ok());
  CmdLine point("ptzPointAt");
  point.arg("x", 2.0);
  point.arg("y", 4.0);
  ASSERT_TRUE(gui.invoke("hawk-camera", point).ok());

  EXPECT_TRUE(projector_->projector_state().picture_in_picture);
  EXPECT_NE(camera_->ptz_state().pan, 0.0);
  EXPECT_TRUE(camera_->powered());
}

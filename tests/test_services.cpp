// Tests for the basic ACE services: ASD (§2.4), Room DB (§4.11), Network
// Logger (§4.14), AUD (§4.7), Authorization DB (§4.10), HRM/SRM (§4.1-2),
// HAL/SAL (§4.3-4), WSS (§4.5), Converter (§4.12), Distribution (§4.13).
#include <gtest/gtest.h>

#include "ace_test_env.hpp"
#include "endpoint_waiter.hpp"
#include "media/audio.hpp"
#include "services/launchers.hpp"
#include "services/monitors.hpp"
#include "services/streaming.hpp"
#include "services/user_db.hpp"
#include "services/workspace.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

class ServicesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
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
  std::unique_ptr<daemon::AceClient> client_;
};

// ----------------------------------------------------------------------- ASD

TEST_F(ServicesTest, AsdRegisterLookupDeregister) {
  CmdLine reg("register");
  reg.arg("name", Word{"svc1"});
  reg.arg("host", "box");
  reg.arg("port", 1234);
  reg.arg("room", Word{"hawk"});
  reg.arg("class", "Service/Test");
  reg.arg("lease", 5000);
  auto r = client_->call(deployment_->env.asd_address, reg, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->get_integer("lease"), 0);

  auto found = services::AsdClient(*client_, deployment_->env.asd_address).lookup("svc1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->address.to_string(), "box:1234");
  EXPECT_EQ(found->service_class, "Service/Test");

  CmdLine dereg("deregister");
  dereg.arg("name", Word{"svc1"});
  ASSERT_TRUE(client_->call(deployment_->env.asd_address, dereg, daemon::kCallOk).ok());
  EXPECT_FALSE(services::AsdClient(*client_, deployment_->env.asd_address).lookup("svc1")
                   .ok());
}

TEST_F(ServicesTest, AsdQueryByClassAndRoomGlobs) {
  auto add = [&](const char* name, const char* room, const char* cls) {
    CmdLine reg("register");
    reg.arg("name", Word{name});
    reg.arg("host", "box");
    reg.arg("port", 1000);
    reg.arg("room", Word{room});
    reg.arg("class", cls);
    ASSERT_TRUE(client_->call(deployment_->env.asd_address, reg, daemon::kCallOk).ok());
  };
  add("cam1", "hawk", "Service/Device/PTZCamera/VCC3");
  add("cam2", "dove", "Service/Device/PTZCamera/VCC4");
  add("proj1", "hawk", "Service/Device/Projector/Epson7350");

  auto cameras = services::AsdClient(*client_, deployment_->env.asd_address).query("*", "Service/Device/PTZCamera*", "*");
  ASSERT_TRUE(cameras.ok());
  EXPECT_EQ(cameras->size(), 2u);

  auto hawk_devices = services::AsdClient(*client_, deployment_->env.asd_address).query("*", "Service/Device*", "hawk");
  ASSERT_TRUE(hawk_devices.ok());
  EXPECT_EQ(hawk_devices->size(), 2u);

  auto by_name = services::AsdClient(*client_, deployment_->env.asd_address).query("cam*", "*", "*");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name->size(), 2u);
}

TEST_F(ServicesTest, AsdLeaseExpiryReapsSilentService) {
  CmdLine reg("register");
  reg.arg("name", Word{"shortlived"});
  reg.arg("host", "box");
  reg.arg("port", 1);
  reg.arg("lease", 250);
  ASSERT_TRUE(client_->call(deployment_->env.asd_address, reg, daemon::kCallOk).ok());
  ASSERT_TRUE(services::AsdClient(*client_, deployment_->env.asd_address).lookup("shortlived")
                  .ok());

  // Renew once: survives past the original expiry.
  std::this_thread::sleep_for(150ms);
  CmdLine renew("renew");
  renew.arg("name", Word{"shortlived"});
  ASSERT_TRUE(client_->call(deployment_->env.asd_address, renew, daemon::kCallOk).ok());
  std::this_thread::sleep_for(150ms);
  EXPECT_TRUE(services::AsdClient(*client_, deployment_->env.asd_address).lookup("shortlived")
                  .ok());

  // Stop renewing: reaped.
  std::this_thread::sleep_for(400ms);
  EXPECT_FALSE(services::AsdClient(*client_, deployment_->env.asd_address).lookup("shortlived")
                   .ok());
  EXPECT_FALSE(deployment_->asd->find_registration("shortlived").has_value());
}

TEST_F(ServicesTest, AsdRenewUnknownServiceFails) {
  CmdLine renew("renew");
  renew.arg("name", Word{"ghost"});
  auto r = client_->call(deployment_->env.asd_address, renew);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(cmdlang::is_error(r.value()));
}

// ------------------------------------------------------------------- Room DB

TEST_F(ServicesTest, RoomDbStoresDimensionsAndPlacements) {
  CmdLine create("roomCreate");
  create.arg("room", Word{"hawk"});
  create.arg("building", "Nichols Hall");
  create.arg("width", 8.0);
  create.arg("depth", 6.0);
  create.arg("height", 3.0);
  ASSERT_TRUE(client_->call(deployment_->env.room_db_address, create, daemon::kCallOk).ok());

  CmdLine add("roomAddService");
  add.arg("room", Word{"hawk"});
  add.arg("name", Word{"cam1"});
  add.arg("host", "box");
  add.arg("port", 1000);
  add.arg("class", "Service/Device/PTZCamera/VCC3");
  add.arg("x", 4.0);
  add.arg("y", 0.5);
  add.arg("z", 2.5);
  ASSERT_TRUE(client_->call(deployment_->env.room_db_address, add, daemon::kCallOk).ok());

  CmdLine info("roomInfo");
  info.arg("room", Word{"hawk"});
  auto r = client_->call(deployment_->env.room_db_address, info, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->get_text("building"), "Nichols Hall");
  EXPECT_DOUBLE_EQ(r->get_real("width"), 8.0);
  EXPECT_EQ(r->get_integer("service_count"), 1);

  CmdLine where("roomOfService");
  where.arg("name", Word{"cam1"});
  auto loc = client_->call(deployment_->env.room_db_address, where, daemon::kCallOk);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->get_text("room"), "hawk");
  EXPECT_DOUBLE_EQ(loc->get_real("x"), 4.0);
}

TEST_F(ServicesTest, RoomDbRemoveAndList) {
  CmdLine add("roomAddService");
  add.arg("room", Word{"dove"});
  add.arg("name", Word{"svc"});
  add.arg("host", "h");
  add.arg("port", 1);
  ASSERT_TRUE(client_->call(deployment_->env.room_db_address, add, daemon::kCallOk).ok());

  CmdLine list("roomServices");
  list.arg("room", Word{"dove"});
  auto r = client_->call(deployment_->env.room_db_address, list, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->get_vector("services")->elements.size(), 1u);

  CmdLine remove("roomRemoveService");
  remove.arg("room", Word{"dove"});
  remove.arg("name", Word{"svc"});
  ASSERT_TRUE(client_->call(deployment_->env.room_db_address, remove, daemon::kCallOk).ok());
  r = client_->call(deployment_->env.room_db_address, list, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->get_vector("services")->elements.empty());
}

// -------------------------------------------------------------- NetLogger

TEST_F(ServicesTest, NetLoggerStoresAndQueries) {
  for (int i = 0; i < 5; ++i) {
    CmdLine log("log");
    log.arg("source", "svc" + std::to_string(i % 2));
    log.arg("level", Word{i % 2 ? "warn" : "info"});
    log.arg("message", "event " + std::to_string(i));
    ASSERT_TRUE(
        client_->call(deployment_->env.net_logger_address, log, daemon::kCallOk).ok());
  }
  CmdLine query("queryLog");
  query.arg("source", "svc1");
  auto r = client_->call(deployment_->env.net_logger_address, query, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->get_vector("entries")->elements.size(), 2u);

  CmdLine count("logCount");
  count.arg("level", Word{"warn"});
  auto c = client_->call(deployment_->env.net_logger_address, count, daemon::kCallOk);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->get_integer("count"), 2);
}

TEST_F(ServicesTest, NetLoggerRaisesSecurityAlertAfterRepeatedFailures) {
  // §4.14: repeated invalid-identification attempts draw attention.
  for (int i = 0; i < 3; ++i) {
    CmdLine log("log");
    log.arg("source", "door-scanner");
    log.arg("level", Word{"security"});
    log.arg("message", "invalid identification attempt");
    ASSERT_TRUE(
        client_->call(deployment_->env.net_logger_address, log, daemon::kCallOk).ok());
  }
  EXPECT_EQ(deployment_->net_logger->alerts_raised(), 1u);
}

// --------------------------------------------------------------------- AUD

TEST_F(ServicesTest, UserDatabaseLifecycle) {
  daemon::DaemonHost host(deployment_->env, "db-host");
  auto& aud = host.add_daemon<services::UserDbDaemon>(config("aud"));
  ASSERT_TRUE(aud.start().ok());

  CmdLine add("userAdd");
  add.arg("username", Word{"john"});
  add.arg("fullname", "John Doe");
  add.arg("password", "hunter2");
  add.arg("ibutton", "IB-0042");
  add.arg("fingerprint", "fp-john-1");
  ASSERT_TRUE(client_->call(aud.address(), add, daemon::kCallOk).ok());

  // Duplicate rejected.
  auto dup = client_->call(aud.address(), add);
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(cmdlang::is_error(dup.value()));

  CmdLine get("userGet");
  get.arg("username", Word{"john"});
  auto r = client_->call(aud.address(), get, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->get_text("fullname"), "John Doe");
  EXPECT_EQ(r->get_text("ibutton"), "IB-0042");

  CmdLine by_button("userByIButton");
  by_button.arg("serial", "IB-0042");
  auto byb = client_->call(aud.address(), by_button, daemon::kCallOk);
  ASSERT_TRUE(byb.ok());
  EXPECT_EQ(byb->get_text("username"), "john");

  CmdLine check("userCheckPassword");
  check.arg("username", Word{"john"});
  check.arg("password", "hunter2");
  auto good = client_->call(aud.address(), check, daemon::kCallOk);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->get_text("valid"), "yes");
  check = CmdLine("userCheckPassword");
  check.arg("username", Word{"john"});
  check.arg("password", "wrong");
  auto bad = client_->call(aud.address(), check, daemon::kCallOk);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->get_text("valid"), "no");

  CmdLine loc("userSetLocation");
  loc.arg("username", Word{"john"});
  loc.arg("room", Word{"hawk"});
  loc.arg("station", "podium");
  ASSERT_TRUE(client_->call(aud.address(), loc, daemon::kCallOk).ok());
  EXPECT_EQ(aud.user("john")->location_room, "hawk");

  CmdLine remove("userRemove");
  remove.arg("username", Word{"john"});
  ASSERT_TRUE(client_->call(aud.address(), remove, daemon::kCallOk).ok());
  EXPECT_EQ(aud.user_count(), 0u);
}

// ----------------------------------------------------------------- AuthDB

TEST_F(ServicesTest, AuthDbRejectsBadCredentials) {
  // Unsigned credential rejected.
  keynote::Assertion a;
  a.authorizer = "nobody";
  a.licensees = keynote::licensee_key("x");
  CmdLine add("credAdd");
  add.arg("principal", "x");
  add.arg("assertion", a.serialize());
  auto r = client_->call(deployment_->env.auth_db_address, add);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(cmdlang::is_error(r.value()));

  // POLICY assertions may not be stored as credentials.
  deployment_->env.register_principal("admin");
  keynote::Assertion p;
  p.authorizer = keynote::kPolicyAuthorizer;
  p.licensees = keynote::licensee_key("x");
  CmdLine add2("credAdd");
  add2.arg("principal", "x");
  add2.arg("assertion", p.serialize());
  auto r2 = client_->call(deployment_->env.auth_db_address, add2);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(cmdlang::is_error(r2.value()));
}

TEST_F(ServicesTest, AuthDbStoresAndServesCredentials) {
  deployment_->env.register_principal("admin");
  ASSERT_TRUE(services::grant_credential(
                  *client_, deployment_->env.auth_db_address,
                  deployment_->env, "admin", "user/kate", "command == \"x\"")
                  .ok());
  CmdLine get("getCredentials");
  get.arg("principal", "user/kate");
  auto r = client_->call(deployment_->env.auth_db_address, get, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  auto creds = r->get_vector("credentials");
  ASSERT_TRUE(creds.has_value());
  ASSERT_EQ(creds->elements.size(), 1u);
  auto parsed = keynote::Assertion::parse(creds->elements[0].as_text());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(deployment_->env.keys().verify(parsed.value()));
}

// ----------------------------------------------------------------- HRM/SRM

TEST_F(ServicesTest, HrmReportsHostResources) {
  daemon::HostSpec spec;
  spec.bogomips = 2500;
  spec.mem_total_kb = 1024 * 1024;
  daemon::DaemonHost host(deployment_->env, "big-box", spec);
  auto& hrm = host.add_daemon<services::HrmDaemon>(config("hrm-big"));
  ASSERT_TRUE(hrm.start().ok());

  host.launch_process("simulation", 0.75, 100 * 1024);

  auto r = client_->call(hrm.address(), CmdLine("hrmStatus"), daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->get_text("host"), "big-box");
  EXPECT_DOUBLE_EQ(r->get_real("cpu_load"), 0.75);
  EXPECT_DOUBLE_EQ(r->get_real("bogomips"), 2500.0);
  EXPECT_EQ(r->get_integer("mem_free"), 1024 * 1024 - 100 * 1024);
  EXPECT_EQ(r->get_integer("processes"), 1);
}

TEST_F(ServicesTest, SrmAggregatesAndPicksLeastLoaded) {
  daemon::DaemonHost busy(deployment_->env, "busy");
  daemon::DaemonHost idle(deployment_->env, "idle");
  auto& hrm1 = busy.add_daemon<services::HrmDaemon>(config("hrm-busy"));
  auto& hrm2 = idle.add_daemon<services::HrmDaemon>(config("hrm-idle"));
  ASSERT_TRUE(hrm1.start().ok());
  ASSERT_TRUE(hrm2.start().ok());
  busy.set_base_load(0.9);

  daemon::DaemonHost mon(deployment_->env, "monitor");
  services::SrmOptions options;
  options.cache_ttl = 0ms;  // always fresh in tests
  auto& srm = mon.add_daemon<services::SrmDaemon>(config("srm"), options);
  ASSERT_TRUE(srm.start().ok());

  auto status = client_->call(srm.address(), CmdLine("srmStatus"), daemon::kCallOk);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->get_vector("hosts")->elements.size(), 2u);

  CmdLine pick("srmPickHost");
  pick.arg("cpu", 0.2);
  auto r = client_->call(srm.address(), pick, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->get_text("host"), "idle");
}

TEST_F(ServicesTest, SrmHonoursMemoryRequirement) {
  daemon::HostSpec small;
  small.mem_total_kb = 64 * 1024;
  daemon::DaemonHost tiny(deployment_->env, "tiny", small);
  daemon::DaemonHost roomy(deployment_->env, "roomy");
  auto& hrm1 = tiny.add_daemon<services::HrmDaemon>(config("hrm-tiny"));
  auto& hrm2 = roomy.add_daemon<services::HrmDaemon>(config("hrm-roomy"));
  ASSERT_TRUE(hrm1.start().ok());
  ASSERT_TRUE(hrm2.start().ok());
  // Make "tiny" otherwise more attractive.
  roomy.set_base_load(0.5);

  daemon::DaemonHost mon(deployment_->env, "monitor");
  services::SrmOptions options;
  options.cache_ttl = 0ms;
  auto& srm = mon.add_daemon<services::SrmDaemon>(config("srm2"), options);
  ASSERT_TRUE(srm.start().ok());

  CmdLine pick("srmPickHost");
  pick.arg("cpu", 0.1);
  pick.arg("mem", 128 * 1024);  // does not fit on "tiny"
  auto r = client_->call(srm.address(), pick, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->get_text("host"), "roomy");
}

// ----------------------------------------------------------------- HAL/SAL

TEST_F(ServicesTest, HalLaunchKillAndList) {
  daemon::DaemonHost host(deployment_->env, "apps-box");
  auto& hal = host.add_daemon<services::HalDaemon>(config("hal1"));
  ASSERT_TRUE(hal.start().ok());

  CmdLine launch("halLaunch");
  launch.arg("command", "text-editor");
  launch.arg("cpu", 0.25);
  launch.arg("mem", 2048);
  auto r = client_->call(hal.address(), launch, daemon::kCallOk);
  ASSERT_TRUE(r.ok());
  int pid = static_cast<int>(r->get_integer("pid"));
  EXPECT_TRUE(host.process_running(pid));

  CmdLine running("halRunning");
  running.arg("pid", pid);
  auto alive = client_->call(hal.address(), running, daemon::kCallOk);
  ASSERT_TRUE(alive.ok());
  EXPECT_EQ(alive->get_text("running"), "yes");

  CmdLine kill("halKill");
  kill.arg("pid", pid);
  ASSERT_TRUE(client_->call(hal.address(), kill, daemon::kCallOk).ok());
  EXPECT_FALSE(host.process_running(pid));
}

TEST_F(ServicesTest, SalDelegatesToLeastLoadedHal) {
  // Fig 18 wiring: SAL -> SRM -> HRMs, SAL -> HAL on chosen host.
  daemon::DaemonHost h1(deployment_->env, "host1");
  daemon::DaemonHost h2(deployment_->env, "host2");
  auto& hrm1 = h1.add_daemon<services::HrmDaemon>(config("hrm-h1"));
  auto& hrm2 = h2.add_daemon<services::HrmDaemon>(config("hrm-h2"));
  auto& hal1 = h1.add_daemon<services::HalDaemon>(config("hal-h1"));
  auto& hal2 = h2.add_daemon<services::HalDaemon>(config("hal-h2"));
  ASSERT_TRUE(hrm1.start().ok());
  ASSERT_TRUE(hrm2.start().ok());
  ASSERT_TRUE(hal1.start().ok());
  ASSERT_TRUE(hal2.start().ok());
  h1.set_base_load(0.8);

  daemon::DaemonHost mon(deployment_->env, "monitor");
  services::SrmOptions srm_options;
  srm_options.cache_ttl = 0ms;
  auto& srm = mon.add_daemon<services::SrmDaemon>(config("srm3"), srm_options);
  auto& sal = mon.add_daemon<services::SalDaemon>(config("sal"));
  ASSERT_TRUE(srm.start().ok());
  ASSERT_TRUE(sal.start().ok());

  CmdLine launch("salLaunch");
  launch.arg("command", "vncserver:john/default");
  launch.arg("cpu", 0.2);
  auto r = client_->call(sal.address(), launch, daemon::kCallOk);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->get_text("host"), "host2");
  EXPECT_EQ(h2.processes().size(), 1u);
  EXPECT_TRUE(h1.processes().empty());

  // Pinned launch overrides placement.
  CmdLine pinned("salLaunch");
  pinned.arg("command", "monitor-agent");
  pinned.arg("host", "host1");
  auto p = client_->call(sal.address(), pinned, daemon::kCallOk);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->get_text("host"), "host1");
  EXPECT_EQ(h1.processes().size(), 1u);
}

// --------------------------------------------------------------------- WSS

TEST_F(ServicesTest, WssDefaultBackendCreatesAndShowsWorkspaces) {
  daemon::DaemonHost h1(deployment_->env, "ws-host");
  auto& hal = h1.add_daemon<services::HalDaemon>(config("hal-ws"));
  auto& sal = h1.add_daemon<services::SalDaemon>(config("sal-ws"));
  auto& wss = h1.add_daemon<services::WssDaemon>(config("wss"));
  ASSERT_TRUE(hal.start().ok());
  ASSERT_TRUE(sal.start().ok());
  ASSERT_TRUE(wss.start().ok());

  CmdLine create("wssDefault");
  create.arg("owner", Word{"john"});
  auto r = client_->call(wss.address(), create, daemon::kCallOk);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->get_text("workspace"), "john/default");

  // Idempotent: second wssDefault returns the same workspace.
  auto again = client_->call(wss.address(), create, daemon::kCallOk);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get_text("workspace"), "john/default");
  EXPECT_EQ(wss.workspace_count(), 1u);

  // Second named workspace (Scenario 4).
  CmdLine named("wssCreate");
  named.arg("owner", Word{"john"});
  named.arg("name", Word{"slides"});
  ASSERT_TRUE(client_->call(wss.address(), named, daemon::kCallOk).ok());
  CmdLine list("wssList");
  list.arg("owner", Word{"john"});
  auto l = client_->call(wss.address(), list, daemon::kCallOk);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l->get_vector("workspaces")->elements.size(), 2u);

  // Show at an access point: a viewer process appears there.
  CmdLine show("wssShow");
  show.arg("workspace", "john/default");
  show.arg("location", "ws-host");
  ASSERT_TRUE(client_->call(wss.address(), show, daemon::kCallOk).ok());
  bool viewer_running = false;
  for (const auto& p : h1.processes())
    viewer_running |= p.running && p.command.find("vncviewer") == 0;
  EXPECT_TRUE(viewer_running);
}

// ------------------------------------------------- Converter / Distribution

TEST_F(ServicesTest, ConverterAdpcmRouteCompressesAudio) {
  daemon::DaemonHost host(deployment_->env, "stream-box");
  auto& conv = host.add_daemon<services::ConverterDaemon>(config("conv"));
  ASSERT_TRUE(conv.start().ok());

  // Destination socket for converted packets.
  auto dest = host.net_host().open_datagram(9000);
  ASSERT_TRUE(dest.ok());
  testenv::DatagramInbox dest_rx(deployment_->env.reactor(), **dest);

  CmdLine route("convRoute");
  route.arg("stream", "mic1");
  route.arg("from", Word{"raw_pcm"});
  route.arg("to", Word{"adpcm"});
  route.arg("dest", "stream-box:9000");
  ASSERT_TRUE(client_->call(conv.address(), route, daemon::kCallOk).ok());

  // Send raw PCM packets from a source socket.
  auto src = host.net_host().open_datagram(9001);
  ASSERT_TRUE(src.ok());
  auto sine = media::sine_wave(440, 8000, 480, 0);
  services::MediaPacket packet;
  packet.stream = "mic1";
  packet.format = "raw_pcm";
  util::ByteWriter pcm;
  for (auto s : sine) pcm.i16(s);
  packet.payload = pcm.take();
  for (int i = 0; i < 5; ++i) {
    packet.sequence = i;
    ASSERT_TRUE(
        (*src)->send_to(conv.data_address(), packet.serialize()).ok());
  }

  int received = 0;
  std::size_t out_bytes = 0;
  while (auto dg = dest_rx.next(300ms)) {
    auto out = services::MediaPacket::parse(dg->payload);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->format, "adpcm");
    out_bytes += out->payload.size();
    received++;
    if (received == 5) break;
  }
  EXPECT_EQ(received, 5);
  // 4:1 compression (plus a 4-byte count header per packet).
  EXPECT_LT(out_bytes, 5 * 480 * 2 / 3);

  auto stats = conv.route_stats("mic1");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->packets, 5u);
  EXPECT_GT(stats->in_bytes, stats->out_bytes);
}

TEST_F(ServicesTest, DistributionFansOutToAllSinks) {
  daemon::DaemonHost host(deployment_->env, "dist-box");
  auto& dist = host.add_daemon<services::DistributionDaemon>(config("dist"));
  ASSERT_TRUE(dist.start().ok());

  auto sink1 = host.net_host().open_datagram(9100);
  auto sink2 = host.net_host().open_datagram(9101);
  ASSERT_TRUE(sink1.ok() && sink2.ok());
  testenv::DatagramInbox sink1_rx(deployment_->env.reactor(), **sink1);
  testenv::DatagramInbox sink2_rx(deployment_->env.reactor(), **sink2);

  for (std::uint16_t port : {9100, 9101}) {
    CmdLine add("distAddSink");
    add.arg("stream", "video1");
    add.arg("dest", "dist-box:" + std::to_string(port));
    ASSERT_TRUE(client_->call(dist.address(), add, daemon::kCallOk).ok());
  }

  auto src = host.net_host().open_datagram(9102);
  ASSERT_TRUE(src.ok());
  services::MediaPacket packet;
  packet.stream = "video1";
  packet.format = "raw_video";
  packet.payload = util::to_bytes("frame-data");
  ASSERT_TRUE((*src)->send_to(dist.data_address(), packet.serialize()).ok());

  auto d1 = sink1_rx.next(500ms);
  auto d2 = sink2_rx.next(500ms);
  ASSERT_TRUE(d1.has_value());
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d1->payload, d2->payload);

  // Unsubscribed streams are not forwarded.
  packet.stream = "other";
  ASSERT_TRUE((*src)->send_to(dist.data_address(), packet.serialize()).ok());
  EXPECT_FALSE(sink1_rx.next(200ms).has_value());

  auto stats = dist.route_stats();
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_EQ(stats.fanout, 2u);
  // `distStats` reports the same totals.
  auto reply = dist.execute(CmdLine("distStats"), daemon::CallerInfo{});
  EXPECT_EQ(reply.get_integer("packets"), 1);
  EXPECT_EQ(reply.get_integer("bytes"), static_cast<std::int64_t>(stats.bytes));
  EXPECT_EQ(reply.get_integer("fanout"), 2);
}

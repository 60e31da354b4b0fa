// Failure injection and property-style tests across the stack:
//  * network partitions between daemons and the ASD (lease expiry path),
//  * dead notification subscribers being dropped,
//  * randomized command-language round trips (property: parse(serialize(x))
//    == x for arbitrary generated commands),
//  * store convergence under concurrent writers through different replicas,
//  * datagram loss on media streams.
#include <gtest/gtest.h>

#include <set>

#include "ace_test_env.hpp"
#include "chaos/chaos.hpp"
#include "cmdlang/parser.hpp"
#include "media/audio_services.hpp"
#include "services/launchers.hpp"
#include "services/monitors.hpp"
#include "store/persistent_store.hpp"
#include "store/robustness.hpp"
#include "store/store_client.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

// ------------------------------------------------ cmdlang round-trip property

namespace {

// Generates a random but grammatically valid command from a seed.
cmdlang::CmdLine random_command(util::Rng& rng) {
  auto random_word = [&] {
    std::string w = "w";
    w += rng.next_name(1 + rng.next_below(8));
    return w;
  };
  auto random_scalar = [&]() -> cmdlang::Value {
    switch (rng.next_below(4)) {
      case 0: return cmdlang::Value(rng.next_range(-1000000, 1000000));
      case 1: return cmdlang::Value(rng.next_gaussian() * 1000.0);
      case 2: return cmdlang::Value(cmdlang::Word{random_word()});
      default: {
        std::string s;
        std::size_t n = rng.next_below(20);
        for (std::size_t i = 0; i < n; ++i)
          s.push_back(static_cast<char>(32 + rng.next_below(95)));
        return cmdlang::Value(s);
      }
    }
  };
  auto random_vector = [&] {
    cmdlang::Vector v;
    std::size_t n = 1 + rng.next_below(5);
    switch (rng.next_below(3)) {
      case 0: {
        v.element_type = cmdlang::ValueType::integer;
        for (std::size_t i = 0; i < n; ++i)
          v.elements.emplace_back(rng.next_range(-100, 100));
        break;
      }
      case 1: {
        v.element_type = cmdlang::ValueType::real;
        for (std::size_t i = 0; i < n; ++i)
          v.elements.emplace_back(rng.next_double() * 100.0);
        break;
      }
      default: {
        v.element_type = cmdlang::ValueType::word;
        for (std::size_t i = 0; i < n; ++i)
          v.elements.emplace_back(cmdlang::Word{random_word()});
      }
    }
    return v;
  };

  cmdlang::CmdLine cmd(random_word());
  std::size_t args = rng.next_below(8);
  for (std::size_t i = 0; i < args; ++i) {
    std::string name = "a" + std::to_string(i);
    switch (rng.next_below(6)) {
      case 0:
      case 1:
      case 2:
        cmd.arg(name, random_scalar());
        break;
      case 3:
      case 4:
        cmd.arg(name, random_vector());
        break;
      default: {
        cmdlang::Array arr;
        std::size_t vectors = 1 + rng.next_below(3);
        for (std::size_t k = 0; k < vectors; ++k)
          arr.vectors.push_back(random_vector());
        cmd.arg(name, std::move(arr));
      }
    }
  }
  return cmd;
}

}  // namespace

class CmdLangRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(CmdLangRoundTripProperty, ParseSerializeIsIdentity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int i = 0; i < 50; ++i) {
    cmdlang::CmdLine original = random_command(rng);
    std::string wire = original.to_string();
    auto parsed = cmdlang::Parser::parse(wire);
    ASSERT_TRUE(parsed.ok()) << wire << " : " << parsed.error().to_string();
    // Value identity modulo the word/string quoting rule: re-serialize and
    // compare strings (stable fixed point).
    EXPECT_EQ(parsed->to_string(), wire) << wire;
    auto reparsed = cmdlang::Parser::parse(parsed->to_string());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.value(), parsed.value()) << wire;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CmdLangRoundTripProperty,
                         ::testing::Range(0, 10));

// -------------------------------------------------------- partition failures

class FailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    client_ = deployment_->make_client("laptop", "user/tester");
  }

  daemon::DaemonConfig config(const std::string& name) {
    daemon::DaemonConfig c;
    c.name = name;
    c.room = "hawk";
    return c;
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::AceClient> client_;
};

TEST_F(FailureTest, PartitionFromAsdExpiresLease) {
  daemon::DaemonHost host(deployment_->env, "island");
  daemon::DaemonConfig c = config("islander");
  c.lease = 300ms;
  c.lease_renew = 100ms;
  auto& svc = host.add_daemon<services::HrmDaemon>(c);
  ASSERT_TRUE(svc.start().ok());
  ASSERT_TRUE(services::AsdClient(*client_, deployment_->env.asd_address).lookup("islander")
                  .ok());

  // The daemon still runs, but its renewals can no longer reach the ASD.
  deployment_->env.network().set_partitioned("island", "infra", true);
  std::this_thread::sleep_for(700ms);
  EXPECT_TRUE(svc.running());  // alive...
  EXPECT_FALSE(services::AsdClient(*client_, deployment_->env.asd_address).lookup("islander")
                   .ok());  // ...but reaped (paper §2.4 failure model)

  // Healing the partition lets the next renewal fail (not registered), but
  // the service remains reachable directly.
  deployment_->env.network().set_partitioned("island", "infra", false);
  auto direct = client_->call(svc.address(), CmdLine("hrmStatus"), daemon::kCallOk);
  EXPECT_TRUE(direct.ok());
}

TEST_F(FailureTest, DeadNotificationSubscriberIsDropped) {
  daemon::DaemonHost host(deployment_->env, "work");
  auto& source = host.add_daemon<services::HrmDaemon>(config("src"));
  auto& sink = host.add_daemon<services::HrmDaemon>(config("snk"));
  ASSERT_TRUE(source.start().ok());
  ASSERT_TRUE(sink.start().ok());

  CmdLine sub("addNotification");
  sub.arg("command", Word{"hrmStatus"});
  sub.arg("service", sink.address().to_string());
  sub.arg("method", Word{"ping"});
  ASSERT_TRUE(client_->call(source.address(), sub, daemon::kCallOk).ok());

  auto entries = [&] {
    auto r = client_->call(source.address(), CmdLine("listNotifications"), daemon::kCallOk);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->get_vector("entries")->elements.size() : 0u;
  };
  EXPECT_EQ(entries(), 1u);

  // Kill the subscriber; repeated notification failures must eventually
  // clean up the subscription list.
  sink.crash();
  for (int i = 0; i < 10 && entries() > 0; ++i) {
    (void)client_->call(source.address(), CmdLine("hrmStatus"), daemon::kCallOk);
    std::this_thread::sleep_for(100ms);
  }
  EXPECT_EQ(entries(), 0u);
}

TEST_F(FailureTest, NoReplyCommandsLeaveChannelUsable) {
  daemon::DaemonHost host(deployment_->env, "work");
  auto& svc = host.add_daemon<services::HrmDaemon>(config("quiet"));
  ASSERT_TRUE(svc.start().ok());

  // Interleave fire-and-forget sends with normal calls on one channel.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_->send_only(svc.address(), CmdLine("ping")).ok());
    auto r = client_->call(svc.address(), CmdLine("hrmStatus"), daemon::kCallOk);
    ASSERT_TRUE(r.ok()) << "iteration " << i;
    EXPECT_EQ(r->get_text("host"), "work");
  }
}

TEST_F(FailureTest, AnonymousPlaintextCallerIsDeniedUnderAuthorization) {
  // Plaintext channels carry no certificate: the caller is "anonymous"
  // and must be denied when authorization is enforced.
  deployment_->env.channel_options().encrypt = false;
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("user/tester");
  deployment_->env.add_policy(policy);

  daemon::DaemonHost host(deployment_->env, "work");
  daemon::DaemonConfig c = config("guarded");
  c.enforce_authorization = true;
  auto& svc = host.add_daemon<services::HrmDaemon>(c);
  ASSERT_TRUE(svc.start().ok());

  auto anon = deployment_->make_client("anon-pc", "user/tester");
  auto r = anon->call(svc.address(), CmdLine("hrmStatus"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(cmdlang::is_error(r.value()));
  EXPECT_EQ(cmdlang::reply_error(r.value()).code, util::Errc::auth_error);
}

// ----------------------------------------------------- store under contention

TEST_F(FailureTest, StoreConvergesUnderConcurrentWriters) {
  std::vector<std::unique_ptr<daemon::DaemonHost>> hosts;
  std::vector<store::PersistentStoreDaemon*> replicas;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(std::make_unique<daemon::DaemonHost>(
        deployment_->env, "store" + std::to_string(i)));
    daemon::DaemonConfig c = config("store" + std::to_string(i));
    c.port = 6000;
    replicas.push_back(
        &hosts.back()->add_daemon<store::PersistentStoreDaemon>(c, i + 1));
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<net::Address> peers;
    for (int j = 0; j < 3; ++j)
      if (j != i) peers.push_back(replicas[j]->address());
    replicas[i]->set_peers(peers);
    ASSERT_TRUE(replicas[i]->start().ok());
  }

  // Three writers, each bound to a different replica, hammer the same keys.
  std::vector<std::jthread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      auto client = deployment_->make_client("writer" + std::to_string(w),
                                             "svc/writer");
      store::StoreClient store(*client, {replicas[w]->address()});
      for (int i = 0; i < 50; ++i) {
        (void)store.put("shared" + std::to_string(i % 5),
                        util::to_bytes("w" + std::to_string(w) + "-" +
                                       std::to_string(i)));
      }
    });
  }
  writers.clear();  // join

  // Anti-entropy pass to settle any replication lost to races.
  for (auto* r : replicas) (void)r->sync_from_peers();

  // Convergence: all replicas agree on version and content of every key.
  for (int k = 0; k < 5; ++k) {
    std::string key = "shared" + std::to_string(k);
    auto expected = replicas[0]->object(key);
    ASSERT_TRUE(expected.has_value()) << key;
    for (int i = 1; i < 3; ++i) {
      auto got = replicas[i]->object(key);
      ASSERT_TRUE(got.has_value()) << key;
      EXPECT_EQ(got->version, expected->version) << key;
      EXPECT_EQ(got->data, expected->data) << key;
    }
  }
}

// ------------------------------------------------------- lossy media streams

TEST_F(FailureTest, AudioPipelineSurvivesDatagramLoss) {
  daemon::DaemonHost host(deployment_->env, "av");
  // 20% loss on the loopback path is impossible (loopback is clean), so
  // run capture and play on different hosts with a lossy link.
  daemon::DaemonHost far_host(deployment_->env, "far");
  net::LinkPolicy lossy;
  lossy.datagram_loss = 0.2;
  deployment_->env.network().set_link("av", "far", lossy);

  auto& cap = host.add_daemon<media::AudioCaptureDaemon>(config("cap"),
                                                         "mic");
  auto& play = far_host.add_daemon<media::AudioPlayDaemon>(config("spk"));
  ASSERT_TRUE(cap.start().ok());
  ASSERT_TRUE(play.start().ok());
  cap.add_sink(play.data_address());

  constexpr int kFrames = 200;
  cap.capture_push(
      media::sine_wave(440, 8000, kFrames * media::kFrameSamples, 0));
  std::this_thread::sleep_for(500ms);
  std::uint64_t delivered = play.frames_played();
  // Best-effort: most frames arrive, some are lost, nothing wedges.
  EXPECT_GT(delivered, kFrames / 2u);
  EXPECT_LT(delivered, static_cast<std::uint64_t>(kFrames));
}

// ------------------------------------------------ authorization lifecycles

TEST_F(FailureTest, RepeatedAuthDenialsRaiseSecurityAlert) {
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("user/alice");
  deployment_->env.add_policy(policy);

  daemon::DaemonHost host(deployment_->env, "work");
  daemon::DaemonConfig c = config("guarded");
  c.enforce_authorization = true;
  auto& svc = host.add_daemon<services::HrmDaemon>(c);
  ASSERT_TRUE(svc.start().ok());

  // The second and third denials answer from the cached verdict, but
  // each one is still counted (and reported to the Network Logger).
  auto& metrics = deployment_->env.metrics();
  const auto denied_before = metrics.counter("daemon.auth.denied").value();
  const auto hits_before = metrics.counter("daemon.auth.verdict_hits").value();
  auto mallory = deployment_->make_client("mallory-pc", "user/mallory");
  for (int i = 0; i < 3; ++i) {
    auto r = mallory->call(svc.address(), CmdLine("hrmStatus"));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(cmdlang::is_error(r.value()));
  }
  EXPECT_EQ(metrics.counter("daemon.auth.denied").value(), denied_before + 3);
  EXPECT_EQ(metrics.counter("daemon.auth.verdict_hits").value(),
            hits_before + 2);

  // The denials reach the Network Logger as security events, which raises
  // an alert after the configured threshold (paper §4.14).
  bool alerted = false;
  for (int i = 0; i < 200 && !alerted; ++i) {
    alerted = deployment_->net_logger->alerts_raised() > 0;
    if (!alerted) std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(alerted);
}

// --------------------------------------------- chaos: schedule determinism

TEST(ChaosSchedule, SameSeedYieldsIdenticalTimeline) {
  chaos::ScheduleParams params;
  params.duration = 10s;
  chaos::Targets targets;
  targets.services = {"svc-a", "svc-b", "svc-c"};
  targets.hosts = {"h1", "h2", "h3", "h4"};

  const std::uint64_t seed = chaos::seed_from_env(0xace5eed);
  auto s1 = chaos::generate_schedule(seed, params, targets);
  auto s2 = chaos::generate_schedule(seed, params, targets);
  EXPECT_EQ(s1.events, s2.events);  // pure function of (seed, params, targets)
  ASSERT_FALSE(s1.events.empty());

  auto s3 = chaos::generate_schedule(seed + 1, params, targets);
  EXPECT_NE(s1.events, s3.events);
}

namespace {

// The open/close bookkeeping key for a fault event, or "" for heal kinds.
std::string fault_open_key(const chaos::FaultEvent& e) {
  using chaos::FaultKind;
  switch (e.kind) {
    case FaultKind::service_crash: return "svc|" + e.a;
    case FaultKind::link_down: return "link|" + e.a + "|" + e.b;
    case FaultKind::host_isolate: return "host|" + e.a;
    case FaultKind::latency_spike: return "lat|" + e.a + "|" + e.b;
    case FaultKind::loss_burst: return "loss|" + e.a + "|" + e.b;
    default: return "";
  }
}

std::string fault_close_key(const chaos::FaultEvent& e) {
  using chaos::FaultKind;
  switch (e.kind) {
    case FaultKind::service_restart: return "svc|" + e.a;
    case FaultKind::link_up: return "link|" + e.a + "|" + e.b;
    case FaultKind::host_heal: return "host|" + e.a;
    case FaultKind::latency_restore: return "lat|" + e.a + "|" + e.b;
    case FaultKind::loss_restore: return "loss|" + e.a + "|" + e.b;
    default: return "";
  }
}

}  // namespace

TEST(ChaosSchedule, EveryFaultIsHealedInsideTheHorizon) {
  chaos::ScheduleParams params;
  params.duration = 8s;
  chaos::Targets targets;
  targets.services = {"s1", "s2"};
  targets.hosts = {"h1", "h2", "h3"};

  for (std::uint64_t base : {1u, 7u, 42u, 1337u}) {
    auto sched =
        chaos::generate_schedule(chaos::seed_from_env(base), params, targets);
    ASSERT_FALSE(sched.events.empty()) << "seed " << base;
    std::set<std::string> open;
    std::chrono::milliseconds prev{0};
    for (const auto& e : sched.events) {
      EXPECT_GE(e.at, prev) << e.to_string();  // sorted
      EXPECT_LT(e.at, params.duration) << e.to_string();
      prev = e.at;
      if (auto k = fault_open_key(e); !k.empty()) {
        EXPECT_TRUE(open.insert(k).second)
            << "fault injected twice without heal: " << e.to_string();
      }
      if (auto k = fault_close_key(e); !k.empty()) {
        EXPECT_EQ(open.erase(k), 1u)
            << "heal without matching fault: " << e.to_string();
      }
    }
    EXPECT_TRUE(open.empty()) << "unhealed faults left at schedule end";
  }
}

TEST(ChaosSchedule, DiskFaultsAreOptInAndDeterministic) {
  chaos::ScheduleParams params;
  params.duration = 8s;
  chaos::Targets targets;
  targets.services = {"s1", "s2"};
  targets.hosts = {"h1", "h2"};

  // Opt-in contract: with the default weight_disk_fault = 0 the schedule
  // must be byte-identical whether or not disks are listed, so every
  // pre-existing (seed, params) replay stays valid.
  auto without = chaos::generate_schedule(11, params, targets);
  targets.disks = {"s1", "s2"};
  auto with_disks_off = chaos::generate_schedule(11, params, targets);
  EXPECT_EQ(without.events, with_disks_off.events);

  params.weight_disk_fault = 3;
  params.fsync_drop_count = 5;
  auto armed = chaos::generate_schedule(11, params, targets);
  EXPECT_EQ(armed.events, chaos::generate_schedule(11, params, targets).events);

  int torn = 0, drops = 0, rot = 0;
  for (const auto& e : armed.events) {
    switch (e.kind) {
      case chaos::FaultKind::disk_torn_tail: ++torn; break;
      case chaos::FaultKind::disk_fsync_drop:
        ++drops;
        EXPECT_EQ(e.count, 5) << e.to_string();
        break;
      case chaos::FaultKind::disk_bit_rot: ++rot; break;
      default: break;
    }
    if (e.kind == chaos::FaultKind::disk_torn_tail ||
        e.kind == chaos::FaultKind::disk_fsync_drop ||
        e.kind == chaos::FaultKind::disk_bit_rot) {
      EXPECT_TRUE(e.a == "s1" || e.a == "s2") << e.to_string();
      EXPECT_TRUE(e.b.empty()) << e.to_string();
    }
  }
  EXPECT_GT(torn + drops + rot, 0) << "weighted disk faults never drawn";

  // Durability-torture mode: bit rot can be excluded (it attacks already
  // durable bytes, a replication-repair story, not a WAL one).
  params.disk_bit_rot = false;
  auto no_rot = chaos::generate_schedule(11, params, targets);
  for (const auto& e : no_rot.events)
    EXPECT_NE(e.kind, chaos::FaultKind::disk_bit_rot) << e.to_string();
}

TEST(ChaosSchedule, RoomPartitionsAreOptInAndDeterministic) {
  chaos::ScheduleParams params;
  params.duration = 8s;
  chaos::Targets targets;
  targets.services = {"s1", "s2"};
  targets.hosts = {"h1", "h2", "h3", "h4"};

  // Opt-in contract, same as disks: with the default
  // weight_room_partition = 0 the schedule must be byte-identical whether
  // or not room groups are listed, so every pre-federation (seed, params)
  // replay stays valid.
  auto without = chaos::generate_schedule(7, params, targets);
  targets.rooms = {{"roomA", {"h1", "h2"}}, {"roomB", {"h3", "h4"}}};
  auto with_rooms_off = chaos::generate_schedule(7, params, targets);
  EXPECT_EQ(without.events, with_rooms_off.events);

  params.weight_room_partition = 8;
  auto armed = chaos::generate_schedule(7, params, targets);
  EXPECT_EQ(armed.events, chaos::generate_schedule(7, params, targets).events);

  // Every partition names two distinct room groups and is healed by a
  // later room_heal carrying the same pair.
  int partitions = 0;
  std::set<std::pair<std::string, std::string>> open_rooms;
  for (const auto& e : armed.events) {
    if (e.kind == chaos::FaultKind::room_partition) {
      ++partitions;
      EXPECT_NE(e.a, e.b) << e.to_string();
      EXPECT_TRUE(e.a == "roomA" || e.a == "roomB") << e.to_string();
      EXPECT_TRUE(e.b == "roomA" || e.b == "roomB") << e.to_string();
      EXPECT_TRUE(open_rooms.insert({e.a, e.b}).second)
          << "room pair partitioned twice without heal: " << e.to_string();
    } else if (e.kind == chaos::FaultKind::room_heal) {
      EXPECT_EQ(open_rooms.erase({e.a, e.b}), 1u)
          << "room heal without matching partition: " << e.to_string();
    }
  }
  EXPECT_GT(partitions, 0) << "weighted room partitions never drawn";
  EXPECT_TRUE(open_rooms.empty()) << "unhealed room partition at horizon";
}

TEST(ChaosSchedule, NoRestartModeLeavesRecoveryToTheFabric) {
  chaos::ScheduleParams params;
  params.duration = 8s;
  params.restart_services = false;
  chaos::Targets targets;
  targets.services = {"s1", "s2"};

  auto sched = chaos::generate_schedule(5, params, targets);
  ASSERT_FALSE(sched.events.empty());
  int crashes = 0;
  for (const auto& e : sched.events) {
    EXPECT_NE(e.kind, chaos::FaultKind::service_restart) << e.to_string();
    if (e.kind == chaos::FaultKind::service_crash) ++crashes;
  }
  EXPECT_GT(crashes, 0);
}

// ------------------------------------------------- chaos: live deployments

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    client_ = deployment_->make_client("ops", "user/ops");
  }

  daemon::DaemonConfig cfg(const std::string& name) {
    daemon::DaemonConfig c;
    c.name = name;
    c.room = "machine-room";
    return c;
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::AceClient> client_;
};

TEST_F(ChaosTest, CircuitBreakerOpensHalfOpensAndCloses) {
  daemon::DaemonHost host(deployment_->env, "brittle");
  auto& svc = host.add_daemon<services::HrmDaemon>(cfg("brittle-svc"));
  ASSERT_TRUE(svc.start().ok());
  const net::Address addr = svc.address();

  auto& metrics = deployment_->env.metrics();
  const auto trips0 = metrics.counter("client.breaker_trips").value();
  const auto closes0 = metrics.counter("client.breaker_closes").value();

  ASSERT_TRUE(client_->call(addr, CmdLine("ping"), daemon::kCallOk).ok());
  svc.crash();

  // Each failed call (no retries, so one attempt each) feeds the breaker;
  // at the threshold it trips open.
  const daemon::CallOptions one_shot{
      .timeout = 300ms, .require_ok = true, .retries = 0, .backoff = 1ms};
  const int threshold = client_->breaker_policy().failure_threshold;
  for (int i = 0; i < threshold; ++i)
    EXPECT_FALSE(client_->call(addr, CmdLine("ping"), one_shot).ok());
  EXPECT_EQ(metrics.counter("client.breaker_trips").value(), trips0 + 1);
  EXPECT_EQ(metrics.gauge("client.breaker_open").value(), 1);

  // While open, calls fail fast without touching the dead destination.
  const auto rejected0 = metrics.counter("client.breaker_rejected").value();
  auto fast = client_->call(addr, CmdLine("ping"), one_shot);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.error().code, util::Errc::unavailable);
  EXPECT_GT(metrics.counter("client.breaker_rejected").value(), rejected0);

  // Relaunch the service; after the cooldown the half-open probe goes
  // through, succeeds, and the breaker closes again.
  ASSERT_TRUE(svc.start().ok());
  std::this_thread::sleep_for(client_->breaker_policy().cooldown + 50ms);
  bool recovered = false;
  for (int i = 0; i < 100 && !recovered; ++i) {
    recovered = client_->call(addr, CmdLine("ping"), one_shot).ok();
    if (!recovered) std::this_thread::sleep_for(20ms);
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(metrics.gauge("client.breaker_open").value(), 0);
  EXPECT_EQ(metrics.counter("client.breaker_closes").value(), closes0 + 1);
}

TEST_F(ChaosTest, RetriesAreSpacedByJitteredBackoff) {
  // Refused immediately (no listener on that port), so elapsed time is
  // dominated by the backoff sleeps, not connect timeouts.
  const net::Address dead{"ops", 9999};
  client_->set_breaker_policy({.failure_threshold = 0});  // isolate backoff

  auto& metrics = deployment_->env.metrics();
  const auto retries0 = metrics.counter("client.retries").value();

  const daemon::CallOptions opts{.timeout = 300ms,
                                 .require_ok = true,
                                 .retries = 3,
                                 .backoff = 60ms,
                                 .backoff_cap = 1000ms};
  const auto t0 = std::chrono::steady_clock::now();
  auto r = client_->call(dead, CmdLine("ping"), opts);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(r.ok());
  // Jitter lower bound is 0.5x: at least 0.5 * (60 + 120 + 240) = 210ms.
  EXPECT_GE(elapsed, 200ms);
  EXPECT_GE(metrics.counter("client.retries").value(), retries0 + 3);
}

TEST_F(ChaosTest, AsdRestartDoesNotOrphanTheRobustnessManager) {
  daemon::DaemonHost work(deployment_->env, "worker");
  auto& hal = work.add_daemon<services::HalDaemon>(cfg("hal"));
  auto& sal = work.add_daemon<services::SalDaemon>(cfg("sal"));
  ASSERT_TRUE(hal.start().ok());
  ASSERT_TRUE(sal.start().ok());

  daemon::DaemonConfig fragile_cfg = cfg("fragile");
  fragile_cfg.lease = 300ms;
  fragile_cfg.lease_renew = 100ms;
  auto* fragile = &work.add_daemon<services::HrmDaemon>(fragile_cfg);
  ASSERT_TRUE(fragile->start().ok());

  std::atomic<int> launches{0};
  hal.register_launchable("fragile", [&]() -> util::Status {
    daemon::DaemonConfig c = cfg("fragile");
    c.lease = 300ms;
    c.lease_renew = 100ms;
    auto& revived = work.add_daemon<services::HrmDaemon>(c);
    launches++;
    return revived.start();
  });

  store::RobustnessOptions rm_opts;
  rm_opts.watch_interval = 100ms;
  auto& rm =
      work.add_daemon<store::RobustnessManagerDaemon>(cfg("rm"), rm_opts);
  ASSERT_TRUE(rm.start().ok());

  CmdLine manage("rmRegister");
  manage.arg("name", Word{"fragile"});
  manage.arg("kind", Word{"restart"});
  manage.arg("host", "worker");
  ASSERT_TRUE(client_->call(rm.address(), manage, daemon::kCallOk).ok());

  // Kill and relaunch the ASD. Its registry and notification table — the
  // RM's serviceExpired subscription included — are volatile and are gone
  // after the restart.
  auto& metrics = deployment_->env.metrics();
  const auto resub0 = metrics.counter("rm.resubscribes").value();
  deployment_->asd->crash();
  ASSERT_TRUE(deployment_->asd->start().ok());

  // The RM watchdog notices the missing subscription and re-subscribes.
  bool resubscribed = false;
  for (int i = 0; i < 400 && !resubscribed; ++i) {
    resubscribed = metrics.counter("rm.resubscribes").value() > resub0;
    if (!resubscribed) std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(resubscribed);

  // Wait for the fabric to re-register with the fresh ASD (lease renewals
  // bounce with not_found and trigger re-registration).
  auto registered = [&](const std::string& name) {
    return services::AsdClient(*client_, deployment_->env.asd_address)
        .lookup(name)
        .ok();
  };
  bool fabric_back = false;
  for (int i = 0; i < 400 && !fabric_back; ++i) {
    fabric_back = registered("fragile") && registered("sal");
    if (!fabric_back) std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(fabric_back);

  // A crash *after* the ASD restart still runs the full chain: lease
  // expiry -> serviceExpired to the re-subscribed RM -> SAL -> HAL.
  fragile->crash();
  bool relaunched = false;
  for (int i = 0; i < 600 && !relaunched; ++i) {
    relaunched = launches.load() > 0 && rm.total_restarts() >= 1;
    if (!relaunched) std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(relaunched);
}

TEST_F(ChaosTest, StoreConvergesAfterAChaosRun) {
  std::vector<std::unique_ptr<daemon::DaemonHost>> hosts;
  std::vector<store::PersistentStoreDaemon*> replicas;
  std::vector<net::Address> addrs;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(std::make_unique<daemon::DaemonHost>(
        deployment_->env, "store" + std::to_string(i + 1)));
    daemon::DaemonConfig c = cfg("store" + std::to_string(i + 1));
    c.port = 6000;
    replicas.push_back(
        &hosts.back()->add_daemon<store::PersistentStoreDaemon>(c, i + 1));
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<net::Address> peers;
    for (int j = 0; j < 3; ++j)
      if (j != i) peers.push_back(replicas[j]->address());
    replicas[i]->set_peers(peers);
    ASSERT_TRUE(replicas[i]->start().ok());
    addrs.push_back(replicas[i]->address());
  }

  chaos::ScheduleParams params;
  params.duration = 3000ms;
  params.mean_interval = 250ms;
  params.min_fault = 150ms;
  params.max_fault = 600ms;
  params.service_cooldown = 1200ms;
  chaos::Targets targets;
  targets.services = {"store1", "store2", "store3"};
  targets.hosts = {"store1", "store2", "store3"};

  chaos::Schedule schedule =
      chaos::generate_schedule(chaos::seed_from_env(99), params, targets);
  chaos::ChaosEngine engine(deployment_->env, schedule);
  for (int i = 0; i < 3; ++i)
    engine.add_service("store" + std::to_string(i + 1), replicas[i]);

  // A writer hammers the store for the whole run; individual puts may fail
  // against a crashed or partitioned replica — that is the point.
  auto wclient = deployment_->make_client("chaos-writer", "svc/writer");
  std::atomic<bool> stop_writer{false};
  std::jthread writer([&] {
    store::StoreClient store(*wclient, addrs);
    for (int i = 0; !stop_writer.load(); ++i) {
      (void)store.put("chaos/k" + std::to_string(i % 8),
                      util::to_bytes("v" + std::to_string(i)));
      if (i % 5 == 0) store.rotate();
      std::this_thread::sleep_for(20ms);
    }
  });

  engine.start();
  engine.join();
  stop_writer = true;
  writer.join();

  EXPECT_TRUE(engine.done());
  EXPECT_EQ(engine.log().size(), schedule.events.size());

  // The schedule heals everything it broke: every replica is running.
  for (auto* r : replicas) EXPECT_TRUE(r->running());

  // Drive anti-entropy until all three replicas agree on every key.
  auto converged = [&] {
    for (int k = 0; k < 8; ++k) {
      const std::string key = "chaos/k" + std::to_string(k);
      auto a = replicas[0]->object(key);
      auto b = replicas[1]->object(key);
      auto c = replicas[2]->object(key);
      if (b.has_value() != a.has_value() || c.has_value() != a.has_value())
        return false;
      if (!a) continue;
      if (a->version != b->version || a->version != c->version) return false;
      if (a->data != b->data || a->data != c->data) return false;
    }
    return true;
  };
  bool ok = false;
  for (int i = 0; i < 100 && !ok; ++i) {
    for (auto* r : replicas) (void)r->sync_from_peers();
    ok = converged();
    if (!ok) std::this_thread::sleep_for(50ms);
  }
  EXPECT_TRUE(ok);
}

TEST_F(FailureTest, CredentialCacheExpiresAndRevocationTakesEffect) {
  deployment_->env.register_principal("admin-key");
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("admin-key");
  deployment_->env.add_policy(policy);
  ASSERT_TRUE(services::grant_credential(
                  *client_, deployment_->env.auth_db_address,
                  deployment_->env, "admin-key", "user/bob", "")
                  .ok());

  daemon::DaemonHost host(deployment_->env, "work");
  daemon::DaemonConfig c = config("guarded");
  c.enforce_authorization = true;
  c.credential_cache_ttl = 200ms;
  auto& svc = host.add_daemon<services::HrmDaemon>(c);
  ASSERT_TRUE(svc.start().ok());

  auto bob = deployment_->make_client("bob-pc", "user/bob");
  auto allowed = bob->call(svc.address(), CmdLine("hrmStatus"), daemon::kCallOk);
  ASSERT_TRUE(allowed.ok()) << (allowed.ok() ? "" : allowed.error().to_string());

  // Revoke at the Authorization DB. Within the cache TTL the old grant may
  // still apply; after expiry it must not.
  CmdLine revoke("credRemove");
  revoke.arg("principal", "user/bob");
  ASSERT_TRUE(
      client_->call(deployment_->env.auth_db_address, revoke, daemon::kCallOk).ok());
  std::this_thread::sleep_for(300ms);
  auto denied = bob->call(svc.address(), CmdLine("hrmStatus"));
  ASSERT_TRUE(denied.ok());
  EXPECT_TRUE(cmdlang::is_error(denied.value()));
  EXPECT_EQ(cmdlang::reply_error(denied.value()).code, util::Errc::auth_error);
}

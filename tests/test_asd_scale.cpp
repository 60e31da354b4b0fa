// Directory-at-scale tests for the AsdIndex rework: concurrent
// register/renew/expire/query torture with index<->registry consistency
// checks, indexed-vs-linear ablation equivalence, batched lease renewal,
// and the AsdClient lookup cache (lease bound, negative entries,
// invalidation).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ace_test_env.hpp"
#include "daemon/lease.hpp"
#include "services/asd_index.hpp"
#include "services/monitors.hpp"
#include "store/robustness.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

namespace {

services::AsdRegistration make_reg(const std::string& name,
                                   const std::string& service_class,
                                   const std::string& room) {
  services::AsdRegistration r;
  r.name = name;
  r.host = "host-" + name;
  r.port = 4242;
  r.room = room;
  r.service_class = service_class;
  r.lease = 1h;
  r.expires = std::chrono::steady_clock::now() + r.lease;
  return r;
}

std::vector<std::string> names_of(
    const std::vector<services::AsdRegistration>& regs) {
  std::vector<std::string> out;
  for (const auto& r : regs) out.push_back(r.name);
  return out;
}

}  // namespace

// ------------------------------------------------------------ index ablation

TEST(AsdIndexAblation, IndexedAndLinearReturnIdenticalResults) {
  services::AsdIndex indexed(/*use_index=*/true);
  services::AsdIndex linear(/*use_index=*/false);

  const std::vector<std::string> classes = {
      "Service/Device/Camera/PTZ", "Service/Device/Camera/Fixed",
      "Service/Device/Display", "Service/Monitor/HRM", "Service/Launcher/SAL"};
  const std::vector<std::string> rooms = {"hawk", "eagle", "falcon", "lobby"};
  for (int i = 0; i < 200; ++i) {
    auto r = make_reg("svc-" + std::to_string(i), classes[i % classes.size()],
                      rooms[i % rooms.size()]);
    indexed.upsert(r);
    linear.upsert(r);
  }

  const auto now = std::chrono::steady_clock::now();
  // Every query shape the index special-cases, plus the full-scan fallback.
  const std::vector<std::array<std::string, 3>> queries = {
      {"svc-17", "*", "*"},                         // exact-name point lookup
      {"no-such-name", "*", "*"},                   // exact-name miss
      {"*", "Service/Device/Display", "*"},         // exact class bucket
      {"*", "*", "falcon"},                         // exact room bucket
      {"svc-*", "Service/Monitor/HRM", "eagle"},    // both exact, intersect
      {"*", "Service/Device/Camera/Fixed", "lobby"},// exact pair, no overlap
      {"*", "No/Such/Class", "*"},                  // exact class, no bucket
      {"*", "Service/Device/*", "*"},               // class glob over keys
      {"*", "*", "?agle"},                          // room glob over keys
      {"*1?", "*", "*"},                            // name glob -> full scan
      {"*", "*", "*"},                              // match-all scan
  };
  for (const auto& q : queries) {
    auto a = indexed.query(q[0], q[1], q[2], now);
    auto b = linear.query(q[0], q[1], q[2], now);
    EXPECT_EQ(names_of(a), names_of(b))
        << "query name=" << q[0] << " class=" << q[1] << " room=" << q[2];
  }
  EXPECT_TRUE(indexed.check_consistency());
}

TEST(AsdIndexAblation, RenewSupersedesHeapAndExpirySticks) {
  services::AsdIndex index(true);
  auto r = make_reg("ephemeral", "Service/X", "hawk");
  r.lease = 50ms;
  r.expires = std::chrono::steady_clock::now() + r.lease;
  index.upsert(r);

  // Renew pushes a fresh heap node; the stale one must be skipped, not
  // reported as due.
  ASSERT_TRUE(index.renew("ephemeral", std::chrono::steady_clock::now() + 40ms)
                  .has_value());
  auto due = index.collect_expired(std::chrono::steady_clock::now() + 60ms);
  EXPECT_TRUE(due.empty());

  // Past the renewed deadline it is due exactly once, and erase_expired
  // refuses to remove an entry that was renewed in the meantime.
  due = index.collect_expired(std::chrono::steady_clock::now() + 200ms);
  ASSERT_EQ(due.size(), 1u);
  ASSERT_TRUE(index.renew("ephemeral", std::chrono::steady_clock::now() + 300ms)
                  .has_value());
  EXPECT_FALSE(index.erase_expired("ephemeral",
                                   std::chrono::steady_clock::now() + 200ms));
  EXPECT_TRUE(index.find("ephemeral").has_value());
  EXPECT_TRUE(index.check_consistency());
}

// --------------------------------------------------------------- torture test

class AsdScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<testenv::AceTestEnv>();
    ASSERT_TRUE(deployment_->start().ok());
    client_ = deployment_->make_client("laptop", "user/tester");
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::AceClient> client_;
};

TEST_F(AsdScaleTest, ConcurrentChurnKeepsIndexConsistent) {
  auto* asd = deployment_->asd;
  const daemon::CallerInfo caller{"user/tester", {}};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Writers churn short-lease registrations so register, renew, deregister
  // and reaper-driven expiry all race; readers hammer every query shape.
  auto writer = [&](int tid) {
    int i = 0;
    while (!stop.load()) {
      const std::string name =
          "churn-" + std::to_string(tid) + "-" + std::to_string(i % 40);
      CmdLine reg("register");
      reg.arg("name", Word{name});
      reg.arg("host", "h" + std::to_string(tid));
      reg.arg("port", std::int64_t{9000 + tid});
      reg.arg("room", Word{i % 2 ? "hawk" : "eagle"});
      reg.arg("class", "Service/Churn/T" + std::to_string(tid));
      reg.arg("lease", std::int64_t{200});
      if (!cmdlang::is_ok(asd->execute(reg, caller))) failures.fetch_add(1);
      if (i % 3 == 0) {
        CmdLine renew("renew");
        renew.arg("name", Word{name});
        (void)asd->execute(renew, caller);
      }
      if (i % 7 == 0) {
        CmdLine dereg("deregister");
        dereg.arg("name", Word{name});
        (void)asd->execute(dereg, caller);
      }
      ++i;
    }
  };
  auto reader = [&] {
    const std::vector<std::array<const char*, 3>> shapes = {
        {"churn-0-1", "*", "*"},
        {"*", "Service/Churn/T1", "*"},
        {"*", "Service/Churn/*", "hawk"},
        {"*", "*", "eagle"},
        {"*", "*", "*"},
    };
    std::size_t i = 0;
    while (!stop.load()) {
      const auto& s = shapes[i++ % shapes.size()];
      CmdLine query("query");
      query.arg("name", s[0]);
      query.arg("class", s[1]);
      query.arg("room", s[2]);
      if (!cmdlang::is_ok(asd->execute(query, caller))) failures.fetch_add(1);
    }
  };

  std::vector<std::jthread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(writer, t);
  for (int t = 0; t < 2; ++t) threads.emplace_back(reader);

  const auto deadline = std::chrono::steady_clock::now() + 800ms;
  auto& gauge = deployment_->env.metrics().gauge("asd.live_count");
  while (std::chrono::steady_clock::now() < deadline) {
    EXPECT_TRUE(asd->index_consistent());
    EXPECT_GE(gauge.value(), 0);
    std::this_thread::sleep_for(20ms);
  }
  stop.store(true);
  threads.clear();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(asd->index_consistent());
  EXPECT_EQ(gauge.value(), static_cast<std::int64_t>(asd->live_count()));
}

// ------------------------------------------------------------- batch renewal

TEST_F(AsdScaleTest, RenewBatchRenewsEveryNameAndFlagsLostLeases) {
  services::AsdClient asd(*client_, deployment_->env.asd_address);
  for (int i = 0; i < 4; ++i) {
    services::ServiceRegistration r;
    r.name = "batch-" + std::to_string(i);
    r.address = {"laptop", static_cast<std::uint16_t>(7000 + i)};
    r.room = "hawk";
    r.service_class = "Service/Test";
    r.lease = 500ms;
    ASSERT_TRUE(asd.register_service(r).ok());
  }

  auto outcomes =
      asd.renew_batch({"batch-0", "batch-1", "ghost", "batch-2", "batch-3"});
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes->size(), 5u);
  int renewed = 0;
  for (const auto& o : *outcomes) {
    if (o.name == "ghost")
      EXPECT_FALSE(o.renewed);
    else
      EXPECT_TRUE(o.renewed);
    renewed += o.renewed ? 1 : 0;
  }
  EXPECT_EQ(renewed, 4);
}

TEST_F(AsdScaleTest, HostCoordinatorKeepsServicesAliveWithOneRpcStream) {
  auto& metrics = deployment_->env.metrics();
  const auto batches_before = metrics.counter("daemon.lease.batches").value();

  daemon::DaemonHost host(deployment_->env, "workstation");
  std::vector<services::HrmDaemon*> daemons;
  for (int i = 0; i < 4; ++i) {
    daemon::DaemonConfig c;
    c.name = "worker-" + std::to_string(i);
    c.room = "hawk";
    c.lease = 300ms;
    c.lease_renew = 100ms;
    daemons.push_back(&host.add_daemon<services::HrmDaemon>(c));
  }
  ASSERT_TRUE(host.start_all().ok());
  EXPECT_EQ(host.leases().enrolled_count(), 4u);

  // All four outlive several lease periods on the coordinator's renewals.
  std::this_thread::sleep_for(900ms);
  services::AsdClient asd(*client_, deployment_->env.asd_address);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(asd.lookup("worker-" + std::to_string(i)).ok())
        << "worker-" << i << " lost its lease";
  EXPECT_GT(metrics.counter("daemon.lease.batches").value(), batches_before);

  // A stopped daemon leaves the batch; a crashed one stops being renewed
  // for, so its lease lapses and the directory notices (§2.4).
  daemons[0]->stop();
  daemons[1]->crash();
  EXPECT_EQ(host.leases().enrolled_count(), 2u);
  std::this_thread::sleep_for(500ms);
  EXPECT_FALSE(asd.lookup("worker-0").ok());  // deregistered at stop
  EXPECT_FALSE(asd.lookup("worker-1").ok());  // lease expired after crash
  EXPECT_TRUE(asd.lookup("worker-2").ok());
  host.stop_all();
}

// ------------------------------------------------------------- client cache

TEST_F(AsdScaleTest, CachedLookupServesFromCacheWithinLease) {
  auto& metrics = deployment_->env.metrics();
  services::AsdClient asd(*client_, deployment_->env.asd_address,
                          services::AsdCacheOptions{.enabled = true});
  services::ServiceRegistration r;
  r.name = "cached-svc";
  r.address = {"laptop", 7100};
  r.room = "hawk";
  r.service_class = "Service/Test";
  r.lease = 10s;
  ASSERT_TRUE(asd.register_service(r).ok());

  const auto server_lookups_before = metrics.counter("asd.lookups").value();
  ASSERT_TRUE(asd.lookup("cached-svc").ok());  // miss, fills cache
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(asd.lookup("cached-svc").ok());
  EXPECT_EQ(metrics.counter("asd.lookups").value(), server_lookups_before + 1);
  EXPECT_GE(metrics.counter("asd_client.cache_hits").value(), 5);

  // Explicit invalidation forces the next lookup back to the directory.
  asd.invalidate("cached-svc");
  ASSERT_TRUE(asd.lookup("cached-svc").ok());
  EXPECT_EQ(metrics.counter("asd.lookups").value(), server_lookups_before + 2);
}

TEST_F(AsdScaleTest, CachedEntryNeverOutlivesItsLease) {
  services::AsdClient asd(*client_, deployment_->env.asd_address,
                          services::AsdCacheOptions{.enabled = true});
  services::ServiceRegistration r;
  r.name = "shortlease";
  r.address = {"laptop", 7101};
  r.room = "hawk";
  r.service_class = "Service/Test";
  r.lease = 300ms;
  ASSERT_TRUE(asd.register_service(r).ok());
  ASSERT_TRUE(asd.lookup("shortlease").ok());  // cached, TTL <= 300ms

  // Nothing renews the lease. Past it, the cache must not keep the entry
  // alive — the lookup misses, goes to the directory, and comes back
  // not_found.
  std::this_thread::sleep_for(450ms);
  auto stale = asd.lookup("shortlease");
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, util::Errc::not_found);
}

TEST_F(AsdScaleTest, NegativeCacheExpiresAndStopsMaskingRegistration) {
  auto& metrics = deployment_->env.metrics();
  services::AsdClient asd(
      *client_, deployment_->env.asd_address,
      services::AsdCacheOptions{.enabled = true, .negative_ttl = 150ms});

  const auto server_lookups_before = metrics.counter("asd.lookups").value();
  EXPECT_FALSE(asd.lookup("late-arriver").ok());  // real miss, cached
  EXPECT_FALSE(asd.lookup("late-arriver").ok());  // served from negative cache
  EXPECT_EQ(metrics.counter("asd.lookups").value(), server_lookups_before + 1);

  services::ServiceRegistration r;
  r.name = "late-arriver";
  r.address = {"laptop", 7102};
  r.room = "hawk";
  r.service_class = "Service/Test";
  ASSERT_TRUE(asd.register_service(r).ok());

  // Once the negative entry's short TTL runs out, the registration shows.
  std::this_thread::sleep_for(200ms);
  EXPECT_TRUE(asd.lookup("late-arriver").ok());
}

TEST_F(AsdScaleTest, ExpiryNotificationEvictsRobustnessManagerCache) {
  daemon::DaemonHost host(deployment_->env, "mgmt");
  daemon::DaemonConfig c;
  c.name = "rm";
  c.room = "machine-room";
  auto& rm = host.add_daemon<store::RobustnessManagerDaemon>(c);
  ASSERT_TRUE(rm.start().ok());

  CmdLine manage("rmRegister");
  manage.arg("name", Word{"doomed"});
  manage.arg("kind", Word{"restart"});
  ASSERT_TRUE(client_->call(rm.address(), manage, daemon::kCallOk).ok());

  // A short-lease registration that nobody renews: the ASD reaps it and
  // notifies the RM, whose rmNotify handler must evict the name from its
  // lookup cache before scheduling the relaunch.
  services::AsdClient asd(*client_, deployment_->env.asd_address);
  services::ServiceRegistration r;
  r.name = "doomed";
  r.address = {"laptop", 7103};
  r.room = "hawk";
  r.service_class = "Service/Test";
  r.lease = 250ms;
  ASSERT_TRUE(asd.register_service(r).ok());

  auto& invalidations =
      deployment_->env.metrics().counter("rm.cache_invalidations");
  const auto before = invalidations.value();
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (invalidations.value() == before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(25ms);
  EXPECT_GT(invalidations.value(), before);
  rm.stop();
}

// ------------------------------------------------------------ reaper latency

TEST_F(AsdScaleTest, AsdStopsPromptlyDespiteLongReapInterval) {
  daemon::DaemonHost host(deployment_->env, "aux");
  daemon::DaemonConfig c;
  c.name = "slow-reap-asd";
  c.room = "machine-room";
  c.register_with_asd = false;
  c.register_with_room_db = false;
  services::AsdOptions opts;
  opts.reap_interval = 5s;  // the cv wait must be cut short by stop()
  auto& asd = host.add_daemon<services::AsdDaemon>(c, opts);
  ASSERT_TRUE(asd.start().ok());
  std::this_thread::sleep_for(50ms);  // reaper parked in its long wait

  const auto t0 = std::chrono::steady_clock::now();
  asd.stop();
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, 1s) << "stop() blocked on the reap interval";
}

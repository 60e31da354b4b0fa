// Tests for the ACE service daemon core: builtin commands, notifications
// (§2.5), startup sequence (§2.6), leases (§2.4), authorization (§3.2),
// device hierarchy (§2.3 Fig 6), failure behaviour, the inline path of
// nonblocking commands, and deferred replies.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>

#include "ace_test_env.hpp"
#include "daemon/devices.hpp"
#include "daemon/wire.hpp"
#include "endpoint_waiter.hpp"
#include "services/auth_db.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::Word;

namespace {

// A minimal concrete daemon for poking at base behaviour.
class EchoDaemon : public daemon::ServiceDaemon {
 public:
  EchoDaemon(daemon::Environment& env, daemon::DaemonHost& host,
             daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("echo", "echo the text back")
            .arg(cmdlang::string_arg("text")),
        [](const CmdLine& cmd, const daemon::CallerInfo&) {
          CmdLine reply = cmdlang::make_ok();
          reply.arg("text", cmd.get_text("text"));
          return reply;
        });
    register_command(
        cmdlang::CommandSpec("whoami", "report caller principal")
            .concurrent_ok(),
        [](const CmdLine&, const daemon::CallerInfo& caller) {
          CmdLine reply = cmdlang::make_ok();
          reply.arg("principal", caller.principal);
          return reply;
        });
  }
};

// Notification sink: records every invocation of its `sink` command.
class SinkDaemon : public daemon::ServiceDaemon {
 public:
  SinkDaemon(daemon::Environment& env, daemon::DaemonHost& host,
             daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("sink", "notification sink")
            .arg(cmdlang::string_arg("source"))
            .arg(cmdlang::word_arg("command"))
            .arg(cmdlang::string_arg("detail")),
        [this](const CmdLine& cmd, const daemon::CallerInfo&) {
          std::scoped_lock lock(mu_);
          received_.push_back(cmd.get_text("detail"));
          return cmdlang::make_ok();
        });
  }

  std::vector<std::string> received() const {
    std::scoped_lock lock(mu_);
    return received_;
  }

  bool wait_for(std::size_t n, std::chrono::milliseconds timeout) const {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::scoped_lock lock(mu_);
        if (received_.size() >= n) return true;
      }
      std::this_thread::sleep_for(5ms);
    }
    return false;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> received_;
};

// Its serialized `nap` holds the control lane for 200 ms, long enough to
// queue commands behind it.
class NapDaemon : public daemon::ServiceDaemon {
 public:
  NapDaemon(daemon::Environment& env, daemon::DaemonHost& host,
            daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(cmdlang::CommandSpec("nap", "hold the control lane"),
                     [this](const CmdLine&, const daemon::CallerInfo&) {
                       ++naps_;
                       std::this_thread::sleep_for(200ms);
                       return cmdlang::make_ok();
                     });
  }

  int naps() const { return naps_.load(); }

 private:
  std::atomic<int> naps_{0};
};

// Pings its peer through its one client: from its `callPeer` handler, and
// as it ends, from on_stop() and on_crash() (where a subclass ends its own
// rounds, flushes and repairs).
class CallerDaemon : public daemon::ServiceDaemon {
 public:
  CallerDaemon(daemon::Environment& env, daemon::DaemonHost& host,
               daemon::DaemonConfig config, net::Address peer)
      : ServiceDaemon(env, host, std::move(config)), peer_(std::move(peer)) {
    register_command(cmdlang::CommandSpec("callPeer", "ping the peer"),
                     [this](const CmdLine&, const daemon::CallerInfo&) {
                       return ping_peer() ? cmdlang::make_ok()
                                          : cmdlang::make_error(
                                                util::Errc::unavailable,
                                                "peer did not answer");
                     });
  }

  bool pinged_at_end() const { return pinged_at_end_.load(); }

 protected:
  void on_stop() override { pinged_at_end_ = ping_peer(); }
  void on_crash() override { pinged_at_end_ = ping_peer(); }

 private:
  bool ping_peer() {
    return control_client().call(peer_, CmdLine("ping"), daemon::kCallOk).ok();
  }

  net::Address peer_;
  std::atomic<bool> pinged_at_end_{false};
};

// Deferred commands: `later` answers `text` from a reactor timer `ms` ms
// after its handler returned, `forget` drops its Reply unsent, `hold`
// keeps its Reply until a `release` answers it.
class DeferredDaemon : public daemon::ServiceDaemon {
 public:
  DeferredDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                 daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("later", "answer from a timer")
            .arg(cmdlang::string_arg("text"))
            .arg(cmdlang::integer_arg("ms"))
            .concurrent_ok(),
        [this](const CmdLine& cmd, const daemon::CallerInfo&,
               daemon::Reply reply) {
          CmdLine answer = cmdlang::make_ok();
          answer.arg("text", cmd.get_text("text"));
          auto owed = std::make_shared<daemon::Reply>(std::move(reply));
          this->env().reactor().post_after(
              std::chrono::milliseconds(cmd.get_integer("ms")),
              [owed, answer] { owed->send(answer); });
        });
    register_command(
        cmdlang::CommandSpec("forget", "drop the reply").concurrent_ok(),
        [](const CmdLine&, const daemon::CallerInfo&, daemon::Reply) {});
    register_command(
        cmdlang::CommandSpec("hold", "answer at the next release")
            .concurrent_ok(),
        [this](const CmdLine&, const daemon::CallerInfo&,
               daemon::Reply reply) {
          std::scoped_lock lock(mu_);
          held_ = std::move(reply);
        });
    register_command(
        cmdlang::CommandSpec("release", "answer the held reply")
            .concurrent_ok(),
        [this](const CmdLine&, const daemon::CallerInfo&) {
          daemon::Reply held;
          {
            std::scoped_lock lock(mu_);
            held = std::move(held_);
          }
          held.send(cmdlang::make_ok());
          return cmdlang::make_ok();
        });
  }

 private:
  std::mutex mu_;
  daemon::Reply held_;
};

// Registers a deferred handler on a serialized command.
class SerializedDeferredDaemon : public daemon::ServiceDaemon {
 public:
  SerializedDeferredDaemon(daemon::Environment& env, daemon::DaemonHost& host,
                           daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("serialized", "on the control lane"),
        [](const CmdLine&, const daemon::CallerInfo&, daemon::Reply reply) {
          reply.send(cmdlang::make_ok());
        });
  }
};

// reactor.blocking_tasks once the ops tasks behind earlier replies have
// returned: a task sends its reply before it ends.
std::uint64_t settled_blocking_tasks(daemon::Environment& env) {
  std::this_thread::sleep_for(50ms);
  return env.metrics().counter("reactor.blocking_tasks").value();
}

}  // namespace

class DaemonTest : public ::testing::Test {
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

  // Subscribes `sink`'s `sink` command to `source`'s `echo` events.
  void subscribe(EchoDaemon& source, const SinkDaemon& sink) {
    CmdLine sub("addNotification");
    sub.arg("command", Word{"echo"});
    sub.arg("service", sink.address().to_string());
    sub.arg("method", Word{"sink"});
    ASSERT_TRUE(client_->call(source.address(), sub, daemon::kCallOk).ok());
  }

  // Runs `echo` on `source` and waits until the notify pump has sent its
  // event, delivered or refused, so that each event is a frame of its own.
  void echo_one_event(EchoDaemon& source) {
    auto& sent = deployment_->env.metrics().counter("daemon.notify.sent");
    const auto before = sent.value();
    CmdLine cmd("echo");
    cmd.arg("text", "event");
    ASSERT_TRUE(client_->call(source.address(), cmd, daemon::kCallOk).ok());
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (sent.value() == before && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    ASSERT_GT(sent.value(), before);
  }

  // Whether `source` lists `sink` among its subscribers.
  static bool subscribed(EchoDaemon& source, const SinkDaemon& sink) {
    const std::string entry = "echo>" + sink.address().to_string() + ">sink";
    auto reply =
        source.execute(CmdLine("listNotifications"), daemon::CallerInfo{});
    if (auto entries = reply.get_vector("entries"))
      for (const auto& e : entries->elements)
        if (e.as_text() == entry) return true;
    return false;
  }

  std::unique_ptr<testenv::AceTestEnv> deployment_;
  std::unique_ptr<daemon::DaemonHost> host_;
  std::unique_ptr<daemon::AceClient> client_;
};

TEST_F(DaemonTest, BuiltinPingInfoHelp) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("echo1"));
  ASSERT_TRUE(echo.start().ok());

  auto ping = client_->call(echo.address(), CmdLine("ping"), daemon::kCallOk);
  ASSERT_TRUE(ping.ok());

  auto info = client_->call(echo.address(), CmdLine("info"), daemon::kCallOk);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->get_text("name"), "echo1");
  EXPECT_EQ(info->get_text("room"), "hawk");
  auto commands = info->get_vector("commands");
  ASSERT_TRUE(commands.has_value());
  EXPECT_GE(commands->elements.size(), 8u);  // builtins + echo + whoami

  CmdLine help("help");
  help.arg("command", Word{"echo"});
  auto h = client_->call(echo.address(), help, daemon::kCallOk);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->get_text("command"), "echo");
}

TEST_F(DaemonTest, CustomCommandRoundTrip) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("echo2"));
  ASSERT_TRUE(echo.start().ok());
  CmdLine cmd("echo");
  cmd.arg("text", "hello ace");
  auto reply = client_->call(echo.address(), cmd, daemon::kCallOk);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->get_text("text"), "hello ace");
}

TEST_F(DaemonTest, CallerPrincipalFromCertificate) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("echo3"));
  ASSERT_TRUE(echo.start().ok());
  auto reply = client_->call(echo.address(), CmdLine("whoami"), daemon::kCallOk);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->get_text("principal"), "user/tester");
}

TEST_F(DaemonTest, UnknownCommandAndBadSyntaxRejected) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("echo4"));
  ASSERT_TRUE(echo.start().ok());
  auto& rejected = deployment_->env.metrics().counter("daemon.cmd.rejected");
  const auto rejected_before = rejected.value();

  auto bad = client_->call(echo.address(), CmdLine("teleport"));
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(cmdlang::is_error(bad.value()));
  EXPECT_EQ(cmdlang::reply_error(bad.value()).code,
            util::Errc::semantic_error);

  CmdLine missing("echo");  // required arg absent
  auto miss = client_->call(echo.address(), missing);
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(cmdlang::is_error(miss.value()));
  EXPECT_GE(rejected.value(), rejected_before + 2);
}

TEST_F(DaemonTest, NotificationsFireOnCommandExecution) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("source1"));
  auto& sink = host_->add_daemon<SinkDaemon>(config("sink1"));
  ASSERT_TRUE(echo.start().ok());
  ASSERT_TRUE(sink.start().ok());

  CmdLine sub("addNotification");
  sub.arg("command", Word{"echo"});
  sub.arg("service", sink.address().to_string());
  sub.arg("method", Word{"sink"});
  ASSERT_TRUE(client_->call(echo.address(), sub, daemon::kCallOk).ok());

  CmdLine cmd("echo");
  cmd.arg("text", "notify me");
  ASSERT_TRUE(client_->call(echo.address(), cmd, daemon::kCallOk).ok());

  ASSERT_TRUE(sink.wait_for(1, 2s));
  auto received = sink.received();
  ASSERT_EQ(received.size(), 1u);
  // The detail carries the original command, parseable per Fig 5.
  auto detail = cmdlang::Parser::parse(received[0]);
  ASSERT_TRUE(detail.ok());
  EXPECT_EQ(detail->name(), "echo");
  EXPECT_EQ(detail->get_text("text"), "notify me");
}

TEST_F(DaemonTest, RemoveNotificationStopsDelivery) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("source2"));
  auto& sink = host_->add_daemon<SinkDaemon>(config("sink2"));
  ASSERT_TRUE(echo.start().ok());
  ASSERT_TRUE(sink.start().ok());

  CmdLine sub("addNotification");
  sub.arg("command", Word{"echo"});
  sub.arg("service", sink.address().to_string());
  sub.arg("method", Word{"sink"});
  ASSERT_TRUE(client_->call(echo.address(), sub, daemon::kCallOk).ok());

  CmdLine unsub("removeNotification");
  unsub.arg("command", Word{"echo"});
  unsub.arg("service", sink.address().to_string());
  ASSERT_TRUE(client_->call(echo.address(), unsub, daemon::kCallOk).ok());

  CmdLine cmd("echo");
  cmd.arg("text", "should not notify");
  ASSERT_TRUE(client_->call(echo.address(), cmd, daemon::kCallOk).ok());
  EXPECT_FALSE(sink.wait_for(1, 300ms));
}

TEST_F(DaemonTest, FailingCommandDoesNotNotify) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("source3"));
  auto& sink = host_->add_daemon<SinkDaemon>(config("sink3"));
  ASSERT_TRUE(echo.start().ok());
  ASSERT_TRUE(sink.start().ok());

  CmdLine sub("addNotification");
  sub.arg("command", Word{"echo"});
  sub.arg("service", sink.address().to_string());
  sub.arg("method", Word{"sink"});
  ASSERT_TRUE(client_->call(echo.address(), sub, daemon::kCallOk).ok());

  (void)client_->call(echo.address(), CmdLine("echo"));  // missing arg
  EXPECT_FALSE(sink.wait_for(1, 300ms));
}

// A subscriber whose deliveries keep failing, three in a row, is dropped.
TEST_F(DaemonTest, NotifyFailuresDropSubscriberAfterThreeInARow) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("source4"));
  auto& sink = host_->add_daemon<SinkDaemon>(config("sink4"));
  ASSERT_TRUE(echo.start().ok());
  ASSERT_TRUE(sink.start().ok());
  subscribe(echo, sink);
  sink.stop();

  for (int i = 0; i < 3; ++i) echo_one_event(echo);
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (subscribed(echo, sink) && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_FALSE(subscribed(echo, sink));
  EXPECT_TRUE(sink.received().empty());
}

// Only failures in a row count: a delivery in between resets the count, so
// three short outages of a subscriber, however far apart, do not drop it.
TEST_F(DaemonTest, NotifyFailuresResetOnDelivery) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("source5"));
  auto& sink = host_->add_daemon<SinkDaemon>(config("sink5"));
  ASSERT_TRUE(echo.start().ok());
  ASSERT_TRUE(sink.start().ok());
  subscribe(echo, sink);

  sink.stop();
  echo_one_event(echo);
  echo_one_event(echo);
  ASSERT_TRUE(sink.start().ok());
  echo_one_event(echo);
  ASSERT_TRUE(sink.wait_for(1, 2s));
  sink.stop();
  echo_one_event(echo);

  ASSERT_TRUE(sink.start().ok());
  echo_one_event(echo);
  EXPECT_TRUE(sink.wait_for(2, 2s));
  EXPECT_TRUE(subscribed(echo, sink));
}

// Each destination has its own notification lane: a subscriber whose
// handshake stalls holds up only its own events, not the next subscriber's.
TEST_F(DaemonTest, StalledSubscriberDoesNotDelayOthers) {
  auto tarpit = deployment_->env.network().add_host("tarpit").listen(7000);
  ASSERT_TRUE(tarpit.ok());  // connections queue here; nobody accepts
  auto& echo = host_->add_daemon<EchoDaemon>(config("source6"));
  auto& sink = host_->add_daemon<SinkDaemon>(config("sink6"));
  ASSERT_TRUE(echo.start().ok());
  ASSERT_TRUE(sink.start().ok());
  CmdLine stalled("addNotification");
  stalled.arg("command", Word{"echo"});
  stalled.arg("service", "tarpit:7000");
  stalled.arg("method", Word{"sink"});
  ASSERT_TRUE(client_->call(echo.address(), stalled, daemon::kCallOk).ok());
  subscribe(echo, sink);

  CmdLine cmd("echo");
  cmd.arg("text", "event");
  ASSERT_TRUE(client_->call(echo.address(), cmd, daemon::kCallOk).ok());
  EXPECT_TRUE(sink.wait_for(1, 500ms));
}

// stop() and crash() end a notification handshake under way: a source
// whose subscriber accepts connections but never answers a handshake
// returns from either at once, not after the 2 s handshake timeout.
TEST_F(DaemonTest, StopAndCrashEndAStalledSubscriberHandshake) {
  auto tarpit = deployment_->env.network().add_host("tarpit").listen(7000);
  ASSERT_TRUE(tarpit.ok());
  testenv::AcceptInbox accepts(deployment_->env.reactor(), **tarpit);
  auto& echo = host_->add_daemon<EchoDaemon>(config("source7"));
  for (const bool crash : {false, true}) {
    SCOPED_TRACE(crash ? "crash" : "stop");
    ASSERT_TRUE(echo.start().ok());
    CmdLine stalled("addNotification");
    stalled.arg("command", Word{"echo"});
    stalled.arg("service", "tarpit:7000");
    stalled.arg("method", Word{"sink"});
    ASSERT_TRUE(client_->call(echo.address(), stalled, daemon::kCallOk).ok());
    CmdLine cmd("echo");
    cmd.arg("text", "event");
    ASSERT_TRUE(client_->call(echo.address(), cmd, daemon::kCallOk).ok());
    ASSERT_TRUE(accepts.next(2s).has_value());  // the lane is mid-handshake

    const auto started = std::chrono::steady_clock::now();
    if (crash)
      echo.crash();
    else
      echo.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - started, 500ms);
  }
}

TEST_F(DaemonTest, LeaseExpiryRemovesCrashedDaemon) {
  daemon::DaemonConfig c = config("mortal");
  c.lease = 300ms;
  c.lease_renew = 100ms;
  auto& echo = host_->add_daemon<EchoDaemon>(c);
  std::size_t before = deployment_->asd->live_count();
  ASSERT_TRUE(echo.start().ok());
  EXPECT_EQ(deployment_->asd->live_count(), before + 1);

  // While renewing, the service outlives several lease periods.
  std::this_thread::sleep_for(700ms);
  EXPECT_EQ(deployment_->asd->live_count(), before + 1);

  // Crash (no deregistration): reaped after the lease runs out.
  echo.crash();
  std::this_thread::sleep_for(600ms);
  EXPECT_EQ(deployment_->asd->live_count(), before);
}

TEST_F(DaemonTest, AuthorizationDeniesUnauthorizedPrincipal) {
  // POLICY: only user/alice may run commands in app_domain ace.
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("user/alice");
  policy.conditions = "app_domain == \"ace\"";
  deployment_->env.add_policy(policy);

  daemon::DaemonConfig c = config("guarded");
  c.enforce_authorization = true;
  auto& echo = host_->add_daemon<EchoDaemon>(c);
  ASSERT_TRUE(echo.start().ok());

  auto alice = deployment_->make_client("alice-pc", "user/alice");
  CmdLine cmd("echo");
  cmd.arg("text", "hi");
  auto allowed = alice->call(echo.address(), cmd, daemon::kCallOk);
  EXPECT_TRUE(allowed.ok()) << (allowed.ok() ? "" : allowed.error().to_string());

  // Denied twice: the second answer comes from the cached verdict.
  auto mallory = deployment_->make_client("mallory-pc", "user/mallory");
  for (int i = 0; i < 2; ++i) {
    auto denied = mallory->call(echo.address(), cmd);
    ASSERT_TRUE(denied.ok());
    EXPECT_TRUE(cmdlang::is_error(denied.value()));
    EXPECT_EQ(cmdlang::reply_error(denied.value()).code,
              util::Errc::auth_error);
  }
  auto& metrics = deployment_->env.metrics();
  EXPECT_EQ(metrics.counter("daemon.auth.denied").value(), 2u);
  EXPECT_EQ(metrics.counter("daemon.auth.verdict_hits").value(), 1u);

  // A new policy moves the trust epoch on, so the cached denial is not
  // reused: mallory's next call is checked afresh and allowed.
  keynote::Assertion mallory_policy = policy;
  mallory_policy.licensees = keynote::licensee_key("user/mallory");
  deployment_->env.add_policy(mallory_policy);
  auto now_allowed = mallory->call(echo.address(), cmd, daemon::kCallOk);
  EXPECT_TRUE(now_allowed.ok())
      << (now_allowed.ok() ? "" : now_allowed.error().to_string());
  EXPECT_EQ(metrics.counter("daemon.auth.verdict_hits").value(), 1u);
}

TEST_F(DaemonTest, AuthorizationViaAuthDbCredential) {
  // POLICY delegates to the admin key; admin grants user/bob via the
  // Authorization Database (Fig 10 flow end to end).
  deployment_->env.register_principal("admin");
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("admin");
  deployment_->env.add_policy(policy);

  ASSERT_TRUE(services::grant_credential(
                  *client_, deployment_->env.auth_db_address,
                  deployment_->env, "admin", "user/bob",
                  "command ~= \"echo*\"")
                  .ok());

  daemon::DaemonConfig c = config("guarded2");
  c.enforce_authorization = true;
  auto& echo = host_->add_daemon<EchoDaemon>(c);
  ASSERT_TRUE(echo.start().ok());

  auto bob = deployment_->make_client("bob-pc", "user/bob");
  CmdLine cmd("echo");
  cmd.arg("text", "hi");
  // Twice each, so the second calls answer from cached verdicts: one
  // command's verdict must not leak to the other.
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    auto allowed = bob->call(echo.address(), cmd, daemon::kCallOk);
    EXPECT_TRUE(allowed.ok())
        << (allowed.ok() ? "" : allowed.error().to_string());

    // The credential is command-scoped: ping is not covered.
    auto denied = bob->call(echo.address(), CmdLine("ping"));
    ASSERT_TRUE(denied.ok());
    EXPECT_TRUE(cmdlang::is_error(denied.value()));
    EXPECT_EQ(cmdlang::reply_error(denied.value()).code,
              util::Errc::auth_error);
  }
  EXPECT_EQ(
      deployment_->env.metrics().counter("daemon.auth.verdict_hits").value(),
      2u);
}

TEST_F(DaemonTest, AuthorizationRevokedThenCrashIsDeniedAtOnce) {
  deployment_->env.register_principal("admin");
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("admin");
  deployment_->env.add_policy(policy);
  ASSERT_TRUE(services::grant_credential(
                  *client_, deployment_->env.auth_db_address,
                  deployment_->env, "admin", "user/bob", "")
                  .ok());

  // Far longer than the test: only crash() can drop the cached grant.
  daemon::DaemonConfig c = config("guarded3");
  c.enforce_authorization = true;
  c.credential_cache_ttl = 10min;
  auto& echo = host_->add_daemon<EchoDaemon>(c);
  ASSERT_TRUE(echo.start().ok());

  auto bob = deployment_->make_client("bob-pc", "user/bob");
  ASSERT_TRUE(bob->call(echo.address(), CmdLine("whoami"), daemon::kCallOk).ok());

  CmdLine revoke("credRemove");
  revoke.arg("principal", "user/bob");
  ASSERT_TRUE(
      client_->call(deployment_->env.auth_db_address, revoke, daemon::kCallOk)
          .ok());
  echo.crash();
  ASSERT_TRUE(echo.start().ok());

  auto denied = bob->call(echo.address(), CmdLine("whoami"));
  ASSERT_TRUE(denied.ok()) << denied.error().to_string();
  EXPECT_TRUE(cmdlang::is_error(denied.value()));
  EXPECT_EQ(cmdlang::reply_error(denied.value()).code, util::Errc::auth_error);
  EXPECT_EQ(
      deployment_->env.metrics().counter("daemon.auth.verdict_hits").value(),
      0u);
}

TEST_F(DaemonTest, AuthorizationVerdictCacheUnderConcurrentRefetch) {
  // Two principals, two channels each, calling a concurrent_ok command, so
  // four strands authorize in parallel. The 5 ms credential TTL makes
  // refetches replace cache entries while other strands look verdicts up
  // and store them; the TSan leg of ci.sh replays this.
  deployment_->env.register_principal("admin");
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("admin");
  deployment_->env.add_policy(policy);
  const std::vector<std::string> principals = {"user/ann", "user/ben"};
  for (const std::string& p : principals)
    ASSERT_TRUE(services::grant_credential(
                    *client_, deployment_->env.auth_db_address,
                    deployment_->env, "admin", p, "command == \"whoami\"")
                    .ok());

  daemon::DaemonConfig c = config("guarded4");
  c.enforce_authorization = true;
  c.credential_cache_ttl = 5ms;
  auto& echo = host_->add_daemon<EchoDaemon>(c);
  ASSERT_TRUE(echo.start().ok());

  std::vector<std::unique_ptr<daemon::AceClient>> clients;
  std::vector<std::string> client_principal;
  for (const std::string& p : principals)
    for (int k = 0; k < 2; ++k) {
      clients.push_back(deployment_->make_client(
          p.substr(5) + "-pc" + std::to_string(k), p));
      client_principal.push_back(p);
    }

  std::atomic<int> calls{0}, bad{0};
  const auto deadline = std::chrono::steady_clock::now() + 300ms;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i)
    threads.emplace_back([&, i] {
      while (std::chrono::steady_clock::now() < deadline) {
        auto r = clients[i]->call(echo.address(), CmdLine("whoami"));
        ++calls;
        if (!r.ok() || !cmdlang::is_ok(*r) ||
            r->get_text("principal") != client_principal[i])
          ++bad;
      }
    });
  for (auto& t : threads) t.join();

  EXPECT_GT(calls.load(), 0);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(deployment_->env.metrics().counter("daemon.auth.denied").value(),
            0u);
}

TEST_F(DaemonTest, AuthorizationCachedAllowIsRecheckedAfterTrustChange) {
  deployment_->env.register_principal("admin");
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("admin");
  deployment_->env.add_policy(policy);
  ASSERT_TRUE(services::grant_credential(
                  *client_, deployment_->env.auth_db_address,
                  deployment_->env, "admin", "user/bob", "")
                  .ok());

  daemon::DaemonConfig c = config("guarded5");
  c.enforce_authorization = true;
  c.credential_cache_ttl = 10min;
  auto& echo = host_->add_daemon<EchoDaemon>(c);
  ASSERT_TRUE(echo.start().ok());

  // The second ping, nonblocking with a warm verdict, answers inline.
  auto bob = deployment_->make_client("bob-pc", "user/bob");
  for (int i = 0; i < 2; ++i)
    ASSERT_TRUE(bob->call(echo.address(), CmdLine("ping"), daemon::kCallOk).ok());
  auto& metrics = deployment_->env.metrics();
  const auto hits = metrics.counter("daemon.auth.verdict_hits").value();
  EXPECT_EQ(hits, 1u);
  const auto denied = metrics.counter("daemon.auth.denied").value();

  // Revoke the grant: the Authorization Database drops it, and its issuer
  // gets a new key, which bumps the trust epoch and voids the signature on
  // bob's cached copy.
  CmdLine revoke("credRemove");
  revoke.arg("principal", "user/bob");
  ASSERT_TRUE(
      client_->call(deployment_->env.auth_db_address, revoke, daemon::kCallOk)
          .ok());
  deployment_->env.register_principal("admin");

  auto reply = bob->call(echo.address(), CmdLine("ping"));
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_TRUE(cmdlang::is_error(reply.value()));
  EXPECT_EQ(cmdlang::reply_error(reply.value()).code, util::Errc::auth_error);
  // Checked afresh, not answered from the verdict cached before the change.
  EXPECT_EQ(metrics.counter("daemon.auth.verdict_hits").value(), hits);
  EXPECT_EQ(metrics.counter("daemon.auth.denied").value(), denied + 1);
}

TEST_F(DaemonTest, AuthorizationDeniedNonblockingCommandIsLogged) {
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("user/alice");
  policy.conditions = "app_domain == \"ace\"";
  deployment_->env.add_policy(policy);

  daemon::DaemonConfig c = config("guarded6");
  c.enforce_authorization = true;
  auto& echo = host_->add_daemon<EchoDaemon>(c);
  ASSERT_TRUE(echo.start().ok());

  // Two denied pings; the second is answered from the cached denial,
  // which still takes the ops pool and its report to the Network Logger.
  auto mallory = deployment_->make_client("mallory-pc", "user/mallory");
  for (int i = 0; i < 2; ++i) {
    auto reply = mallory->call(echo.address(), CmdLine("ping"));
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    EXPECT_EQ(cmdlang::reply_error(reply.value()).code,
              util::Errc::auth_error);
  }
  EXPECT_EQ(
      deployment_->env.metrics().counter("daemon.auth.verdict_hits").value(),
      1u);
  auto security_entries = [&] {
    int n = 0;
    for (const auto& e : deployment_->net_logger->entries_from("guarded6"))
      if (e.level == "security" &&
          e.message.find("'ping'") != std::string::npos)
        ++n;
    return n;
  };
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (security_entries() < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  EXPECT_EQ(security_entries(), 2);
}

TEST_F(DaemonTest, StatsCountConnectionsAndCommands) {
  // A deployment of its own (no directory, logger or lease traffic), so
  // its registry counts only this daemon and this client.
  daemon::Environment env(11);
  daemon::DaemonHost host(env, "solo");
  auto& echo = host.add_daemon<EchoDaemon>(config("counted"));
  ASSERT_TRUE(echo.start().ok());
  daemon::AceClient client(env, env.network().add_host("solo-laptop"),
                           env.issue_identity("user/tester"));
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(client.call(echo.address(), CmdLine("ping"), daemon::kCallOk).ok());
  EXPECT_EQ(env.metrics().counter("daemon.conn.accepted").value(),
            1u);  // cached channel reused
  EXPECT_EQ(env.metrics().counter("daemon.cmd.executed").value(), 5u);
}

// --------------------------------------------------------- device hierarchy

TEST_F(DaemonTest, DeviceInheritsBaseAndAddsPower) {
  daemon::DaemonConfig c = config("cam");
  auto& camera =
      host_->add_daemon<daemon::PtzCameraDaemon>(c, daemon::vcc3_spec());
  ASSERT_TRUE(camera.start().ok());

  // Inherited Service-level command.
  ASSERT_TRUE(client_->call(camera.address(), CmdLine("ping"), daemon::kCallOk).ok());

  // Device-level power command.
  auto status = client_->call(camera.address(), CmdLine("deviceStatus"), daemon::kCallOk);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->get_text("powered"), "off");

  // Camera rejects motion while off.
  CmdLine move("ptzMove");
  move.arg("pan", 10.0);
  move.arg("tilt", 0.0);
  auto rejected = client_->call(camera.address(), move);
  ASSERT_TRUE(rejected.ok());
  EXPECT_TRUE(cmdlang::is_error(rejected.value()));

  ASSERT_TRUE(client_->call(camera.address(), CmdLine("deviceOn"), daemon::kCallOk).ok());
  EXPECT_TRUE(client_->call(camera.address(), move, daemon::kCallOk).ok());
}

TEST_F(DaemonTest, ModelSpecsDifferVcc3Vcc4) {
  auto& vcc3 = host_->add_daemon<daemon::PtzCameraDaemon>(config("cam3"),
                                                          daemon::vcc3_spec());
  auto& vcc4 = host_->add_daemon<daemon::PtzCameraDaemon>(config("cam4"),
                                                          daemon::vcc4_spec());
  ASSERT_TRUE(vcc3.start().ok());
  ASSERT_TRUE(vcc4.start().ok());
  ASSERT_TRUE(client_->call(vcc3.address(), CmdLine("deviceOn"), daemon::kCallOk).ok());
  ASSERT_TRUE(client_->call(vcc4.address(), CmdLine("deviceOn"), daemon::kCallOk).ok());

  // pan=95 is inside the VCC4 envelope but outside the VCC3's.
  CmdLine move("ptzMove");
  move.arg("pan", 95.0);
  move.arg("tilt", 0.0);
  auto r3 = client_->call(vcc3.address(), move);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(cmdlang::is_error(r3.value()));
  EXPECT_TRUE(client_->call(vcc4.address(), move, daemon::kCallOk).ok());
}

TEST_F(DaemonTest, ProjectorStateMachine) {
  auto& proj = host_->add_daemon<daemon::ProjectorDaemon>(
      config("proj"), daemon::epson7350_spec());
  ASSERT_TRUE(proj.start().ok());
  ASSERT_TRUE(client_->call(proj.address(), CmdLine("deviceOn"), daemon::kCallOk).ok());

  CmdLine input("projSetInput");
  input.arg("input", Word{"network"});
  ASSERT_TRUE(client_->call(proj.address(), input, daemon::kCallOk).ok());

  CmdLine display("projDisplay");
  display.arg("source", "workspace/john/default");
  ASSERT_TRUE(client_->call(proj.address(), display, daemon::kCallOk).ok());

  CmdLine pip("projPictureInPicture");
  pip.arg("source", "camera1");
  pip.arg("enable", Word{"on"});
  ASSERT_TRUE(client_->call(proj.address(), pip, daemon::kCallOk).ok());

  auto state = proj.projector_state();
  EXPECT_EQ(state.input, "network");
  EXPECT_EQ(state.source_service, "workspace/john/default");
  EXPECT_TRUE(state.picture_in_picture);
  EXPECT_EQ(state.pip_source, "camera1");
}

TEST_F(DaemonTest, StoppedDaemonRefusesConnections) {
  auto& echo = host_->add_daemon<EchoDaemon>(config("stopping"));
  ASSERT_TRUE(echo.start().ok());
  ASSERT_TRUE(client_->call(echo.address(), CmdLine("ping"), daemon::kCallOk).ok());
  net::Address addr = echo.address();
  echo.stop();
  client_->drop_connection(addr);
  auto reply =
      client_->call(addr, CmdLine("ping"), daemon::CallOptions{.timeout = 200ms});
  EXPECT_FALSE(reply.ok());
}

// ------------------------------------------------------------ inline path
//
// Deployments of their own with no directory, logger or lease traffic, so
// reactor.blocking_tasks moves only for the daemons under test.

// stop() and crash() strand commands queued on the control lane, and
// start() drops them with the queue; the lane's count must go with them,
// or the inline path stays off for the daemon's next life.
TEST(InlineDispatchTest, LaneCountResetsWithItsQueue) {
  daemon::Environment env(21);
  daemon::DaemonHost host(env, "solo");
  daemon::DaemonConfig cfg;
  cfg.name = "napper";
  cfg.room = "hawk";
  auto& svc = host.add_daemon<NapDaemon>(cfg);
  ASSERT_TRUE(svc.start().ok());
  daemon::AceClient client(env, env.network().add_host("solo-laptop"),
                           env.issue_identity("user/tester"));
  auto& pipeliner = env.network().add_host("pipeliner");

  for (const bool crash : {true, false}) {
    SCOPED_TRACE(crash ? "crash" : "stop");
    // Park the control lane: a nap runs while three pings queue behind it.
    auto conn = pipeliner.connect(svc.address());
    ASSERT_TRUE(conn.ok());
    auto ch = testenv::Handshake::connect(
                  env.reactor(), std::move(conn.value()),
                  env.issue_identity("user/pipeliner"), env.ca_key(), 2s,
                  env.channel_options())
                  .result();
    ASSERT_TRUE(ch.ok()) << ch.error().to_string();
    const int naps = svc.naps();
    for (const char* text : {"nap;", "ping;", "ping;", "ping;"})
      ASSERT_TRUE(
          ch->send(daemon::wire::encode_frame(0, daemon::wire::kFlagNoReply,
                                              text))
              .ok());
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (svc.naps() == naps && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    ASSERT_GT(svc.naps(), naps);
    std::this_thread::sleep_for(20ms);  // the pings are decoded and queued
    if (crash)
      svc.crash();
    else
      svc.stop();
    ASSERT_TRUE(svc.start().ok());

    // The first call reconnects; the next 100 all run inline.
    ASSERT_TRUE(client.call(svc.address(), CmdLine("ping"), daemon::kCallOk).ok());
    const auto before = settled_blocking_tasks(env);
    for (int i = 0; i < 100; ++i)
      ASSERT_TRUE(
          client.call(svc.address(), CmdLine("ping"), daemon::kCallOk).ok());
    EXPECT_EQ(settled_blocking_tasks(env) - before, 0u);
  }
}

// An expired credential cache sends exactly one call through the ops pool
// to refetch; the verdict it stores lets later calls run inline again.
TEST(InlineDispatchTest, ExpiredCredentialsRefetchOnceOnOpsPool) {
  daemon::Environment env(23);
  env.auth_db_address = {"infra", daemon::kAuthDbPort};
  daemon::DaemonHost infra(env, "infra");
  daemon::DaemonConfig auth_cfg;
  auth_cfg.name = "auth-db";
  auth_cfg.port = daemon::kAuthDbPort;
  auth_cfg.room = "machine-room";
  infra.add_daemon<services::AuthDbDaemon>(auth_cfg);
  ASSERT_TRUE(infra.start_all().ok());

  env.register_principal("admin");
  keynote::Assertion policy;
  policy.authorizer = keynote::kPolicyAuthorizer;
  policy.licensees = keynote::licensee_key("admin");
  env.add_policy(policy);
  daemon::AceClient admin(env, env.network().add_host("admin-pc"),
                          env.issue_identity("user/admin"));
  ASSERT_TRUE(services::grant_credential(admin, env.auth_db_address, env,
                                         "admin", "user/bob", "")
                  .ok());

  daemon::DaemonHost work(env, "work");
  daemon::DaemonConfig cfg;
  cfg.name = "guarded";
  cfg.room = "hawk";
  cfg.enforce_authorization = true;
  cfg.credential_cache_ttl = 500ms;
  auto& svc = work.add_daemon<EchoDaemon>(cfg);
  ASSERT_TRUE(svc.start().ok());

  daemon::AceClient bob(env, env.network().add_host("bob-pc"),
                        env.issue_identity("user/bob"));
  auto& fetches =
      env.metrics().histogram("daemon.cmd.getCredentials.latency_us");
  auto ping = [&] {
    return bob.call(svc.address(), CmdLine("ping"), daemon::kCallOk).ok();
  };
  ASSERT_TRUE(ping());
  ASSERT_TRUE(ping());
  EXPECT_EQ(fetches.snapshot().count, 1u);

  std::this_thread::sleep_for(600ms);  // past the credential TTL
  const auto before = settled_blocking_tasks(env);
  ASSERT_TRUE(ping());
  const auto refetched = settled_blocking_tasks(env);
  EXPECT_EQ(fetches.snapshot().count, 2u);
  EXPECT_GT(refetched - before, 0u);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ping());
  EXPECT_EQ(settled_blocking_tasks(env) - refetched, 0u);
  EXPECT_EQ(fetches.snapshot().count, 2u);
}

// ------------------------------------------------------------ one client
//
// Deployments of their own with no directory, logger or lease traffic, so
// the connection counters move only for the daemons under test.

// A daemon's calls and its notifications to one peer ride one channel: the
// caller pings the sink from a handler, and the sink is notified of it.
TEST(OneClientTest, CallAndNotificationShareOneChannel) {
  daemon::Environment env(31);
  daemon::DaemonHost host(env, "solo");
  daemon::DaemonConfig sink_cfg;
  sink_cfg.name = "sink";
  sink_cfg.room = "hawk";
  auto& sink = host.add_daemon<SinkDaemon>(sink_cfg);
  ASSERT_TRUE(sink.start().ok());
  daemon::DaemonConfig caller_cfg;
  caller_cfg.name = "caller";
  caller_cfg.room = "hawk";
  auto& caller = host.add_daemon<CallerDaemon>(caller_cfg, sink.address());
  ASSERT_TRUE(caller.start().ok());

  CmdLine sub("addNotification");
  sub.arg("command", Word{"callPeer"});
  sub.arg("service", sink.address().to_string());
  sub.arg("method", Word{"sink"});
  ASSERT_TRUE(cmdlang::is_ok(caller.execute(sub, daemon::CallerInfo{})));
  ASSERT_TRUE(cmdlang::is_ok(
      caller.execute(CmdLine("callPeer"), daemon::CallerInfo{})));
  ASSERT_TRUE(sink.wait_for(1, 2s));
  EXPECT_EQ(env.metrics().counter("daemon.conn.accepted").value(), 1u);
  EXPECT_EQ(env.metrics().counter("net.connects").value(), 1u);
}

// The client closes after on_stop() and on_crash(), so what they send does
// not outlive the process: the next call through the client connects
// afresh. (Closed first, the channel their pings opened would survive and
// carry that call.)
TEST(OneClientTest, ClientClosesAfterOnStopAndOnCrash) {
  daemon::Environment env(33);
  daemon::DaemonHost host(env, "solo");
  daemon::DaemonConfig sink_cfg;
  sink_cfg.name = "sink";
  sink_cfg.room = "hawk";
  auto& sink = host.add_daemon<SinkDaemon>(sink_cfg);
  ASSERT_TRUE(sink.start().ok());
  daemon::DaemonConfig caller_cfg;
  caller_cfg.name = "caller";
  caller_cfg.room = "hawk";
  auto& caller = host.add_daemon<CallerDaemon>(caller_cfg, sink.address());
  auto& connects = env.metrics().counter("net.connects");

  for (const bool crash : {true, false}) {
    SCOPED_TRACE(crash ? "crash" : "stop");
    ASSERT_TRUE(caller.start().ok());
    if (crash)
      caller.crash();
    else
      caller.stop();
    EXPECT_TRUE(caller.pinged_at_end());
    const auto at_end = connects.value();
    ASSERT_TRUE(cmdlang::is_ok(
        caller.execute(CmdLine("callPeer"), daemon::CallerInfo{})));
    EXPECT_EQ(connects.value(), at_end + 1);
  }
}

// ---------------------------------------------------------- deferred replies

class DeferredReplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    daemon::DaemonConfig cfg;
    cfg.name = "deferred";
    cfg.room = "hawk";
    svc_ = &host_.add_daemon<DeferredDaemon>(cfg);
    ASSERT_TRUE(svc_->start().ok());
  }

  CmdLine later(const std::string& text, int ms) {
    CmdLine cmd("later");
    cmd.arg("text", text);
    cmd.arg("ms", ms);
    return cmd;
  }

  daemon::Environment env_{27};
  daemon::DaemonHost host_{env_, "solo"};
  DeferredDaemon* svc_ = nullptr;
  daemon::AceClient client_{env_, env_.network().add_host("solo-laptop"),
                            env_.issue_identity("user/tester")};
};

// Two callers pipelined on one client's channel: each reply, sent from a
// timer after its handler returned, reaches the caller that asked, the
// later-asked first; the command's histogram covers it until its reply.
TEST_F(DeferredReplyTest, TimerReplyReachesItsCaller) {
  ASSERT_TRUE(client_.call(svc_->address(), CmdLine("ping")).ok());
  std::optional<util::Result<CmdLine>> slow_reply;
  std::chrono::steady_clock::time_point slow_done, fast_done;
  std::jthread slow([&] {
    slow_reply = client_.call(svc_->address(), later("slow", 80));
    slow_done = std::chrono::steady_clock::now();
  });
  std::this_thread::sleep_for(10ms);
  auto fast = client_.call(svc_->address(), later("fast", 20));
  fast_done = std::chrono::steady_clock::now();
  slow.join();
  ASSERT_TRUE(fast.ok() && cmdlang::is_ok(fast.value()));
  EXPECT_EQ(fast->get_text("text"), "fast");
  ASSERT_TRUE(slow_reply && slow_reply->ok() && cmdlang::is_ok(**slow_reply));
  EXPECT_EQ((*slow_reply)->get_text("text"), "slow");
  EXPECT_LT(fast_done, slow_done);
  const auto hist =
      env_.metrics().histogram("daemon.cmd.later.latency_us").snapshot();
  EXPECT_EQ(hist.count, 2u);
  EXPECT_GE(hist.sum_us, 100'000u);
}

// A Reply its handler drops unsent answers `error code=unavailable`.
TEST_F(DeferredReplyTest, DroppedReplyAnswersUnavailable) {
  auto reply = client_.call(svc_->address(), CmdLine("forget"));
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  ASSERT_TRUE(cmdlang::is_error(reply.value()));
  EXPECT_EQ(cmdlang::reply_error(reply.value()).code,
            util::Errc::unavailable);
}

// execute() waits for a deferred command's Reply.
TEST_F(DeferredReplyTest, ExecuteWaitsForTheReply) {
  const auto started = std::chrono::steady_clock::now();
  const CmdLine reply =
      svc_->execute(later("local", 20), daemon::CallerInfo{});
  EXPECT_GE(std::chrono::steady_clock::now() - started, 20ms);
  ASSERT_TRUE(cmdlang::is_ok(reply)) << reply.to_string();
  EXPECT_EQ(reply.get_text("text"), "local");
}

// A deferred command frees its connection's strand when its handler
// returns: a `hold` still owing its reply does not keep the `release`
// behind it on the same channel from running and answering it.
TEST_F(DeferredReplyTest, TwoOnOneConnectionOverlap) {
  ASSERT_TRUE(client_.call(svc_->address(), CmdLine("ping")).ok());
  std::optional<util::Result<CmdLine>> held;
  std::jthread holder([&] {
    held = client_.call(svc_->address(), CmdLine("hold"),
                        daemon::CallOptions{.timeout = 2s, .retries = 0});
  });
  std::this_thread::sleep_for(50ms);
  auto released = client_.call(svc_->address(), CmdLine("release"),
                               daemon::CallOptions{.timeout = 2s});
  holder.join();
  ASSERT_TRUE(released.ok() && cmdlang::is_ok(released.value()));
  ASSERT_TRUE(held && held->ok()) << held->error().to_string();
  EXPECT_TRUE(cmdlang::is_ok(held->value()));
}

// The control lane stays synchronous: registering a deferred handler on a
// serialized command fails a check.
TEST_F(DeferredReplyTest, SerializedCommandFailsACheck) {
  // The deployment's threads make fork-only death tests unsafe.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        daemon::Environment env(29);
        daemon::DaemonHost host(env, "solo");
        daemon::DaemonConfig cfg;
        cfg.name = "bad";
        cfg.room = "hawk";
        host.add_daemon<SerializedDeferredDaemon>(cfg);
      },
      "deferred handler on serialized command 'serialized'");
}

// Tests for the pipelined multiplexed command channel: concurrent in-flight
// calls per destination, out-of-order reply routing, retry across channel
// death, malformed frames, the daemon-side handshake pool keeping slow
// connectors off the accept path, a client reconnect holding no lock a
// drop or close_all needs, send_only asking and feeding the breaker,
// per-connection order on the inline path of nonblocking commands, and
// AceClient::call_all's fan-out: requests in flight together, an early
// stop that withdraws the rest, and failures, timeouts and breaker
// rejections kept per request; and its callback form, which settles
// exactly once however the set ends, never blocks its caller, and keeps
// nothing alive once settled.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ace_test_env.hpp"
#include "daemon/wire.hpp"
#include "endpoint_waiter.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;

namespace {

// A three-party barrier that `rendezvous` handlers wait at, 2 s at most.
struct Rendezvous {
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;

  bool arrive_and_wait() {
    std::unique_lock lk(mu);
    ++arrived;
    cv.notify_all();
    return cv.wait_for(lk, 2s, [&] { return arrived >= 3; });
  }
};

// Echo service with a deliberately slow serialized command and a fast
// concurrent one, for exercising reply interleaving on one channel; a slow
// and a nonblocking command on each lane, which log the order they execute
// in; and a nonblocking command that breaks its promise.
class RpcTestDaemon : public daemon::ServiceDaemon {
 public:
  RpcTestDaemon(daemon::Environment& env, daemon::DaemonHost& host,
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
        cmdlang::CommandSpec("slow", "sleep, then echo")
            .arg(cmdlang::string_arg("text")),
        [this](const CmdLine& cmd, const daemon::CallerInfo&) {
          std::this_thread::sleep_for(150ms);
          log_executed("slow");
          CmdLine reply = cmdlang::make_ok();
          reply.arg("text", cmd.get_text("text"));
          return reply;
        });
    register_command(
        cmdlang::CommandSpec("fast", "thread-safe no-op").concurrent_ok(),
        [](const CmdLine&, const daemon::CallerInfo&) {
          return cmdlang::make_ok();
        });
    register_command(
        cmdlang::CommandSpec("probe", "log and return").nonblocking(),
        [this](const CmdLine&, const daemon::CallerInfo&) {
          log_executed("probe");
          return cmdlang::make_ok();
        });
    register_command(
        cmdlang::CommandSpec("slowStrand", "sleep, then log").concurrent_ok(),
        [this](const CmdLine&, const daemon::CallerInfo&) {
          std::this_thread::sleep_for(150ms);
          log_executed("slowStrand");
          return cmdlang::make_ok();
        });
    register_command(
        cmdlang::CommandSpec("probeStrand", "log and return")
            .concurrent_ok()
            .nonblocking(),
        [this](const CmdLine&, const daemon::CallerInfo&) {
          log_executed("probeStrand");
          return cmdlang::make_ok();
        });
    // Declared nonblocking but makes a nested RPC. concurrent_ok keeps its
    // lane (a fresh connection's strand) idle, so it always runs inline.
    register_command(
        cmdlang::CommandSpec("nestedCall", "call ourselves")
            .concurrent_ok()
            .nonblocking(),
        [this](const CmdLine&, const daemon::CallerInfo&) {
          auto r = control_client().call(address(), CmdLine("ping"));
          return r.ok() ? *r : cmdlang::make_error(r.error().code, "failed");
        });
    // The same promise broken through a fan-out.
    register_command(
        cmdlang::CommandSpec("nestedCallAll", "fan out to ourselves")
            .concurrent_ok()
            .nonblocking(),
        [this](const CmdLine&, const daemon::CallerInfo&) {
          const daemon::AceClient::Request ping{address(), CmdLine("ping")};
          auto replies = control_client().call_all({&ping, 1}, 1s);
          return replies[0] && replies[0]->ok()
                     ? **replies[0]
                     : cmdlang::make_error(util::Errc::unavailable, "failed");
        });
    register_command(
        cmdlang::CommandSpec("nap", "sleep, then reply")
            .arg(cmdlang::integer_arg("ms"))
            .concurrent_ok(),
        [](const CmdLine& cmd, const daemon::CallerInfo&) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(cmd.get_integer("ms")));
          return cmdlang::make_ok();
        });
    register_command(
        cmdlang::CommandSpec("rendezvous", "wait for two more callers")
            .concurrent_ok(),
        [this](const CmdLine&, const daemon::CallerInfo&) {
          CmdLine reply = cmdlang::make_ok();
          reply.arg("met",
                    cmdlang::Word{rendezvous_->arrive_and_wait() ? "yes" : "no"});
          return reply;
        });
  }

  void set_rendezvous(Rendezvous* r) { rendezvous_ = r; }

  // Names of the logging commands in the order their handlers ran.
  std::vector<std::string> executed() const {
    std::scoped_lock lock(mu_);
    return executed_;
  }

 private:
  void log_executed(const std::string& name) {
    std::scoped_lock lock(mu_);
    executed_.push_back(name);
  }

  mutable std::mutex mu_;
  std::vector<std::string> executed_;
  Rendezvous* rendezvous_ = nullptr;
};

struct RpcFixture {
  RpcFixture() : env(7) {
    EXPECT_TRUE(env.start().ok());
    svc_host = std::make_unique<daemon::DaemonHost>(env.env, "svc");
    daemon::DaemonConfig cfg;
    cfg.name = "rpc-test";
    cfg.room = "lab";
    cfg.service_class = "Service/Test";
    svc = &svc_host->add_daemon<RpcTestDaemon>(cfg);
    EXPECT_TRUE(svc_host->start_all().ok());
    client = env.make_client("ap", "user/tester");
  }

  // Another service like `svc`, on a host of its own.
  RpcTestDaemon* add_service(const std::string& host) {
    more_hosts.push_back(std::make_unique<daemon::DaemonHost>(env.env, host));
    daemon::DaemonConfig cfg;
    cfg.name = "rpc-" + host;
    cfg.room = "lab";
    cfg.service_class = "Service/Test";
    auto* daemon = &more_hosts.back()->add_daemon<RpcTestDaemon>(cfg);
    EXPECT_TRUE(more_hosts.back()->start_all().ok());
    return daemon;
  }

  std::int64_t gauge_value(const std::string& name) {
    for (const auto& g : env.env.metrics().snapshot().gauges)
      if (g.name == name) return g.value;
    return 0;
  }
  std::uint64_t counter_value(const std::string& name) {
    for (const auto& c : env.env.metrics().snapshot().counters)
      if (c.name == name) return c.value;
    return 0;
  }

  // A channel of its own to the service, on which the test frames requests
  // by hand, so that several ride it back to back.
  util::Result<crypto::SecureChannel> raw_channel(const std::string& host) {
    auto conn = env.env.network().add_host(host).connect(svc->address());
    if (!conn.ok()) return conn.error();
    return testenv::Handshake::connect(
               env.env.reactor(), std::move(conn.value()),
               env.env.issue_identity("user/" + host), env.env.ca_key(), 2s,
               env.env.channel_options())
        .result();
  }

  testenv::AceTestEnv env;
  std::unique_ptr<daemon::DaemonHost> svc_host;
  std::vector<std::unique_ptr<daemon::DaemonHost>> more_hosts;
  RpcTestDaemon* svc = nullptr;
  std::unique_ptr<daemon::AceClient> client;
};

// Reads replies off a raw channel until every id in `ids` has one, or 2 s
// pass.
std::map<std::uint64_t, CmdLine> read_replies(net::Reactor& reactor,
                                              crypto::SecureChannel& ch,
                                              std::set<std::uint64_t> ids) {
  std::map<std::uint64_t, CmdLine> replies;
  testenv::FrameInbox inbox(reactor, ch);
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!ids.empty() && std::chrono::steady_clock::now() < deadline) {
    auto frame = inbox.next(200ms);
    if (!frame) continue;
    auto decoded = daemon::wire::decode_frame(*frame);
    if (!decoded) continue;
    auto reply = cmdlang::Parser::parse(decoded->body);
    if (!reply.ok()) continue;
    ids.erase(decoded->call_id);
    replies.emplace(decoded->call_id, std::move(reply.value()));
  }
  return replies;
}

// N threads share one AceClient and one destination: every reply must come
// back to the thread that asked for it, even though all calls share a
// single pipelined channel.
TEST(Rpc, ConcurrentCallsRouteRepliesCorrectly) {
  RpcFixture f;
  const net::Address addr = f.svc->address();
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> mismatches{0}, failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kCallsPerThread; ++i) {
          std::string text =
              "t" + std::to_string(t) + "-i" + std::to_string(i);
          CmdLine cmd("echo");
          cmd.arg("text", text);
          auto reply = f.client->call(addr, cmd, daemon::kCallOk);
          if (!reply.ok())
            failures++;
          else if (reply->get_text("text") != text)
            mismatches++;
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Every slot must have been consumed once its reply was routed.
  EXPECT_EQ(f.gauge_value("client.inflight"), 0);
}

// A fast concurrent command overtakes a slow serialized one on the same
// channel: its reply arrives first and the demux routes both correctly.
TEST(Rpc, InterleavedRepliesOnOneChannel) {
  RpcFixture f;
  const net::Address addr = f.svc->address();

  // Prime the channel so both calls below share one connection.
  CmdLine prime("fast");
  ASSERT_TRUE(f.client->call(addr, prime, daemon::kCallOk).ok());

  std::atomic<bool> slow_done{false};
  std::jthread slow_caller([&] {
    CmdLine cmd("slow");
    cmd.arg("text", "tortoise");
    auto reply = f.client->call(addr, cmd, daemon::kCallOk);
    EXPECT_TRUE(reply.ok());
    if (reply.ok()) {
      EXPECT_EQ(reply->get_text("text"), "tortoise");
    }
    slow_done.store(true);
  });

  std::this_thread::sleep_for(30ms);  // let the slow call get in flight
  const auto started = std::chrono::steady_clock::now();
  CmdLine cmd("fast");
  auto reply = f.client->call(addr, cmd, daemon::kCallOk);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_TRUE(reply.ok());
  // The fast reply must not have queued behind the 150ms sleeper.
  EXPECT_LT(elapsed, 100ms);
  EXPECT_FALSE(slow_done.load());
  slow_caller.join();
  EXPECT_TRUE(slow_done.load());
}

// Channel death mid-flight: the pending call fails over to a reconnect
// when retries allow it, and surfaces an error when they don't.
TEST(Rpc, RetriesReconnectAfterChannelDeathMidFlight) {
  RpcFixture f;
  const net::Address addr = f.svc->address();

  std::jthread caller([&] {
    CmdLine cmd("slow");
    cmd.arg("text", "survivor");
    auto reply = f.client->call(
        addr, cmd,
        daemon::CallOptions{.timeout = 2000ms, .require_ok = true,
                            .retries = 1});
    EXPECT_TRUE(reply.ok());
    if (reply.ok()) {
      EXPECT_EQ(reply->get_text("text"), "survivor");
    }
  });
  std::this_thread::sleep_for(50ms);  // call is now waiting on its reply
  f.client->drop_connection(addr);    // kill the channel under it
  caller.join();
  EXPECT_GE(f.counter_value("client.reconnects"), 1u);

  // Same death with retries exhausted: the caller sees the failure.
  std::jthread caller2([&] {
    CmdLine cmd("slow");
    cmd.arg("text", "casualty");
    auto reply = f.client->call(
        addr, cmd, daemon::CallOptions{.timeout = 2000ms, .retries = 0});
    EXPECT_FALSE(reply.ok());
  });
  std::this_thread::sleep_for(50ms);
  f.client->drop_connection(addr);
  caller2.join();
}

// A connector that never starts its handshake must not stall other
// clients: the handshake runs on a worker pool, off the accept path.
TEST(Rpc, SlowHandshakerDoesNotBlockAcceptPath) {
  RpcFixture f;
  const net::Address addr = f.svc->address();
  auto& staller_host = f.env.env.network().add_host("staller");
  auto stalled = staller_host.connect(addr);
  ASSERT_TRUE(stalled.ok());  // connected, but never sends its hello

  const auto started = std::chrono::steady_clock::now();
  CmdLine cmd("echo");
  cmd.arg("text", "prompt");
  auto reply = f.client->call(addr, cmd, daemon::kCallOk);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_TRUE(reply.ok());
  // Well under the 2s handshake timeout the staller is burning.
  EXPECT_LT(elapsed, 1500ms);
  stalled.value().close();
}

// A reconnect holds no lock the rest of the client needs: dropping the
// destination 50 ms into a handshake with a listener that never accepts
// returns at once instead of waiting the handshake out.
TEST(Rpc, DropConnectionDoesNotWaitForAStalledHandshake) {
  RpcFixture f;
  auto listener = f.env.env.network().add_host("tarpit").listen(7000);
  ASSERT_TRUE(listener.ok());  // connections queue here; nobody accepts
  const net::Address addr{"tarpit", 7000};
  std::jthread caller([&] {
    auto reply = f.client->call(addr, CmdLine("ping"),
                                daemon::CallOptions{.retries = 0});
    EXPECT_FALSE(reply.ok());
  });
  std::this_thread::sleep_for(50ms);  // the caller is now mid-handshake
  const auto started = std::chrono::steady_clock::now();
  f.client->drop_connection(addr);
  EXPECT_LT(std::chrono::steady_clock::now() - started, 200ms);
}

// A reconnect in flight when the client lets go of its destination: a drop
// leaves it to finish and carry the call; close_all ends it by closing the
// connection its handshake runs on, so the server's accept fails and the
// call fails well inside the 2 s handshake timeout. Neither waits for the
// handshake, whose server side is played by hand here.
TEST(Rpc, HandshakeInFlightOutlivesDropButNotCloseAll) {
  for (const bool close_all : {false, true}) {
    SCOPED_TRACE(close_all ? "close_all" : "drop_connection");
    RpcFixture f;
    net::Reactor& reactor = f.env.env.reactor();
    auto listener = f.env.env.network().add_host("by-hand").listen(7001);
    ASSERT_TRUE(listener.ok());
    testenv::AcceptInbox accepts(reactor, **listener);
    const net::Address addr{"by-hand", 7001};
    std::optional<util::Result<CmdLine>> reply;
    std::chrono::steady_clock::duration call_took{};
    std::jthread caller([&] {
      const auto t0 = std::chrono::steady_clock::now();
      reply.emplace(f.client->call(addr, CmdLine("ping"),
                                   daemon::CallOptions{.retries = 0}));
      call_took = std::chrono::steady_clock::now() - t0;
    });
    auto conn = accepts.next(2s);
    ASSERT_TRUE(conn.has_value());  // the caller is now mid-handshake

    const auto started = std::chrono::steady_clock::now();
    if (close_all)
      f.client->close_all();
    else
      f.client->drop_connection(addr);
    EXPECT_LT(std::chrono::steady_clock::now() - started, 200ms);

    auto server = testenv::Handshake::accept(
                      reactor, std::move(*conn),
                      f.env.env.issue_identity("svc/by-hand"),
                      f.env.env.ca_key(), 2s, f.env.env.channel_options())
                      .result();
    if (close_all) {
      EXPECT_FALSE(server.ok());  // the client closed the connection
      caller.join();
      ASSERT_TRUE(reply.has_value());
      EXPECT_FALSE(reply->ok());
      EXPECT_LT(call_took, 1s);
      continue;
    }
    ASSERT_TRUE(server.ok()) << server.error().to_string();
    testenv::FrameInbox requests(reactor, server.value());
    auto request = requests.next(2s);
    ASSERT_TRUE(request.has_value());
    auto decoded = daemon::wire::decode_frame(*request);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_TRUE(
        server->send(daemon::wire::encode_frame(decoded->call_id, 0, "ok;"))
            .ok());
    caller.join();
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->ok());
  }
}

// Fire-and-forget: the noreply marker travels as a frame flag, the daemon
// executes the command and sends nothing back.
TEST(Rpc, SendOnlyUsesNoReplyFlag) {
  RpcFixture f;
  const net::Address addr = f.svc->address();
  // Only this test's calls run `echo`, so its per-verb count is the
  // service's own, untouched by background lease traffic.
  auto& echoes = f.env.env.metrics().histogram("daemon.cmd.echo.latency_us");
  const auto before = echoes.snapshot().count;
  CmdLine fire("echo");
  fire.arg("text", "into the void");
  ASSERT_TRUE(f.client->send_only(addr, fire).ok());
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (echoes.snapshot().count < before + 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  EXPECT_GE(echoes.snapshot().count, before + 1);
  // A later regular call still works: the channel never desynchronised.
  CmdLine cmd("echo");
  cmd.arg("text", "still here");
  auto reply = f.client->call(addr, cmd, daemon::kCallOk);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->get_text("text"), "still here");
}

// send_only asks and feeds the circuit breaker as a call does: two sends
// to a port nobody listens on are refused and open it, and the third fails
// at once with `unavailable`, without connecting.
TEST(Rpc, SendOnlyFeedsTheBreaker) {
  RpcFixture f;
  f.client->set_breaker_policy({.failure_threshold = 2, .cooldown = 10s});
  const net::Address nobody{f.svc->address().host, 7099};
  const auto errors = f.counter_value("client.errors");
  for (int i = 0; i < 2; ++i) {
    auto sent = f.client->send_only(nobody, CmdLine("ping"));
    ASSERT_FALSE(sent.ok());
    EXPECT_EQ(sent.error().code, util::Errc::refused);
  }
  EXPECT_EQ(f.counter_value("client.errors"), errors + 2);

  const auto rejected = f.counter_value("client.breaker_rejected");
  const auto connects = f.counter_value("net.connects");
  auto sent = f.client->send_only(nobody, CmdLine("ping"));
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, util::Errc::unavailable);
  EXPECT_EQ(f.counter_value("client.breaker_rejected"), rejected + 1);
  EXPECT_EQ(f.counter_value("net.connects"), connects);
  EXPECT_EQ(f.counter_value("client.errors"), errors + 3);
}

// Frames the daemon cannot even dispatch — a demux header cut short, or a
// body that does not parse as a command — count as rejected commands, and
// the channel keeps serving the frames after them.
TEST(Rpc, MalformedFramesAreCountedAndChannelSurvives) {
  RpcFixture f;
  auto ch = f.raw_channel("raw");
  ASSERT_TRUE(ch.ok()) << ch.error().to_string();

  auto& rejected = f.env.env.metrics().counter("daemon.cmd.rejected");
  const auto before = rejected.value();
  // A lone call-id byte: the flags byte is missing, so there is no id to
  // answer and the frame is dropped.
  ASSERT_TRUE(ch->send(util::Bytes{0x01}).ok());
  // A well-framed body that is not a command: answered with a parse error.
  ASSERT_TRUE(ch->send(daemon::wire::encode_frame(2, 0, "not ( a command")).ok());
  ASSERT_TRUE(ch->send(daemon::wire::encode_frame(3, 0, "ping;")).ok());

  // Replies come back in frame order, so the ping's reply proves both
  // earlier frames have been handled.
  std::map<std::uint64_t, CmdLine> replies;
  testenv::FrameInbox inbox(f.env.env.reactor(), *ch);
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!replies.contains(3) && std::chrono::steady_clock::now() < deadline) {
    auto frame = inbox.next(200ms);
    if (!frame) continue;
    auto decoded = daemon::wire::decode_frame(*frame);
    ASSERT_TRUE(decoded.has_value());
    auto reply = cmdlang::Parser::parse(decoded->body);
    ASSERT_TRUE(reply.ok());
    replies.emplace(decoded->call_id, std::move(reply.value()));
  }
  ASSERT_TRUE(replies.contains(3)) << "ping got no reply";
  EXPECT_TRUE(cmdlang::is_ok(replies.at(3)));
  ASSERT_TRUE(replies.contains(2));
  EXPECT_EQ(cmdlang::reply_error(replies.at(2)).code, util::Errc::parse_error);
  EXPECT_EQ(replies.size(), 2u);  // nothing answered the truncated header
  EXPECT_EQ(rejected.value(), before + 2);
  ch->close();
}

// A nonblocking serialized command pipelined behind a slow serialized one
// on the same channel finds the control lane busy, so it queues and runs
// after it instead of overtaking it on the core worker.
TEST(Rpc, NonblockingCommandQueuesBehindBusyControlLane) {
  RpcFixture f;
  auto ch = f.raw_channel("pipeliner");
  ASSERT_TRUE(ch.ok()) << ch.error().to_string();
  ASSERT_TRUE(ch->send(daemon::wire::encode_frame(1, 0, "slow text=first;")).ok());
  ASSERT_TRUE(ch->send(daemon::wire::encode_frame(2, 0, "probe;")).ok());
  auto replies = read_replies(f.env.env.reactor(), *ch, {1, 2});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(cmdlang::is_ok(replies.at(1)));
  EXPECT_TRUE(cmdlang::is_ok(replies.at(2)));
  EXPECT_EQ(f.svc->executed(), (std::vector<std::string>{"slow", "probe"}));
  ch->close();
}

// The same on a connection's strand: a nonblocking concurrent_ok command
// behind a slow one on the strand waits its turn.
TEST(Rpc, NonblockingCommandQueuesBehindBusyStrand) {
  RpcFixture f;
  auto ch = f.raw_channel("pipeliner");
  ASSERT_TRUE(ch.ok()) << ch.error().to_string();
  ASSERT_TRUE(ch->send(daemon::wire::encode_frame(1, 0, "slowStrand;")).ok());
  ASSERT_TRUE(ch->send(daemon::wire::encode_frame(2, 0, "probeStrand;")).ok());
  auto replies = read_replies(f.env.env.reactor(), *ch, {1, 2});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(cmdlang::is_ok(replies.at(1)));
  EXPECT_TRUE(cmdlang::is_ok(replies.at(2)));
  EXPECT_EQ(f.svc->executed(),
            (std::vector<std::string>{"slowStrand", "probeStrand"}));
  ch->close();
}

// A handler declared nonblocking that makes a nested RPC runs on a core
// worker, where the never-block check aborts the process at the call.
TEST(RpcDeathTest, NestedCallFromNonblockingCommandAborts) {
  if (!net::kNeverBlockChecked)
    GTEST_SKIP() << "the never-block check is compiled out of this build";
  // The deployment's threads make fork-only death tests unsafe.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        RpcFixture f;
        (void)f.client->call(f.svc->address(), CmdLine("nestedCall"));
      },
      "core task would block at AceClient::call");
}

// ------------------------------------------------------------ call_all

using Request = daemon::AceClient::Request;

// call_all puts every request in flight before it waits: three handlers
// that each wait at a barrier for the other two all see it complete.
TEST(CallAll, RequestsAreInFlightTogether) {
  RpcFixture f;
  Rendezvous rendezvous;
  std::vector<Request> requests;
  for (RpcTestDaemon* s : {f.svc, f.add_service("svc2"), f.add_service("svc3")}) {
    s->set_rendezvous(&rendezvous);
    requests.push_back({s->address(), CmdLine("rendezvous")});
  }
  auto replies = f.client->call_all(requests, 5s);
  ASSERT_EQ(replies.size(), 3u);
  for (const auto& reply : replies) {
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply->ok()) << reply->error().to_string();
    EXPECT_EQ((*reply)->get_text("met"), "yes");
  }
}

// `enough` ends the wait: the slow request comes back nullopt, its slot is
// withdrawn at once rather than by its late reply, and that reply, dropped
// by the demux, leaves the channel usable.
TEST(CallAll, EnoughStopsTheWaitAndWithdrawsTheRest) {
  RpcFixture f;
  RpcTestDaemon* slow = f.add_service("svc2");
  // Connect both first, so the timing below is the wait alone.
  ASSERT_TRUE(f.client->call(f.svc->address(), CmdLine("ping")).ok());
  ASSERT_TRUE(f.client->call(slow->address(), CmdLine("ping")).ok());

  CmdLine nap("nap");
  nap.arg("ms", 1000);
  const std::vector<Request> requests{{f.svc->address(), CmdLine("fast")},
                                      {slow->address(), nap}};
  const auto started = std::chrono::steady_clock::now();
  auto replies = f.client->call_all(
      requests, 5s, [](const daemon::AceClient::Replies& rs) {
        return std::any_of(rs.begin(), rs.end(),
                           [](const auto& r) { return r.has_value(); });
      });
  EXPECT_LT(std::chrono::steady_clock::now() - started, 500ms);
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_TRUE(replies[0].has_value() && replies[0]->ok());
  EXPECT_TRUE(cmdlang::is_ok(replies[0]->value()));
  EXPECT_FALSE(replies[1].has_value());
  // The nap replies 1 s after it was sent; the gauge must read 0 before.
  bool drained = false;
  while (!drained && std::chrono::steady_clock::now() - started < 900ms) {
    drained = f.gauge_value("client.inflight") == 0;
    if (!drained) std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(drained) << "client.inflight " << f.gauge_value("client.inflight");
  EXPECT_TRUE(
      f.client->call(slow->address(), CmdLine("ping"), daemon::kCallOk).ok());
}

// Failures stay with their own request: a refused connect, an open
// breaker and a live daemon each get their own result from one call.
TEST(CallAll, FailuresStayPerRequest) {
  RpcFixture f;
  f.client->set_breaker_policy({.failure_threshold = 1, .cooldown = 60s});
  const net::Address refused{"svc", 40001};  // nothing listens there
  const net::Address tripped{"svc", 40002};
  ASSERT_FALSE(
      f.client->call(tripped, CmdLine("ping"), {.retries = 0}).ok());
  const auto rejected = f.counter_value("client.breaker_rejected");

  const std::vector<Request> requests{{refused, CmdLine("ping")},
                                      {tripped, CmdLine("ping")},
                                      {f.svc->address(), CmdLine("ping")}};
  auto replies = f.client->call_all(requests, 2s);
  ASSERT_EQ(replies.size(), 3u);
  ASSERT_TRUE(replies[0].has_value() && !replies[0]->ok());
  EXPECT_EQ(replies[0]->error().code, util::Errc::refused);
  ASSERT_TRUE(replies[1].has_value() && !replies[1]->ok());
  EXPECT_EQ(replies[1]->error().code, util::Errc::unavailable);
  EXPECT_EQ(f.counter_value("client.breaker_rejected"), rejected + 1);
  ASSERT_TRUE(replies[2].has_value() && replies[2]->ok());
  EXPECT_TRUE(cmdlang::is_ok(replies[2]->value()));
}

// A request unanswered at the deadline ends as a timeout and counts in
// client.timeouts, like one from call().
TEST(CallAll, TimeoutCountsLikeCall) {
  RpcFixture f;
  ASSERT_TRUE(f.client->call(f.svc->address(), CmdLine("ping")).ok());
  const auto timeouts = f.counter_value("client.timeouts");
  CmdLine nap("nap");
  nap.arg("ms", 500);
  const std::vector<Request> requests{{f.svc->address(), nap}};
  auto replies = f.client->call_all(requests, 100ms);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(replies[0].has_value() && !replies[0]->ok());
  EXPECT_EQ(replies[0]->error().code, util::Errc::timeout);
  EXPECT_EQ(f.counter_value("client.timeouts"), timeouts + 1);
}

// ------------------------------------------------ call_all's callback form

// What one callback-form set handed its hook, and how many times.
struct Settlement {
  std::mutex mu;
  std::condition_variable cv;
  int runs = 0;
  daemon::AceClient::Replies replies;
  std::thread::id thread;

  daemon::AceClient::OnSettled hook() {
    return [this](daemon::AceClient::Replies rs) {
      std::scoped_lock lock(mu);
      ++runs;
      replies = std::move(rs);
      thread = std::this_thread::get_id();
      cv.notify_all();
    };
  }

  // True once the hook has run, within `timeout`; then, 50 ms later, that
  // it ran exactly once.
  bool settled_once(std::chrono::milliseconds timeout = 3s) {
    std::unique_lock lock(mu);
    if (!cv.wait_for(lock, timeout, [&] { return runs > 0; })) return false;
    lock.unlock();
    std::this_thread::sleep_for(50ms);
    lock.lock();
    return runs == 1;
  }
};

// Every reply in: the set settles once, on the demux, with each reply.
TEST(CallAll, CallbackSettlesOnceOnAllReplies) {
  RpcFixture f;
  RpcTestDaemon* other = f.add_service("svc2");
  Settlement s;
  const std::vector<Request> requests{{f.svc->address(), CmdLine("ping")},
                                      {other->address(), CmdLine("fast")}};
  f.client->call_all(requests, 2s, {}, s.hook());
  ASSERT_TRUE(s.settled_once());
  ASSERT_EQ(s.replies.size(), 2u);
  for (const auto& reply : s.replies) {
    ASSERT_TRUE(reply.has_value() && reply->ok());
    EXPECT_TRUE(cmdlang::is_ok(reply->value()));
  }
}

// `enough` settles the set before the slow request answers, which comes
// back nullopt and is withdrawn.
TEST(CallAll, CallbackSettlesOnceOnEnough) {
  RpcFixture f;
  RpcTestDaemon* slow = f.add_service("svc2");
  ASSERT_TRUE(f.client->call(slow->address(), CmdLine("ping")).ok());
  CmdLine nap("nap");
  nap.arg("ms", 500);
  const std::vector<Request> requests{{f.svc->address(), CmdLine("fast")},
                                      {slow->address(), nap}};
  Settlement s;
  const auto started = std::chrono::steady_clock::now();
  f.client->call_all(
      requests, 5s,
      [](const daemon::AceClient::Replies& rs) { return rs[0].has_value(); },
      s.hook());
  ASSERT_TRUE(s.settled_once());
  EXPECT_LT(std::chrono::steady_clock::now() - started, 450ms);
  ASSERT_TRUE(s.replies[0].has_value() && s.replies[0]->ok());
  EXPECT_FALSE(s.replies[1].has_value());
  EXPECT_EQ(f.gauge_value("client.inflight"), 0);
}

// A request unanswered at the deadline: the timer settles the set, with a
// timeout counted as call()'s is.
TEST(CallAll, CallbackSettlesOnceAtTheDeadline) {
  RpcFixture f;
  ASSERT_TRUE(f.client->call(f.svc->address(), CmdLine("ping")).ok());
  const auto timeouts = f.counter_value("client.timeouts");
  CmdLine nap("nap");
  nap.arg("ms", 500);
  const std::vector<Request> requests{{f.svc->address(), nap}};
  Settlement s;
  f.client->call_all(requests, 100ms, {}, s.hook());
  ASSERT_TRUE(s.settled_once());
  ASSERT_TRUE(s.replies[0].has_value() && !s.replies[0]->ok());
  EXPECT_EQ(s.replies[0]->error().code, util::Errc::timeout);
  EXPECT_EQ(f.counter_value("client.timeouts"), timeouts + 1);
}

// The channel dies mid-call (its daemon crashes): the set settles once,
// with the request failed `unavailable`.
TEST(CallAll, CallbackSettlesOnceOnChannelDeath) {
  RpcFixture f;
  ASSERT_TRUE(f.client->call(f.svc->address(), CmdLine("ping")).ok());
  CmdLine nap("nap");
  nap.arg("ms", 300);
  const std::vector<Request> requests{{f.svc->address(), nap}};
  Settlement s;
  f.client->call_all(requests, 5s, {}, s.hook());
  std::this_thread::sleep_for(50ms);
  f.svc->crash();
  ASSERT_TRUE(s.settled_once());
  ASSERT_TRUE(s.replies[0].has_value() && !s.replies[0]->ok());
  EXPECT_EQ(s.replies[0]->error().code, util::Errc::unavailable);
}

// An open breaker fails the request in the send half, so the set settles
// once, on the caller's thread, before call_all returns.
TEST(CallAll, CallbackSettlesOnceOnAnOpenBreaker) {
  RpcFixture f;
  f.client->set_breaker_policy({.failure_threshold = 1, .cooldown = 60s});
  const net::Address tripped{"svc", 40002};  // nothing listens there
  ASSERT_FALSE(f.client->call(tripped, CmdLine("ping"), {.retries = 0}).ok());
  const std::vector<Request> requests{{tripped, CmdLine("ping")}};
  Settlement s;
  f.client->call_all(requests, 2s, {}, s.hook());
  {
    std::scoped_lock lock(s.mu);
    EXPECT_EQ(s.runs, 1);
    EXPECT_EQ(s.thread, std::this_thread::get_id());
  }
  ASSERT_TRUE(s.settled_once());
  ASSERT_TRUE(s.replies[0].has_value() && !s.replies[0]->ok());
  EXPECT_EQ(s.replies[0]->error().code, util::Errc::unavailable);
}

// close_all() fails a request in flight and one whose connect waits on
// the ops pool, and returns only once both sets have settled.
TEST(CallAll, CallbackSettlesOnceOnCloseAll) {
  RpcFixture f;
  RpcTestDaemon* other = f.add_service("svc2");
  ASSERT_TRUE(f.client->call(f.svc->address(), CmdLine("ping")).ok());
  CmdLine nap("nap");
  nap.arg("ms", 1000);
  const std::vector<Request> in_flight{{f.svc->address(), nap}};
  const std::vector<Request> connecting{{other->address(), nap}};
  Settlement a, b;
  f.client->call_all(in_flight, 5s, {}, a.hook());
  f.client->call_all(connecting, 5s, {}, b.hook());
  const auto started = std::chrono::steady_clock::now();
  f.client->close_all();
  EXPECT_LT(std::chrono::steady_clock::now() - started, 900ms);
  {
    std::scoped_lock lock(a.mu);
    EXPECT_EQ(a.runs, 1);
  }
  {
    std::scoped_lock lock(b.mu);
    EXPECT_EQ(b.runs, 1);
  }
  ASSERT_TRUE(a.settled_once() && b.settled_once());
  for (Settlement* s : {&a, &b}) {
    ASSERT_TRUE(s->replies[0].has_value() && !s->replies[0]->ok());
    EXPECT_EQ(s->replies[0]->error().code, util::Errc::unavailable);
  }
}

// From a core worker, to a destination with no live channel: call_all
// returns at once and the set settles later, once the connect on the ops
// pool has carried the request.
TEST(CallAll, CallbackFromCoreWorkerReturnsAtOnce) {
  RpcFixture f;
  Settlement s;
  std::mutex mu;
  std::condition_variable cv;
  std::optional<std::chrono::steady_clock::duration> took;
  f.env.env.reactor().post([&] {
    const std::vector<Request> requests{{f.svc->address(), CmdLine("ping")}};
    const auto started = std::chrono::steady_clock::now();
    f.client->call_all(requests, 2s, {}, s.hook());
    std::scoped_lock lock(mu);
    took = std::chrono::steady_clock::now() - started;
    cv.notify_all();
  });
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 2s, [&] { return took.has_value(); }));
    EXPECT_LT(*took, 20ms);
  }
  ASSERT_TRUE(s.settled_once());
  ASSERT_TRUE(s.replies[0].has_value() && s.replies[0]->ok());
  EXPECT_TRUE(cmdlang::is_ok(s.replies[0]->value()));
}

// Once its hook has run, a set keeps nothing alive: the hook and the
// predicate, and what they hold, are released as it settles.
TEST(CallAll, CallbackReleasesItsHookAndPredicate) {
  RpcFixture f;
  auto hook_state = std::make_shared<int>(0);
  auto enough_state = std::make_shared<int>(0);
  const std::weak_ptr<int> hook_alive = hook_state;
  const std::weak_ptr<int> enough_alive = enough_state;
  Settlement s;
  const std::vector<Request> requests{{f.svc->address(), CmdLine("ping")}};
  f.client->call_all(
      requests, 2s,
      [held = std::move(enough_state)](const daemon::AceClient::Replies&) {
        return false;
      },
      [held = std::move(hook_state), inner = s.hook()](
          daemon::AceClient::Replies rs) { inner(std::move(rs)); });
  ASSERT_TRUE(s.settled_once());
  EXPECT_TRUE(hook_alive.expired());
  EXPECT_TRUE(enough_alive.expired());
}

// call_all waits like call(), so a nonblocking command that fans out
// aborts at it wherever the never-block check is compiled in.
TEST(RpcDeathTest, CallAllFromNonblockingCommandAborts) {
  if (!net::kNeverBlockChecked)
    GTEST_SKIP() << "the never-block check is compiled out of this build";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        RpcFixture f;
        (void)f.client->call(f.svc->address(), CmdLine("nestedCallAll"));
      },
      "core task would block at AceClient::call_all");
}

}  // namespace

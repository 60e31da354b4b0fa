// Tests for the pipelined multiplexed command channel: concurrent in-flight
// calls per destination, out-of-order reply routing, retry across channel
// death, malformed frames, and the daemon-side handshake pool keeping slow
// connectors off the accept path.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ace_test_env.hpp"
#include "daemon/wire.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;

namespace {

// Echo service with a deliberately slow serialized command and a fast
// concurrent one, for exercising reply interleaving on one channel.
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
        [](const CmdLine& cmd, const daemon::CallerInfo&) {
          std::this_thread::sleep_for(150ms);
          CmdLine reply = cmdlang::make_ok();
          reply.arg("text", cmd.get_text("text"));
          return reply;
        });
    register_command(
        cmdlang::CommandSpec("fast", "thread-safe no-op").concurrent_ok(),
        [](const CmdLine&, const daemon::CallerInfo&) {
          return cmdlang::make_ok();
        });
  }
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

  testenv::AceTestEnv env;
  std::unique_ptr<daemon::DaemonHost> svc_host;
  RpcTestDaemon* svc = nullptr;
  std::unique_ptr<daemon::AceClient> client;
};

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
  auto stalled = staller_host.connect(addr, 500ms);
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

// Frames the daemon cannot even dispatch — a demux header cut short, or a
// body that does not parse as a command — count as rejected commands, and
// the channel keeps serving the frames after them.
TEST(Rpc, MalformedFramesAreCountedAndChannelSurvives) {
  RpcFixture f;
  auto& raw_host = f.env.env.network().add_host("raw");
  auto conn = raw_host.connect(f.svc->address(), 2s);
  ASSERT_TRUE(conn.ok());
  auto ch = crypto::SecureChannel::connect(
      std::move(conn.value()), f.env.env.issue_identity("user/raw"),
      f.env.env.ca_key(), 2s, f.env.env.channel_options());
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
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!replies.contains(3) && std::chrono::steady_clock::now() < deadline) {
    auto frame = ch->recv(200ms);
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

}  // namespace

// Tests for net::Reactor — the event loop the fabric multiplexes onto —
// and for the async surfaces built on it: queue pumps (attach_queue) and
// their release when a stopping reactor refuses or drops a drain, the
// PeriodicTask contract, the Outbox's per-destination lanes, endpoint
// callbacks (on_frame/on_accept), and the client's per-destination reply
// demux.
// Includes a connect/close churn soak meant to run under ThreadSanitizer
// (ci.sh tsan), and a census showing a whole deployment runs no thread
// outside the reactor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ace_test_env.hpp"
#include "daemon/outbox.hpp"
#include "daemon/wire.hpp"
#include "endpoint_waiter.hpp"
#include "io/sim_disk.hpp"
#include "net/network.hpp"
#include "net/reactor.hpp"
#include "services/monitors.hpp"
#include "store/persistent_store.hpp"
#include "store/robustness.hpp"
#include "util/queue.hpp"

using namespace ace;
using namespace std::chrono_literals;
using cmdlang::CmdLine;

namespace {

// Spin-waits (with sleeps) until `pred` holds or `deadline_ms` elapses.
template <typename Pred>
bool eventually(Pred&& pred, int deadline_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

std::uint64_t counter_value(const obs::MetricsRegistry& metrics,
                            const std::string& name) {
  for (const auto& c : metrics.snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

std::int64_t gauge_value(const obs::MetricsRegistry& metrics,
                         const std::string& name) {
  for (const auto& g : metrics.snapshot().gauges)
    if (g.name == name) return g.value;
  return 0;
}

// The process's thread count, from /proc/self/status.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

// ---------------------------------------------------------------- Reactor

TEST(Reactor, PostRunsTasks) {
  net::Reactor reactor;
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) reactor.post([&] { ran++; });
  EXPECT_TRUE(eventually([&] { return ran.load() == 100; }));
  EXPECT_GE(reactor.stats().tasks_run, 100u);
}

TEST(Reactor, BlockingTasksRunOnElasticPoolWithoutStarvingCore) {
  net::Reactor reactor;
  // More simultaneous sleepers than ops_min: the pool must grow (or churn
  // through them) while core tasks keep flowing.
  constexpr int kSleepers = 8;
  std::atomic<int> blocked_done{0}, core_done{0};
  for (int i = 0; i < kSleepers; ++i)
    reactor.post_blocking([&] {
      std::this_thread::sleep_for(50ms);
      blocked_done++;
    });
  for (int i = 0; i < 20; ++i) reactor.post([&] { core_done++; });
  EXPECT_TRUE(eventually([&] { return core_done.load() == 20; }, 1000));
  EXPECT_TRUE(eventually([&] { return blocked_done.load() == kSleepers; }));
  EXPECT_GE(reactor.stats().blocking_tasks_run, kSleepers);
}

TEST(Reactor, TimerFiresOnceAndCancelUnarms) {
  net::Reactor reactor;
  std::atomic<int> fired{0}, cancelled_fired{0};
  reactor.post_after(20ms, [&] { fired++; });
  auto id = reactor.post_after(20ms, [&] { cancelled_fired++; });
  EXPECT_TRUE(reactor.cancel(id));
  EXPECT_TRUE(eventually([&] { return fired.load() == 1; }));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(cancelled_fired.load(), 0);
  // Cancelling an already-fired (or bogus) id reports false.
  EXPECT_FALSE(reactor.cancel(id));
  EXPECT_FALSE(reactor.cancel(0));
}

TEST(Reactor, StoppedReactorDropsWork) {
  net::Reactor reactor;
  reactor.stop();
  std::atomic<int> ran{0};
  reactor.post([&] { ran++; });
  EXPECT_EQ(reactor.post_after(1ms, [&] { ran++; }), 0u);
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(ran.load(), 0);
}

// ------------------------------------------------------------ attach_queue

TEST(Reactor, PumpDeliversInOrderWithFinalExactlyOnce) {
  net::Reactor reactor;
  util::MessageQueue<int> queue;
  std::mutex mu;
  std::vector<int> seen;
  std::atomic<int> finals{0};
  auto sub = net::attach_queue<int>(
      reactor, queue, [&](std::optional<int> item) {
        if (!item) {
          finals++;
          return;
        }
        std::scoped_lock lock(mu);
        seen.push_back(*item);
      });
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(queue.push(i));
  queue.close();
  EXPECT_TRUE(eventually([&] { return finals.load() == 1; }));
  EXPECT_FALSE(sub.active());
  std::scoped_lock lock(mu);
  ASSERT_EQ(seen.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(seen[i], i);
}

TEST(Reactor, PumpDrainsItemsQueuedBeforeAttach) {
  net::Reactor reactor;
  util::MessageQueue<int> queue;
  for (int i = 0; i < 3; ++i) queue.push(i);
  std::atomic<int> got{0};
  auto sub = net::attach_queue<int>(reactor, queue,
                                    [&](std::optional<int> item) {
                                      if (item) got++;
                                    });
  EXPECT_TRUE(eventually([&] { return got.load() == 3; }));
  sub.stop();
}

TEST(Reactor, PumpHonoursDueTimeGating) {
  net::Reactor reactor;
  util::MessageQueue<int> queue;
  const auto armed = net::Reactor::Clock::now();
  const auto due_at = armed + 120ms;
  std::atomic<bool> delivered{false};
  std::atomic<bool> early{false};
  auto sub = net::attach_queue<int>(
      reactor, queue,
      [&](std::optional<int> item) {
        if (!item) return;
        if (net::Reactor::Clock::now() < due_at) early = true;
        delivered = true;
      },
      {}, [&](const int&) { return due_at; });
  queue.push(1);
  std::this_thread::sleep_for(40ms);
  EXPECT_FALSE(delivered.load());  // not readable before its deliver-at
  EXPECT_TRUE(eventually([&] { return delivered.load(); }));
  EXPECT_FALSE(early.load());
  sub.stop();
}

TEST(Reactor, SubscriptionStopFromInsideHandlerIsAllowed) {
  net::Reactor reactor;
  util::MessageQueue<int> queue;
  std::atomic<int> handled{0};
  net::Subscription sub;
  std::mutex sub_mu;  // handler races attach's return value otherwise
  {
    std::scoped_lock lock(sub_mu);
    sub = net::attach_queue<int>(reactor, queue,
                                 [&](std::optional<int> item) {
                                   if (!item) return;
                                   handled++;
                                   std::scoped_lock inner(sub_mu);
                                   sub.stop();  // self-stop: must not hang
                                 });
  }
  queue.push(1);
  queue.push(2);
  EXPECT_TRUE(eventually([&] { return handled.load() >= 1; }));
  sub.stop();  // idempotent from outside too
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(handled.load(), 1);  // the self-stop halted delivery
}

// stop() from outside returns only once a handler running on an ops
// worker has finished, and nothing is delivered after it: an owner that
// stops its pumps may die right after, though their handlers captured it
// by raw pointer.
TEST(Reactor, SubscriptionStopWaitsOutRunningHandler) {
  net::Reactor reactor;
  util::MessageQueue<int> queue;
  std::atomic<bool> started{false}, finished{false};
  std::atomic<int> delivered{0};
  net::Subscription sub = net::attach_queue<int>(
      reactor, queue,
      [&](std::optional<int> item) {
        if (!item) return;
        delivered++;
        started = true;
        std::this_thread::sleep_for(100ms);
        finished = true;
      },
      {.blocking = true});
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(eventually([&] { return started.load(); }));
  ASSERT_TRUE(queue.push(2));  // queued behind the running handler
  sub.stop();
  EXPECT_TRUE(finished.load());
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(delivered.load(), 1);
}

// Holds a queue and a blocking pump whose handler captures the owner: a
// cycle that only the pump's release breaks. `freed` is set on the way out.
struct PumpOwner {
  std::shared_ptr<util::MessageQueue<int>> queue;
  net::Subscription pump;
  std::atomic<int> delivered{0};
  std::atomic<bool>* freed = nullptr;
  ~PumpOwner() { *freed = true; }
};

std::weak_ptr<PumpOwner> make_pump_owner(
    net::Reactor& reactor, std::shared_ptr<util::MessageQueue<int>> queue,
    std::atomic<bool>* freed) {
  auto owner = std::make_shared<PumpOwner>();
  owner->queue = std::move(queue);
  owner->freed = freed;
  owner->pump = net::attach_queue<int>(
      reactor, *owner->queue,
      [owner](std::optional<int> item) {
        if (item) owner->delivered++;
      },
      {.blocking = true});
  return owner;
}

// A queue that closes after stop() signals a drain the reactor refuses;
// the refusal releases the handler's captures, and with them the owner.
TEST(Reactor, RefusedDrainReleasesPumpCaptures) {
  net::Reactor reactor;
  auto queue = std::make_shared<util::MessageQueue<int>>();
  std::atomic<bool> freed{false};
  auto owner = make_pump_owner(reactor, queue, &freed);
  ASSERT_TRUE(queue->push(1));
  ASSERT_TRUE(eventually([&] {
    auto live = owner.lock();
    return live && live->delivered.load() == 1;
  }));
  reactor.stop();
  ASSERT_FALSE(owner.expired());  // the pump was idle: nothing to discard
  queue->close();
  EXPECT_TRUE(owner.expired());
  EXPECT_TRUE(freed.load());
}

// A drain queued behind the only ops worker, busy while stop() runs, is
// discarded; the discard releases the owner. The busy task waits for that
// (2 s cap), so stop() returns only once the owner is gone or the cap hit.
TEST(Reactor, DiscardedDrainReleasesPumpCaptures) {
  net::Reactor reactor(
      net::Reactor::Options{.core_workers = 1, .ops_min = 1, .ops_max = 1});
  std::atomic<bool> busy{false}, freed{false};
  reactor.post_blocking([&] {
    busy = true;
    const auto cap = std::chrono::steady_clock::now() + 2s;
    while (!freed.load() && std::chrono::steady_clock::now() < cap)
      std::this_thread::sleep_for(1ms);
  });
  ASSERT_TRUE(eventually([&] { return busy.load(); }));
  auto queue = std::make_shared<util::MessageQueue<int>>();
  auto owner = make_pump_owner(reactor, queue, &freed);  // its drain queues
  reactor.stop();
  EXPECT_TRUE(owner.expired());
  EXPECT_TRUE(freed.load());
}

// ------------------------------------------------------------ PeriodicTask

// One test per point of the PeriodicTask contract (see reactor.hpp).

TEST(PeriodicTask, TicksRunOnOpsPoolAndNeverOverlap) {
  net::Reactor reactor;
  std::atomic<int> ticks{0}, inside{0}, overlaps{0};
  std::atomic<bool> tick_blocked_core{false};
  std::atomic<int> core_ran{0};
  net::PeriodicTask task(reactor, [&] {
    if (inside.fetch_add(1) != 0) overlaps++;
    // A core task still runs while this tick blocks: the tick is on the
    // ops pool, not on a core worker.
    const int before = core_ran.load();
    reactor.post([&] { core_ran++; });
    if (!eventually([&] { return core_ran.load() > before; }, 1000))
      tick_blocked_core = true;
    std::this_thread::sleep_for(30ms);  // longer than the period
    inside--;
    ticks++;
  });
  task.start(5ms);
  EXPECT_TRUE(eventually([&] { return ticks.load() >= 4; }));
  task.stop();
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_FALSE(tick_blocked_core.load());
  EXPECT_GE(reactor.stats().blocking_tasks_run,
            static_cast<std::uint64_t>(ticks.load()));
}

TEST(PeriodicTask, FirstTickAtOnceOrAfterOnePeriod) {
  net::Reactor reactor;
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<std::int64_t> at_once_ms{-1}, delayed_ms{-1};
  auto since_t0 = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  net::PeriodicTask at_once(reactor, [&] {
    std::int64_t unset = -1;
    at_once_ms.compare_exchange_strong(unset, since_t0());
  });
  net::PeriodicTask delayed(reactor, [&] {
    std::int64_t unset = -1;
    delayed_ms.compare_exchange_strong(unset, since_t0());
  });
  at_once.start(400ms, /*at_once=*/true);
  delayed.start(400ms);
  EXPECT_TRUE(eventually([&] { return delayed_ms.load() >= 0; }));
  EXPECT_GE(at_once_ms.load(), 0);
  EXPECT_LT(at_once_ms.load(), 300);
  EXPECT_GE(delayed_ms.load(), 400);
}

TEST(PeriodicTask, StartOnArmedChainReArmsWithNewPeriod) {
  net::Reactor reactor;
  // From outside: a 10 s chain re-armed at 20 ms ticks soon.
  std::atomic<int> outer{0};
  net::PeriodicTask slow(reactor, [&] { outer++; });
  slow.start(10s);
  slow.start(20ms);
  EXPECT_TRUE(eventually([&] { return outer.load() >= 2; }, 2000));
  slow.stop();

  // From inside a tick: the first tick stretches the period to 10 s, so no
  // second tick follows.
  std::atomic<int> inner{0};
  net::PeriodicTask* self = nullptr;
  net::PeriodicTask fast(reactor, [&] {
    if (inner.fetch_add(1) == 0) self->start(10s);
  });
  self = &fast;
  fast.start(20ms);
  EXPECT_TRUE(eventually([&] { return inner.load() >= 1; }));
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(inner.load(), 1);
  fast.stop();
}

TEST(PeriodicTask, StopWaitsOutRunningTick) {
  net::Reactor reactor;
  std::atomic<bool> in_tick{false};
  std::atomic<int> finished{0};
  net::PeriodicTask task(reactor, [&] {
    in_tick = true;
    std::this_thread::sleep_for(150ms);
    finished++;
  });
  task.start(1ms, /*at_once=*/true);
  ASSERT_TRUE(eventually([&] { return in_tick.load(); }));
  task.stop();
  EXPECT_EQ(finished.load(), 1);  // the running tick finished first
  std::this_thread::sleep_for(60ms);
  EXPECT_EQ(finished.load(), 1);  // and none followed
}

TEST(PeriodicTask, StopFromInsideTickReturnsAtOnce) {
  net::Reactor reactor;
  std::atomic<int> ticks{0};
  std::atomic<bool> stop_returned{false};
  net::PeriodicTask* self = nullptr;
  net::PeriodicTask task(reactor, [&] {
    ticks++;
    self->stop();  // must not wait on itself
    stop_returned = true;
  });
  self = &task;
  task.start(5ms);
  EXPECT_TRUE(eventually([&] { return stop_returned.load(); }));
  std::this_thread::sleep_for(60ms);
  EXPECT_EQ(ticks.load(), 1);
}

TEST(PeriodicTask, RestartsAfterStop) {
  net::Reactor reactor;
  std::atomic<int> ticks{0};
  net::PeriodicTask task(reactor, [&] { ticks++; });
  task.start(5ms);
  ASSERT_TRUE(eventually([&] { return ticks.load() >= 2; }));
  task.stop();
  const int stopped_at = ticks.load();
  std::this_thread::sleep_for(40ms);
  EXPECT_EQ(ticks.load(), stopped_at);
  task.start(5ms);
  EXPECT_TRUE(eventually([&] { return ticks.load() >= stopped_at + 2; }));
  task.stop();
}

TEST(PeriodicTask, StaysDisarmedOnStoppingReactor) {
  net::Reactor reactor;
  std::atomic<int> ticks{0};
  net::PeriodicTask task(reactor, [&] { ticks++; });
  reactor.stop();
  task.start(1ms, /*at_once=*/true);
  std::this_thread::sleep_for(40ms);
  EXPECT_EQ(ticks.load(), 0);
  task.stop();  // still returns
}

// ------------------------------------------------------------------- outbox

// What an Outbox<int> shipped, per destination and in shipping order, and
// on which threads. A shipment settles at once, on the shipping thread,
// except one to `held`, which stays in flight until release().
class ShipLog {
 public:
  using Settled = daemon::Outbox<int>::Settled;

  explicit ShipLog(net::Address held = {}) : held_(std::move(held)) {}

  daemon::Outbox<int>::Ship ship() {
    return [this](const net::Address& to, std::vector<int> batch,
                  Settled settled) {
      bool hold;
      {
        std::scoped_lock lock(mu_);
        shipped_[to].push_back(std::move(batch));
        threads_.push_back(std::this_thread::get_id());
        hold = to == held_ && !released_;
        if (hold) held_shipments_.push_back(settled);
      }
      if (!hold) settled();
    };
  }

  // Settles the shipments held so far, on the calling thread; later ones
  // settle at once.
  void release() {
    std::vector<Settled> held;
    {
      std::scoped_lock lock(mu_);
      released_ = true;
      held.swap(held_shipments_);
    }
    for (const Settled& settled : held) settled();
  }

  std::vector<std::vector<int>> shipped(const net::Address& to) {
    std::scoped_lock lock(mu_);
    return shipped_[to];
  }

  std::vector<std::thread::id> threads() {
    std::scoped_lock lock(mu_);
    return threads_;
  }

 private:
  net::Address held_;
  std::mutex mu_;
  bool released_ = false;
  std::vector<Settled> held_shipments_;
  std::map<net::Address, std::vector<std::vector<int>>> shipped_;
  std::vector<std::thread::id> threads_;
};

const net::Address kLaneA{"a", 1};
const net::Address kLaneB{"b", 1};
using Batches = std::vector<std::vector<int>>;

// An idle lane ships on the pushing thread, and per destination items
// ship in push order: what queued behind a shipment in flight leaves as
// one batch when it settles, on the settling thread.
TEST(OutboxTest, ItemsShipInPushOrderAndABacklogAsOneBatch) {
  ShipLog log(kLaneA);
  daemon::Outbox<int> outbox;
  outbox.open(log.ship());
  ASSERT_TRUE(outbox.push(kLaneA, 0));
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(outbox.push(kLaneA, int{i}));
  for (int i = 10; i <= 12; ++i) ASSERT_TRUE(outbox.push(kLaneB, int{i}));
  EXPECT_EQ(log.shipped(kLaneA), (Batches{{0}}));  // 1..5 wait for it
  EXPECT_EQ(log.shipped(kLaneB), (Batches{{10}, {11}, {12}}));
  for (std::thread::id id : log.threads())
    EXPECT_EQ(id, std::this_thread::get_id());

  std::jthread settler([&] { log.release(); });
  settler.join();
  EXPECT_EQ(log.shipped(kLaneA), (Batches{{0}, {1, 2, 3, 4, 5}}));
  ASSERT_EQ(log.threads().size(), 5u);
  EXPECT_NE(log.threads().back(), std::this_thread::get_id());
  EXPECT_TRUE(outbox.close().empty());
}

// An outbox never opened, or closed since, takes nothing: push() returns
// false and the item stays with the caller.
TEST(OutboxTest, PushOnClosedOutboxLeavesTheItem) {
  daemon::Outbox<std::string> outbox;
  std::string item = "kept";
  EXPECT_FALSE(outbox.push(kLaneA, std::move(item)));
  EXPECT_EQ(item, "kept");

  outbox.open([](const net::Address&, std::vector<std::string>,
                 daemon::Outbox<std::string>::Settled settled) { settled(); });
  EXPECT_TRUE(outbox.close().empty());
  EXPECT_FALSE(outbox.push(kLaneA, std::move(item)));
  EXPECT_EQ(item, "kept");
}

// close() waits until the shipment in flight has settled and hands back
// exactly the items queued behind it, which never ship.
TEST(OutboxTest, CloseWaitsOutAShipmentAndReturnsWhatIsQueued) {
  ShipLog log(kLaneA);
  daemon::Outbox<int> outbox;
  outbox.open(log.ship());
  ASSERT_TRUE(outbox.push(kLaneA, 1));
  ASSERT_TRUE(outbox.push(kLaneA, 2));
  ASSERT_TRUE(outbox.push(kLaneA, 3));

  std::atomic<bool> closed{false};
  std::vector<int> left;
  std::jthread closer([&] {
    left = outbox.close();
    closed = true;
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(closed.load());  // the shipment of 1 has not settled
  log.release();
  closer.join();
  EXPECT_EQ(left, (std::vector<int>{2, 3}));
  EXPECT_EQ(log.shipped(kLaneA), (Batches{{1}}));
  EXPECT_FALSE(outbox.push(kLaneA, 4));
}

// A destination whose shipment never settles holds up only its own lane.
TEST(OutboxTest, BlockedDestinationDoesNotDelayAnother) {
  ShipLog log(kLaneA);
  daemon::Outbox<int> outbox;
  outbox.open(log.ship());
  ASSERT_TRUE(outbox.push(kLaneA, 1));
  ASSERT_TRUE(outbox.push(kLaneA, 2));
  ASSERT_TRUE(outbox.push(kLaneB, 3));
  ASSERT_TRUE(outbox.push(kLaneB, 4));
  EXPECT_EQ(log.shipped(kLaneB), (Batches{{3}, {4}}));
  EXPECT_EQ(log.shipped(kLaneA), (Batches{{1}}));
  log.release();
  EXPECT_EQ(log.shipped(kLaneA), (Batches{{1}, {2}}));
  EXPECT_TRUE(outbox.close().empty());
}

// ------------------------------------------------- async endpoint surfaces

TEST(Reactor, OnAcceptAndOnFrameDriveAConnection) {
  net::Network network;
  net::Reactor reactor;
  net::Host& a = network.add_host("a");
  net::Host& b = network.add_host("b");
  auto listener = b.listen(100);
  ASSERT_TRUE(listener.ok());

  std::mutex mu;
  std::vector<std::string> got;
  std::atomic<bool> conn_final{false};
  net::Subscription frame_sub;
  auto accept_sub = (*listener)->on_accept(
      reactor, [&](std::optional<net::Connection> conn) {
        if (!conn) return;
        auto shared = std::make_shared<net::Connection>(std::move(*conn));
        std::scoped_lock lock(mu);
        frame_sub = shared->on_frame(
            reactor, [&, shared](std::optional<net::Frame> frame) {
              if (!frame) {
                conn_final = true;
                return;
              }
              std::scoped_lock inner(mu);
              got.push_back(util::to_string(*frame));
            });
      });

  auto client = a.connect({"b", 100});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->send(util::to_bytes("one")).ok());
  ASSERT_TRUE(client->send(util::to_bytes("two")).ok());
  EXPECT_TRUE(eventually([&] {
    std::scoped_lock lock(mu);
    return got.size() == 2;
  }));
  {
    std::scoped_lock lock(mu);
    EXPECT_EQ(got[0], "one");
    EXPECT_EQ(got[1], "two");
  }
  client->close();
  EXPECT_TRUE(eventually([&] { return conn_final.load(); }));
  accept_sub.stop();
}

// -------------------------------------------------------------- soak tests

// Echo daemon for the churn soak.
class SoakDaemon : public daemon::ServiceDaemon {
 public:
  SoakDaemon(daemon::Environment& env, daemon::DaemonHost& host,
             daemon::DaemonConfig config)
      : ServiceDaemon(env, host, std::move(config)) {
    register_command(
        cmdlang::CommandSpec("echo", "echo the text back")
            .arg(cmdlang::string_arg("text"))
            .concurrent_ok(),
        [](const CmdLine& cmd, const daemon::CallerInfo&) {
          CmdLine reply = cmdlang::make_ok();
          reply.arg("text", cmd.get_text("text"));
          return reply;
        });
  }
};

struct SoakFixture {
  SoakFixture() : env(91) {
    EXPECT_TRUE(env.start().ok());
    svc_host = std::make_unique<daemon::DaemonHost>(env.env, "svc");
    daemon::DaemonConfig cfg;
    cfg.name = "soak";
    cfg.room = "lab";
    cfg.service_class = "Service/Test";
    svc = &svc_host->add_daemon<SoakDaemon>(cfg);
    EXPECT_TRUE(svc_host->start_all().ok());
  }

  testenv::AceTestEnv env;
  std::unique_ptr<daemon::DaemonHost> svc_host;
  SoakDaemon* svc = nullptr;
};

// Connect/close churn under call load: callers hammer one destination
// through a shared client while a churner keeps killing the cached channel
// and raw connections handshake and die mid-stream. Run under TSan (ci.sh
// tsan) this exercises pump teardown, demux replacement, the async
// handshake registry and actor reaping for races; the assertions
// themselves check no call is lost or misrouted.
TEST(ReactorSoak, ConnectCloseChurnUnderLoad) {
  SoakFixture f;
  const net::Address addr = f.svc->address();
  auto client = f.env.make_client("ap", "user/soak");
  client->set_breaker_policy({.failure_threshold = 0});  // retry, don't fast-fail

  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 400;
  std::atomic<int> successes{0}, mismatches{0};
  std::atomic<bool> done{false};

  // Churner 1: rips the cached channel out from under the callers. Calls
  // in flight fail and retry; each replacement channel re-registers a
  // fresh demux pump.
  std::jthread channel_churn([&] {
    while (!done.load()) {
      client->drop_connection(addr);
      std::this_thread::sleep_for(1ms);
    }
  });

  // Churner 2: raw connections that handshake and immediately die, so the
  // daemon's async-handshake registry and actor teardown stay busy while
  // real traffic flows.
  std::jthread conn_churn([&] {
    auto& host = f.env.env.network().add_host("churn");
    auto identity = f.env.env.issue_identity("user/churn");
    int i = 0;
    while (!done.load()) {
      auto conn = host.connect(addr);
      if (conn.ok()) {
        if (i++ % 2 == 0) {
          conn->close();  // die before the handshake completes
        } else {
          auto ch = testenv::Handshake::connect(
                        f.env.env.reactor(), std::move(*conn), identity,
                        f.env.env.ca_key(), 500ms,
                        f.env.env.channel_options())
                        .result();
          if (ch.ok()) ch->close();
        }
      }
      std::this_thread::sleep_for(1ms);
    }
  });

  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        for (int i = 0; i < kCallsPerCaller; ++i) {
          const std::string text =
              "t" + std::to_string(t) + "-i" + std::to_string(i);
          CmdLine cmd("echo");
          cmd.arg("text", text);
          daemon::CallOptions opts;
          opts.retries = 8;  // churn makes individual attempts fail often
          opts.require_ok = true;
          opts.backoff = 1ms;
          auto reply = client->call(addr, cmd, opts);
          if (!reply.ok())
            continue;  // churn can exhaust retries; counted via successes
          successes++;
          if (reply->get_text("text") != text) mismatches++;
        }
      });
    }
  }
  done = true;
  channel_churn.join();
  conn_churn.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Availability under this churn depends on machine speed (sanitizers
  // slow attempts ~15x, so more calls run out of retries); correctness
  // does not. Require enough successes to prove the path was exercised,
  // and that every success carried the right payload with nothing leaked.
  EXPECT_GE(successes.load(), kCallers * kCallsPerCaller / 20);
  EXPECT_EQ(gauge_value(f.env.env.metrics(), "client.inflight"), 0);
}

// Regression: a destination's demux state, once torn down, is
// transparently re-created by the next call.
TEST(ReactorSoak, DroppedDemuxIsRecreated) {
  SoakFixture f;
  const net::Address addr = f.svc->address();
  auto client = f.env.make_client("ap", "user/drop");
  auto& metrics = f.env.env.metrics();

  CmdLine cmd("echo");
  cmd.arg("text", "hi");
  auto reply = client->call(addr, cmd, daemon::kCallOk);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  const auto connects_before = counter_value(metrics, "net.connects");

  client->drop_connection(addr);

  // The next call must re-create the whole per-destination state — a new
  // connection, handshake and demux pump — and still route its reply.
  reply = client->call(addr, cmd, daemon::kCallOk);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply->get_text("text"), "hi");
  EXPECT_GT(counter_value(metrics, "net.connects"), connects_before);
  EXPECT_EQ(gauge_value(metrics, "client.inflight"), 0);
}

// Every periodic duty and every replication flush rides the reactor: a
// deployment with a replicated durable store, a Robustness Manager and a
// sampling HRM runs no thread outside the reactor's pools — core workers,
// live ops workers and the timer thread, which is what the reactor.threads
// gauge counts.
TEST(ReactorSoak, DeploymentRunsNoThreadOutsideReactor) {
  // Threads that predate the deployment: the test's own, plus a
  // sanitizer's helper thread where one runs. An earlier test's threads
  // may still be exiting, so wait (2 s at most) until the count has not
  // fallen for 100 ms.
  int baseline = process_threads();
  const auto cap = std::chrono::steady_clock::now() + 2s;
  auto quiet_since = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() < cap &&
         std::chrono::steady_clock::now() - quiet_since < 100ms) {
    std::this_thread::sleep_for(5ms);
    if (const int now = process_threads(); now < baseline) {
      baseline = now;
      quiet_since = std::chrono::steady_clock::now();
    }
  }
  testenv::AceTestEnv env(93);
  ASSERT_TRUE(env.start().ok());

  std::vector<std::unique_ptr<daemon::DaemonHost>> hosts;
  std::vector<store::PersistentStoreDaemon*> replicas;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(std::make_unique<daemon::DaemonHost>(
        env.env, "store" + std::to_string(i + 1)));
    store::StoreOptions opts;
    opts.disk = std::make_shared<io::SimDisk>(700 + i);
    daemon::DaemonConfig c;
    c.name = "store" + std::to_string(i + 1);
    c.room = "machine-room";
    c.port = 6000;
    replicas.push_back(
        &hosts.back()->add_daemon<store::PersistentStoreDaemon>(c, i + 1, opts));
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<net::Address> peers;
    for (int j = 0; j < 3; ++j)
      if (j != i) peers.push_back(replicas[j]->address());
    replicas[i]->set_peers(peers);
    ASSERT_TRUE(replicas[i]->start().ok());
  }
  // A few puts through every coordinator, so every batcher lane exists.
  for (auto* r : replicas) {
    for (int k = 0; k < 3; ++k) {
      CmdLine put("storePut");
      put.arg("key", "threads/" + std::to_string(k))
          .arg("data", util::hex_encode(util::to_bytes("v")));
      ASSERT_TRUE(cmdlang::is_ok(r->execute(put, daemon::CallerInfo{})));
    }
  }

  hosts.push_back(std::make_unique<daemon::DaemonHost>(env.env, "mgmt"));
  daemon::DaemonConfig rm_config;
  rm_config.name = "rm";
  rm_config.room = "machine-room";
  auto& rm = hosts.back()->add_daemon<store::RobustnessManagerDaemon>(rm_config);
  ASSERT_TRUE(rm.start().ok());
  ASSERT_TRUE(rm.watch_asd().ok());
  daemon::DaemonConfig hrm_config;
  hrm_config.name = "hrm";
  hrm_config.room = "machine-room";
  auto& hrm = hosts.back()->add_daemon<services::HrmDaemon>(
      hrm_config, services::HrmOptions{.sample_period = 50ms});
  ASSERT_TRUE(hrm.start().ok());

  auto client = env.make_client("ap", "user/threads");
  ASSERT_TRUE(
      client->call(replicas[0]->address(), CmdLine("ping"), daemon::kCallOk)
          .ok());

  // Ops workers come and go with load, so compare the two counts until
  // they are read at a quiet moment.
  int threads = 0;
  std::int64_t reactor_threads = 0;
  EXPECT_TRUE(eventually([&] {
    reactor_threads = gauge_value(env.env.metrics(), "reactor.threads");
    threads = process_threads();
    return threads == baseline + reactor_threads;
  })) << "process threads " << threads << ", before the deployment "
      << baseline << ", reactor.threads " << reactor_threads;
}

// Thread count is a function of the reactor pools, not of how many
// endpoints are registered: parking hundreds of pumps on one reactor adds
// zero threads.
TEST(ReactorSoak, ThreadCountIndependentOfEndpointCount) {
  net::Network network;
  net::Reactor reactor;
  net::Host& server = network.add_host("server");
  auto listener = server.listen(100);
  ASSERT_TRUE(listener.ok());

  const int threads_before = reactor.stats().core_threads;

  std::mutex mu;
  std::vector<std::shared_ptr<net::Connection>> server_side;
  std::vector<net::Subscription> pumps;
  std::atomic<int> delivered{0};
  auto accept_sub = (*listener)->on_accept(
      reactor, [&](std::optional<net::Connection> conn) {
        if (!conn) return;
        auto shared = std::make_shared<net::Connection>(std::move(*conn));
        auto pump = shared->on_frame(
            reactor, [&](std::optional<net::Frame> frame) {
              if (frame) delivered++;
            });
        std::scoped_lock lock(mu);
        server_side.push_back(std::move(shared));
        pumps.push_back(std::move(pump));
      });

  constexpr int kConns = 400;
  std::vector<net::Connection> clients;
  net::Host& origin = network.add_host("origin");
  for (int i = 0; i < kConns; ++i) {
    auto conn = origin.connect({"server", 100});
    ASSERT_TRUE(conn.ok());
    clients.push_back(std::move(*conn));
  }
  EXPECT_TRUE(eventually([&] {
    std::scoped_lock lock(mu);
    return server_side.size() == kConns;
  }));

  for (auto& c : clients) ASSERT_TRUE(c.send(util::to_bytes("ping")).ok());
  EXPECT_TRUE(eventually([&] { return delivered.load() == kConns; }));

  auto stats = reactor.stats();
  EXPECT_EQ(stats.core_threads, threads_before);  // no per-endpoint threads
  for (auto& c : clients) c.close();
  accept_sub.stop();
  for (auto& p : pumps) p.stop();
}

}  // namespace

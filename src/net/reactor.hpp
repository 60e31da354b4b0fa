// net::Reactor — the event loop at the heart of the fabric.
//
// The paper's §2.1.1 daemon spends threads freely: one per accepted
// connection, one per client destination, one per host for leases. That was
// right for a campus LAN and caps a process at a few thousand endpoints.
// The reactor inverts the structure (the rotor/actor shape syncspirit
// uses): connections become *state machines* driven by readiness callbacks,
// and the process runs O(pool) threads regardless of connection count.
//
// Readiness on the simulated substrate is queue non-emptiness: every
// Connection/Listener/DatagramSocket endpoint is backed by a
// util::MessageQueue, and the queue's signal hook (set_signal) is the
// epoll-edge equivalent. attach_queue() below turns a queue plus a handler
// into a serialized pump: items are delivered one at a time, in order, on a
// reactor worker, with a final handler(std::nullopt) exactly once when the
// queue is closed and drained.
//
// Two worker tiers:
//  * core workers — a small fixed pool for transport work (frame pumps,
//    handshake steps, reply demux, and a daemon's nonblocking commands
//    when their lane is idle). Core tasks must never block; this is what
//    guarantees the fabric keeps moving no matter what services do.
//    expect_may_block() below turns the rule into a machine check.
//  * ops workers — an elastic pool (grown on demand, idled away) for
//    service work that may block: command handlers doing nested RPCs
//    (store quorum fan-out, credential fetches), notification fan-out,
//    periodic duties. Blocking here can never starve transport.
//
// Timers: post_after/post_at run a task later; cancel() unarms it. The
// pumps use timers to model link latency (a frame is not readable before
// its deliver_at). PeriodicTask turns a timer into a repeating duty.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/queue.hpp"

namespace ace::net {

class Reactor;

namespace detail {
struct SubCore;
}  // namespace detail

// "Core tasks never block", machine-checked. Reactor::core_loop marks its
// thread, and expect_may_block(site) aborts naming `site` when called on a
// marked thread. Every wait on another thread's progress in src/ calls it
// first. Compiled in only when ACE_CHECK_NEVER_BLOCK is defined (Debug
// and sanitizer builds, src/net/CMakeLists.txt); elsewhere it costs nothing.
#ifdef ACE_CHECK_NEVER_BLOCK
inline constexpr bool kNeverBlockChecked = true;
void expect_may_block(const char* site);
#else
inline constexpr bool kNeverBlockChecked = false;
inline void expect_may_block(const char*) {}
#endif

// Handle to one queue pump created by attach_queue(). Dropping the handle
// does NOT stop the pump (the queue keeps it alive); call stop() to detach
// deterministically. stop() waits for an in-flight handler invocation to
// finish — unless called from inside that handler, which is allowed and
// returns immediately (the pump halts once the handler returns). That is
// how an owner ends its deferred work: once stop() returns, a handler that
// captured the owner by raw pointer never runs again.
class Subscription {
 public:
  Subscription() = default;
  explicit Subscription(std::shared_ptr<detail::SubCore> core)
      : core_(std::move(core)) {}

  // True until the pump stopped (explicitly or by delivering its final
  // std::nullopt).
  bool active() const;

  // Halts delivery. Idempotent. After return (from outside the handler) no
  // handler invocation is running or will run.
  void stop();

 private:
  std::shared_ptr<detail::SubCore> core_;
};

// A repeating task on the ops pool; every periodic duty runs on one. Ticks
// never overlap: the next is armed `period` after the previous returns.
// start() arms the chain (first tick at once or after one period) and
// re-arms an armed one from now, also from inside a tick. stop() unarms it
// and waits out a running tick, except from inside that tick, and beats a
// start() that tick makes meanwhile. A stopped chain can start again; on
// a stopping reactor it stays disarmed. The reactor must outlive the task.
// docs/net.md §1 has the contract.
//
// The one rule for callers: never call stop() while holding a lock the
// tick takes — stop() waits for the tick, and the tick for the lock.
// start() never waits, so it may run under such a lock.
class PeriodicTask {
 public:
  PeriodicTask(Reactor& reactor, std::function<void()> tick);
  ~PeriodicTask();  // stop()

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start(std::chrono::steady_clock::duration period, bool at_once = false);
  void stop();

 private:
  struct Core;
  std::shared_ptr<Core> core_;
};

class Reactor {
 public:
  using Task = std::function<void()>;
  using Clock = std::chrono::steady_clock;
  using TimerId = std::uint64_t;

  struct Options {
    // Fixed transport pool. Small on purpose: core tasks never block, so
    // width buys parallelism, not liveness.
    int core_workers = 2;
    // Elastic blocking pool: at least `ops_min` workers while the reactor
    // runs, growing up to `ops_max` when every worker is busy and work is
    // queued, shrinking back after kOpsIdle (reactor.cpp) without work.
    int ops_min = 2;
    int ops_max = 256;
  };

  struct Stats {
    std::uint64_t tasks_run = 0;
    std::uint64_t blocking_tasks_run = 0;
    std::uint64_t timers_fired = 0;
    std::uint64_t ops_spawned = 0;
    int core_threads = 0;
    int ops_threads = 0;
  };

  // Counters land in `metrics` under `reactor.*` names (the Environment
  // wires its own in); without a registry the reactor owns a private one.
  // stats() reads the same cells.
  Reactor() : Reactor(Options{}, nullptr) {}
  explicit Reactor(obs::MetricsRegistry* metrics)
      : Reactor(Options{}, metrics) {}
  explicit Reactor(Options options, obs::MetricsRegistry* metrics = nullptr);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Schedules a task on the core (transport) pool. The task must not
  // block. Dropped silently once the reactor is stopping.
  void post(Task task);

  // Schedules a task on the elastic ops pool; blocking (bounded — e.g. an
  // RPC with a timeout) is allowed there.
  void post_blocking(Task task);

  // Runs `task` at/after the given time on the chosen pool. Returns an id
  // for cancel(); 0 when the reactor is stopping (never fires).
  TimerId post_at(Clock::time_point at, Task task, bool blocking = false);
  TimerId post_after(Clock::duration delay, Task task, bool blocking = false);

  // Unarms a pending timer. False if it already fired (or id is 0/unknown);
  // the task may still be running or queued in that case.
  bool cancel(TimerId id);

  // Stops all pools and the timer thread; queued work is dropped. Called
  // by the destructor; safe to call twice.
  void stop();

  Stats stats() const;

 private:
  struct TimerEntry {
    TimerId id = 0;
    Task task;
    bool blocking = false;
  };
  struct OpsWorker {
    std::jthread thread;
    bool exited = false;
  };

  void core_loop();
  void ops_loop(OpsWorker* self);
  void timer_loop();
  void spawn_ops_locked();
  void reap_ops_locked(std::vector<std::unique_ptr<OpsWorker>>& out);

  Options options_;

  util::MessageQueue<Task> core_queue_;
  std::vector<std::jthread> core_workers_;

  mutable std::mutex ops_mu_;
  std::condition_variable ops_cv_;
  std::deque<Task> ops_queue_;
  int ops_idle_count_ = 0;
  int ops_live_ = 0;
  bool stopping_ = false;
  std::vector<std::unique_ptr<OpsWorker>> ops_workers_;

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  bool timer_stop_ = false;
  std::multimap<Clock::time_point, TimerEntry> timers_;
  std::map<TimerId, std::multimap<Clock::time_point, TimerEntry>::iterator>
      timer_index_;
  TimerId next_timer_id_ = 1;
  std::jthread timer_thread_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // no registry given
  // Cells in the given registry or in owned_metrics_; the constructor sets
  // them, and they are never null after it.
  obs::Counter* obs_tasks_ = nullptr;
  obs::Counter* obs_blocking_tasks_ = nullptr;
  obs::Counter* obs_timers_ = nullptr;
  obs::Counter* obs_ops_spawned_ = nullptr;
  obs::Gauge* obs_threads_ = nullptr;
};

namespace detail {

// The pump protocol state shared between the queue's signal hook, the
// drain tasks, and the Subscription handle. Ownership: the queue's signal
// closure and any in-flight drain task hold shared_ptrs; `step`/`has_work`
// capture the queue and handler but never the core, so there is no cycle
// (they are cleared at the terminal states to release handler captures,
// also when the reactor refuses or drops the pump's drain or due timer).
struct SubCore {
  std::mutex mu;
  std::condition_variable cv;
  bool scheduled = false;    // a drain task is queued/running or a due-timer armed
  bool stopped = false;
  bool in_handler = false;
  std::thread::id handler_thread{};
  Reactor::TimerId due_timer = 0;
  // Drain and due-timer tasks alive (PumpHold, reactor.cpp).
  std::atomic<int> holds{0};
  Reactor* reactor = nullptr;
  bool blocking = false;

  struct StepResult {
    enum Kind { kItem, kEmpty, kNotDue, kFinal } kind = kEmpty;
    Reactor::Clock::time_point due{};
  };
  // Pops and dispatches at most one ready item (or the final nullopt).
  std::function<StepResult()> step;
  // True when the queue has items or is closed (i.e. a drain would do
  // something). Used to re-check after an empty drain cleared `scheduled`,
  // closing the push-vs-unschedule race window.
  std::function<bool()> has_work;
};

void pump_signal(const std::shared_ptr<SubCore>& core);
void pump_drain(const std::shared_ptr<SubCore>& core);

}  // namespace detail

// Per-pump delivery options.
struct AttachOptions {
  // Run the handler on the ops pool (it may block) instead of core.
  bool blocking = false;
};

// Turns `queue` + `handler` into a reactor-driven pump. Delivery is
// serialized and in order; handler(std::nullopt) fires exactly once when
// the queue is closed and drained (terminal). `due`, when supplied, gates
// the head item: it is not delivered before due(item), which is how link
// latency is modelled; pass nullptr for immediate delivery.
//
// One pump per queue at a time (the queue's signal slot is single-owner).
// The queue must outlive the pump's activity: stop the subscription, or see
// the final delivery, before destroying the queue.
template <typename T>
Subscription attach_queue(
    Reactor& reactor, util::MessageQueue<T>& queue,
    std::function<void(std::optional<T>)> handler,
    AttachOptions options = {},
    std::function<Reactor::Clock::time_point(const T&)> due = nullptr) {
  auto core = std::make_shared<detail::SubCore>();
  core->reactor = &reactor;
  core->blocking = options.blocking;
  core->step = [&queue, handler = std::move(handler), due = std::move(due)]() {
    detail::SubCore::StepResult r;
    std::optional<Reactor::Clock::time_point> head_due;
    auto item = queue.try_pop_when([&](const T& head) {
      if (!due) return true;
      auto at = due(head);
      if (at <= Reactor::Clock::now()) return true;
      head_due = at;
      return false;
    });
    if (item) {
      handler(std::move(*item));
      r.kind = detail::SubCore::StepResult::kItem;
      return r;
    }
    if (head_due) {
      r.kind = detail::SubCore::StepResult::kNotDue;
      r.due = *head_due;
      return r;
    }
    if (queue.closed_and_empty()) {
      handler(std::nullopt);  // terminal: the queue may die after this
      r.kind = detail::SubCore::StepResult::kFinal;
      return r;
    }
    return r;  // kEmpty
  };
  core->has_work = [&queue] { return !queue.empty() || queue.closed(); };
  queue.set_signal([core] { detail::pump_signal(core); });
  detail::pump_signal(core);  // drain anything already queued (or closed)
  return Subscription(core);
}

}  // namespace ace::net

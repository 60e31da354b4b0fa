#include "net/reactor.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace ace::net {

#ifdef ACE_CHECK_NEVER_BLOCK
namespace {
thread_local bool t_core_worker = false;  // set by Reactor::core_loop
}  // namespace

void expect_may_block(const char* site) {
  if (!t_core_worker) return;
  std::fprintf(stderr, "ace: core task would block at %s\n", site);
  std::abort();
}
#endif

namespace {
// An ops worker above ops_min retires after this long without work.
constexpr std::chrono::milliseconds kOpsIdle{2000};
}  // namespace

// ------------------------------------------------------------------- Reactor

Reactor::Reactor(Options options, obs::MetricsRegistry* metrics)
    : options_(options),
      owned_metrics_(metrics ? nullptr
                             : std::make_unique<obs::MetricsRegistry>()) {
  if (options_.core_workers < 1) options_.core_workers = 1;
  if (options_.ops_min < 1) options_.ops_min = 1;
  if (options_.ops_max < options_.ops_min) options_.ops_max = options_.ops_min;
  obs::MetricsRegistry& cells = metrics ? *metrics : *owned_metrics_;
  obs_tasks_ = &cells.counter("reactor.tasks");
  obs_blocking_tasks_ = &cells.counter("reactor.blocking_tasks");
  obs_timers_ = &cells.counter("reactor.timers_fired");
  obs_ops_spawned_ = &cells.counter("reactor.ops_spawned");
  obs_threads_ = &cells.gauge("reactor.threads");
  core_workers_.reserve(static_cast<std::size_t>(options_.core_workers));
  for (int i = 0; i < options_.core_workers; ++i)
    core_workers_.emplace_back([this] { core_loop(); });
  {
    std::scoped_lock lock(ops_mu_);
    for (int i = 0; i < options_.ops_min; ++i) spawn_ops_locked();
  }
  timer_thread_ = std::jthread([this] { timer_loop(); });
  obs_threads_->set(options_.core_workers + options_.ops_min + 1);
}

Reactor::~Reactor() { stop(); }

void Reactor::stop() {
  core_queue_.close();  // core workers drain what's queued, then exit
  // Dropped timers and ops tasks die outside the locks: a pump's task
  // frees its handler's captures then (PumpTicket), which may call back.
  std::multimap<Clock::time_point, TimerEntry> dropped_timers;
  std::deque<Task> dropped_ops;
  {
    std::scoped_lock lock(timer_mu_);
    timer_stop_ = true;
    dropped_timers.swap(timers_);
    timer_index_.clear();
  }
  timer_cv_.notify_all();
  timer_thread_ = {};

  std::vector<std::unique_ptr<OpsWorker>> workers;
  {
    std::scoped_lock lock(ops_mu_);
    stopping_ = true;
    dropped_ops.swap(ops_queue_);
    workers.swap(ops_workers_);
  }
  ops_cv_.notify_all();
  dropped_timers.clear();
  dropped_ops.clear();
  workers.clear();  // joins
  core_workers_.clear();
  obs_threads_->set(0);
}

void Reactor::post(Task task) {
  // push fails only when stopping: late transport work is dropped, which
  // is safe because every pump checks its stopped flag before touching
  // anything.
  (void)core_queue_.push(std::move(task));
}

void Reactor::post_blocking(Task task) {
  {
    std::scoped_lock lock(ops_mu_);
    if (stopping_) return;
    ops_queue_.push_back(std::move(task));
    // Every worker busy and room to grow: widen the pool so a burst of
    // blocking handlers does not convoy behind one slow RPC.
    if (ops_idle_count_ == 0 && ops_live_ < options_.ops_max)
      spawn_ops_locked();
  }
  ops_cv_.notify_one();
}

Reactor::TimerId Reactor::post_at(Clock::time_point at, Task task,
                                  bool blocking) {
  bool wake_timer = false;
  TimerId id = 0;
  {
    std::scoped_lock lock(timer_mu_);
    if (timer_stop_) return 0;
    id = next_timer_id_++;
    wake_timer = timers_.empty() || at < timers_.begin()->first;
    auto it = timers_.emplace(at, TimerEntry{id, std::move(task), blocking});
    timer_index_[id] = it;
  }
  if (wake_timer) timer_cv_.notify_all();
  return id;
}

Reactor::TimerId Reactor::post_after(Clock::duration delay, Task task,
                                     bool blocking) {
  return post_at(Clock::now() + delay, std::move(task), blocking);
}

bool Reactor::cancel(TimerId id) {
  if (id == 0) return false;
  Task dropped;  // destroyed after the lock is released
  std::scoped_lock lock(timer_mu_);
  auto it = timer_index_.find(id);
  if (it == timer_index_.end()) return false;
  dropped = std::move(it->second->second.task);
  timers_.erase(it->second);
  timer_index_.erase(it);
  return true;
}

Reactor::Stats Reactor::stats() const {
  Stats s;
  s.tasks_run = obs_tasks_->value();
  s.blocking_tasks_run = obs_blocking_tasks_->value();
  s.timers_fired = obs_timers_->value();
  s.ops_spawned = obs_ops_spawned_->value();
  s.core_threads = static_cast<int>(core_workers_.size());
  {
    std::scoped_lock lock(ops_mu_);
    s.ops_threads = ops_live_;
  }
  return s;
}

void Reactor::core_loop() {
#ifdef ACE_CHECK_NEVER_BLOCK
  t_core_worker = true;
#endif
  while (auto task = core_queue_.pop()) {
    (*task)();
    obs_tasks_->inc();
  }
}

void Reactor::spawn_ops_locked() {
  // Opportunistically reap workers that idled out, so a long-lived reactor
  // doesn't accumulate dead jthreads. Joining happens outside the lock.
  std::vector<std::unique_ptr<OpsWorker>> dead;
  reap_ops_locked(dead);
  auto worker = std::make_unique<OpsWorker>();
  OpsWorker* raw = worker.get();
  ops_workers_.push_back(std::move(worker));
  ++ops_live_;
  obs_ops_spawned_->inc();
  obs_threads_->set(static_cast<int>(core_workers_.size()) + ops_live_ + 1);
  raw->thread = std::jthread([this, raw] { ops_loop(raw); });
  // `dead` joins here as the vector unwinds — those threads have already
  // returned (exited is set on their way out), so this does not stall the
  // caller meaningfully.
}

void Reactor::reap_ops_locked(std::vector<std::unique_ptr<OpsWorker>>& out) {
  std::erase_if(ops_workers_, [&](std::unique_ptr<OpsWorker>& w) {
    if (!w->exited) return false;
    out.push_back(std::move(w));
    return true;
  });
}

void Reactor::ops_loop(OpsWorker* self) {
  std::unique_lock lock(ops_mu_);
  for (;;) {
    while (ops_queue_.empty()) {
      if (stopping_) {
        self->exited = true;
        --ops_live_;
        return;
      }
      ++ops_idle_count_;
      bool got_work = ops_cv_.wait_for(lock, kOpsIdle, [&] {
        return !ops_queue_.empty() || stopping_;
      });
      --ops_idle_count_;
      if (!got_work && ops_live_ > options_.ops_min) {
        // Idled out above the floor: retire. The spawner reaps us later.
        self->exited = true;
        --ops_live_;
        obs_threads_->set(static_cast<int>(core_workers_.size()) +
                          ops_live_ + 1);
        return;
      }
    }
    Task task = std::move(ops_queue_.front());
    ops_queue_.pop_front();
    lock.unlock();
    task();
    task = nullptr;  // its captures die outside ops_mu_
    obs_blocking_tasks_->inc();
    lock.lock();
  }
}

void Reactor::timer_loop() {
  std::unique_lock lock(timer_mu_);
  while (!timer_stop_) {
    if (timers_.empty()) {
      timer_cv_.wait(lock, [&] { return timer_stop_ || !timers_.empty(); });
      continue;
    }
    const auto next = timers_.begin()->first;
    if (Clock::now() < next) {
      timer_cv_.wait_until(lock, next);
      continue;
    }
    TimerEntry entry = std::move(timers_.begin()->second);
    timer_index_.erase(entry.id);
    timers_.erase(timers_.begin());
    lock.unlock();
    obs_timers_->inc();
    if (entry.blocking)
      post_blocking(std::move(entry.task));
    else
      post(std::move(entry.task));
    lock.lock();
  }
}

// -------------------------------------------------------------- Subscription

namespace detail {

namespace {

// A drain's or due timer's hold on its pump, counted in SubCore::holds so
// that posting one allocates nothing. A stopping reactor refuses tasks and
// drops queued ones and armed timers, and then no drain of the pump can
// run: when the last hold of a pump still scheduled dies, the pump ends and
// its handler's captures are freed, outside core->mu. A handler that
// captures the owner of its own queue would keep that owner alive
// otherwise. Holds are taken under core->mu, so the last one's check there
// cannot miss a drain being scheduled; they are never let go of under it
// unless another hold of the pump is alive.
class PumpHold {
 public:
  explicit PumpHold(std::shared_ptr<SubCore> core) : core_(std::move(core)) {
    core_->holds.fetch_add(1, std::memory_order_relaxed);
  }
  PumpHold(const PumpHold& other) : PumpHold(other.core_) {}
  PumpHold(PumpHold&&) = default;
  PumpHold& operator=(const PumpHold&) = delete;
  ~PumpHold() {
    if (!core_ || core_->holds.fetch_sub(1, std::memory_order_acq_rel) != 1)
      return;
    std::function<SubCore::StepResult()> step;  // die after the lock
    std::function<bool()> has_work;
    std::scoped_lock lock(core_->mu);
    if (core_->holds.load(std::memory_order_relaxed) != 0 || !core_->scheduled)
      return;  // a drain ran, or another was scheduled meanwhile
    core_->stopped = true;
    core_->scheduled = false;
    core_->due_timer = 0;
    step.swap(core_->step);
    has_work.swap(core_->has_work);
  }

  const std::shared_ptr<SubCore>& core() const { return core_; }

 private:
  std::shared_ptr<SubCore> core_;
};

void post_drain(PumpHold hold) {
  Reactor& reactor = *hold.core()->reactor;
  const bool blocking = hold.core()->blocking;
  auto drain = [hold = std::move(hold)] { pump_drain(hold.core()); };
  if (blocking)
    reactor.post_blocking(std::move(drain));
  else
    reactor.post(std::move(drain));
}

}  // namespace

// Queue signal hook: ensure exactly one drain is scheduled.
void pump_signal(const std::shared_ptr<SubCore>& core) {
  std::optional<PumpHold> hold;
  {
    std::scoped_lock lock(core->mu);
    if (core->stopped || core->scheduled) return;
    core->scheduled = true;
    hold.emplace(core);
  }
  post_drain(std::move(*hold));
}

void pump_drain(const std::shared_ptr<SubCore>& core) {
  for (;;) {
    {
      std::scoped_lock lock(core->mu);
      if (core->stopped) {
        core->scheduled = false;
        core->step = nullptr;  // release handler captures (breaks cycles)
        core->has_work = nullptr;
        return;
      }
      core->in_handler = true;
      core->handler_thread = std::this_thread::get_id();
    }
    SubCore::StepResult r = core->step();
    std::unique_lock lock(core->mu);
    core->in_handler = false;
    core->cv.notify_all();
    if (core->stopped || r.kind == SubCore::StepResult::kFinal) {
      core->stopped = true;
      core->scheduled = false;
      core->step = nullptr;
      core->has_work = nullptr;
      return;
    }
    switch (r.kind) {
      case SubCore::StepResult::kItem:
        break;  // keep draining
      case SubCore::StepResult::kEmpty: {
        core->scheduled = false;
        // A push may have raced our empty observation and found
        // scheduled still true (its signal no-oped). Re-check with the
        // flag cleared and reclaim the pump if so.
        if (!core->has_work()) return;
        core->scheduled = true;
        break;
      }
      case SubCore::StepResult::kNotDue: {
        // Head not deliverable yet (link latency): keep `scheduled`
        // armed and come back at its due time.
        core->due_timer = core->reactor->post_at(
            r.due,
            [hold = PumpHold(core)] {
              const auto& core = hold.core();
              {
                std::scoped_lock lk(core->mu);
                core->due_timer = 0;
                if (core->stopped) {
                  core->scheduled = false;
                  return;
                }
              }
              post_drain(hold);
            },
            /*blocking=*/false);
        if (core->due_timer == 0) {  // reactor stopping: pump is done
          core->stopped = true;
          core->scheduled = false;
          core->step = nullptr;
          core->has_work = nullptr;
        }
        return;
      }
      default:
        return;
    }
  }
}

}  // namespace detail

bool Subscription::active() const {
  if (!core_) return false;
  std::scoped_lock lock(core_->mu);
  return !core_->stopped;
}

void Subscription::stop() {
  if (!core_) return;
  Reactor::TimerId timer = 0;
  {
    std::unique_lock lock(core_->mu);
    core_->stopped = true;
    timer = std::exchange(core_->due_timer, 0);
    // Wait out an in-flight handler — unless we *are* the handler (a
    // callback stopping its own pump), which must not deadlock on itself.
    core_->cv.wait(lock, [&] {
      return !core_->in_handler ||
             core_->handler_thread == std::this_thread::get_id();
    });
    if (!core_->in_handler) {
      // Safe to release captures now; a queued stale drain will see
      // `stopped` before touching them.
      core_->step = nullptr;
      core_->has_work = nullptr;
    }
    // else: the drain loop we are inside releases them on its way out.
  }
  if (timer != 0 && core_->reactor) core_->reactor->cancel(timer);
}

// -------------------------------------------------------------- PeriodicTask

// Shared with the chain's timer tasks: one that fires after start() re-armed
// the chain, or after stop(), finds a stale `gen` or `armed` unset and
// touches nothing else.
struct PeriodicTask::Core : std::enable_shared_from_this<Core> {
  Core(Reactor& r, std::function<void()> t) : reactor(&r), tick(std::move(t)) {}

  Reactor* reactor;
  std::function<void()> tick;
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;
  std::uint64_t gen = 0;  // bumped by every arm
  Reactor::TimerId timer = 0;
  Reactor::Clock::duration period{};
  bool running = false;
  std::thread::id tick_thread{};
  // start() during a tick: the next tick's due time, armed once the tick
  // returns so that ticks never overlap.
  std::optional<Reactor::Clock::time_point> rearm_at;
  int outside_stoppers = 0;  // stop() calls waiting out the running tick

  void arm_locked(Reactor::Clock::time_point at) {
    const std::uint64_t g = ++gen;
    timer = reactor->post_at(
        at, [self = shared_from_this(), g] { self->fire(g); },
        /*blocking=*/true);
    armed = timer != 0;  // a stopping reactor refuses the timer
  }

  void fire(std::uint64_t g) {
    {
      std::scoped_lock lock(mu);
      if (g != gen || !armed) return;
      timer = 0;
      running = true;
      tick_thread = std::this_thread::get_id();
    }
    tick();
    std::scoped_lock lock(mu);
    running = false;
    if (armed && outside_stoppers == 0)
      arm_locked(rearm_at.value_or(Reactor::Clock::now() + period));
    else
      armed = false;
    rearm_at.reset();
    cv.notify_all();
  }
};

PeriodicTask::PeriodicTask(Reactor& reactor, std::function<void()> tick)
    : core_(std::make_shared<Core>(reactor, std::move(tick))) {}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start(std::chrono::steady_clock::duration period,
                         bool at_once) {
  std::scoped_lock lock(core_->mu);
  const auto at = Reactor::Clock::now() + (at_once ? period.zero() : period);
  core_->period = period;
  core_->armed = true;
  if (core_->running) {
    core_->rearm_at = at;
    return;
  }
  core_->reactor->cancel(std::exchange(core_->timer, 0));
  core_->arm_locked(at);
}

void PeriodicTask::stop() {
  expect_may_block("PeriodicTask::stop");
  std::unique_lock lock(core_->mu);
  core_->armed = false;
  core_->rearm_at.reset();
  core_->reactor->cancel(std::exchange(core_->timer, 0));
  if (!core_->running || core_->tick_thread == std::this_thread::get_id())
    return;
  ++core_->outside_stoppers;
  core_->cv.wait(lock, [&] { return !core_->running; });
  --core_->outside_stoppers;
}

}  // namespace ace::net

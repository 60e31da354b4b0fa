// Outbox — a daemon's outbound lanes, one per destination.
//
// The paper's daemon passes work between its roles over "message queues
// that trigger actions" (§2.1.1); an Outbox is that shape for traffic a
// daemon sends out. Each destination gets a *lane*. A lane with no
// shipment in flight ships a pushed item at once, on the pushing thread:
// `ship` starts the shipment and returns without waiting for it, and the
// shipment's `Settled` is called once it is over (acked, failed or timed
// out), on whatever thread that happens. Items pushed while a shipment is
// in flight wait in the lane and leave together as the next shipment when
// it settles: group commit, with the shipment in flight as the coalescing
// window. Within a lane items ship in push order; lanes are independent,
// so a destination that never settles holds up only its own items.
//
// Since push() may ship before it returns, and a settlement may ship the
// next batch, never push under a lock that `ship` or a settlement takes.
// Nothing here holds the outbox's own lock across `ship`.
//
// An Outbox is open for one life of its owner, from open() to close(). The
// daemon's notification fan-out and the store's replication each ship
// through one (docs/net.md §3).
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/reactor.hpp"

namespace ace::daemon {

template <typename T>
class Outbox {
  struct Lane {
    std::vector<T> queued;  // pushed while a shipment is in flight
    bool in_flight = false;
    // A thread is inside `ship` for this lane. A shipment that settles
    // meanwhile, on any thread, leaves the next batch to that thread, so
    // one thread at a time owns a lane, and a lane whose shipments settle
    // at once loops instead of recursing.
    bool shipping = false;
    bool settled_early = false;
  };

 public:
  // One shipment's end: call it exactly once, from any thread, when the
  // shipment is over. It may ship the lane's next batch before it returns.
  class Settled {
   public:
    void operator()() const { outbox_->settle(*to_, *lane_); }

   private:
    friend class Outbox;
    Settled(Outbox* outbox, const net::Address* to, Lane* lane)
        : outbox_(outbox), to_(to), lane_(lane) {}
    Outbox* outbox_;
    const net::Address* to_;
    Lane* lane_;
  };

  // Starts shipping one batch to one destination and returns without
  // waiting for it; never blocks.
  using Ship = std::function<void(const net::Address& to, std::vector<T> batch,
                                  Settled settled)>;

  Outbox() = default;  // closed
  ~Outbox() { (void)close(); }

  Outbox(const Outbox&) = delete;
  Outbox& operator=(const Outbox&) = delete;

  // Accepts items until close(), shipping them through `ship`.
  void open(Ship ship) {
    std::scoped_lock lock(mu_);
    ship_ = std::move(ship);
    open_ = true;
  }

  // Queues `item` on the lane of `to`, shipping it at once when the lane
  // is idle. Moves from `item` only when it returns true: on a closed
  // outbox it returns false, and the item stays with the caller.
  bool push(const net::Address& to, T&& item) {
    std::vector<T> batch;
    const net::Address* key;
    Lane* lane;
    {
      std::scoped_lock lock(mu_);
      if (!open_) return false;
      auto it = lanes_.try_emplace(to).first;
      key = &it->first;
      lane = &it->second;
      if (lane->in_flight) {
        lane->queued.push_back(std::move(item));
        return true;
      }
      lane->in_flight = true;
      ++in_flight_;
      batch.push_back(std::move(item));
    }
    run(*key, *lane, std::move(batch));
    return true;
  }

  // Refuses further items, takes the items still queued, waits until the
  // shipments in flight have settled, and returns what it took, each
  // lane's in push order. Idempotent. Never call it from `ship` or a
  // settlement, nor under a lock either takes.
  std::vector<T> close() {
    net::expect_may_block("Outbox::close");
    std::vector<T> left;
    std::unique_lock lock(mu_);
    open_ = false;
    for (auto& [to, lane] : lanes_) {
      for (T& item : lane.queued) left.push_back(std::move(item));
      lane.queued.clear();
    }
    settled_cv_.wait(lock, [&] { return in_flight_ == 0; });
    lanes_.clear();
    ship_ = nullptr;
    return left;
  }

 private:
  // Ships `batch` on `lane`, and the batches queued behind it for as long
  // as each settles before `ship` returns.
  void run(const net::Address& to, Lane& lane, std::vector<T> batch) {
    for (;;) {
      {
        std::scoped_lock lock(mu_);
        lane.shipping = true;
        lane.settled_early = false;
      }
      ship_(to, std::move(batch), Settled(this, &to, &lane));
      std::scoped_lock lock(mu_);
      lane.shipping = false;
      // Still in flight: its settlement takes the lane on from here.
      if (!lane.settled_early || !next_locked(lane, batch)) return;
    }
  }

  void settle(const net::Address& to, Lane& lane) {
    std::vector<T> batch;
    {
      std::scoped_lock lock(mu_);
      if (lane.shipping) {
        lane.settled_early = true;  // the thread in `ship` carries on
        return;
      }
      if (!next_locked(lane, batch)) return;
    }
    run(to, lane, std::move(batch));
  }

  // Takes the lane's next batch, or marks it idle and returns false. The
  // last lane to go idle lets close() on: touch nothing after that.
  bool next_locked(Lane& lane, std::vector<T>& batch) {
    if (open_ && !lane.queued.empty()) {
      batch = std::move(lane.queued);
      lane.queued.clear();
      return true;
    }
    lane.in_flight = false;
    if (--in_flight_ == 0) settled_cv_.notify_all();
    return false;
  }

  std::mutex mu_;
  std::condition_variable settled_cv_;
  bool open_ = false;
  Ship ship_;  // set while open, and until the last shipment settles
  std::map<net::Address, Lane> lanes_;
  int in_flight_ = 0;  // lanes with a shipment in flight
};

}  // namespace ace::daemon

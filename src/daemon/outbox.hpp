// Outbox — a daemon's outbound lanes, one per destination.
//
// The paper's daemon passes work between its roles over "message queues
// that trigger actions" (§2.1.1); an Outbox is that shape for traffic a
// daemon sends out. Each destination gets a *lane*: a util::MessageQueue
// drained by an attach_queue pump on the reactor's ops pool, since
// shipping may connect, handshake or wait out a round trip. The pump hands
// `ship` the item that woke the lane together with everything queued
// behind it, so items pushed while a shipment is in flight leave together
// in the next one: group commit, with the shipment in flight as the
// coalescing window. Within a lane items ship in push order; lanes are
// independent, so a destination that stalls holds up only its own items.
//
// An Outbox is open for one life of its owner, from open() to close(). The
// daemon's notification fan-out and the store's replication each ship
// through one (docs/net.md §3).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/reactor.hpp"
#include "util/queue.hpp"

namespace ace::daemon {

template <typename T>
class Outbox {
 public:
  // Ships one batch to one destination, on that destination's pump.
  using Ship =
      std::function<void(const net::Address& to, std::vector<T> batch)>;

  Outbox() = default;  // closed
  ~Outbox() { (void)close(); }

  Outbox(const Outbox&) = delete;
  Outbox& operator=(const Outbox&) = delete;

  // Accepts items until close(), shipping them through `ship` from pumps
  // on the ops pool of `reactor`.
  void open(net::Reactor& reactor, Ship ship) {
    std::scoped_lock lock(mu_);
    reactor_ = &reactor;
    ship_ = std::move(ship);
  }

  // Queues `item` on the lane of `to`; never blocks on the network. Moves
  // from `item` only when it returns true: on a closed outbox it returns
  // false, and the item stays with the caller.
  bool push(const net::Address& to, T&& item) {
    std::scoped_lock lock(mu_);
    if (!reactor_) return false;
    std::unique_ptr<Lane>& lane = lanes_[to];
    if (!lane) {
      lane = std::make_unique<Lane>();
      // By raw pointer: a handler that owned its own queue would keep the
      // lane alive. close() stops the pump before the lane dies.
      lane->pump = net::attach_queue<T>(
          *reactor_, lane->queue,
          [ship = ship_, to, raw = lane.get()](std::optional<T> first) {
            if (!first) return;
            std::vector<T> batch;
            batch.push_back(std::move(*first));
            while (auto next =
                       raw->queue.try_pop_when([](const T&) { return true; }))
              batch.push_back(std::move(*next));
            ship(to, std::move(batch));
          },
          {.blocking = true});
    }
    // Cannot fail: close() closes a lane's queue only once the lane has
    // left lanes_, and the queue is unbounded.
    (void)lane->queue.push(std::move(item));
    return true;
  }

  // Stops every lane's pump, waiting out a shipment in flight, and returns
  // the items still queued, each lane's in push order. Idempotent. Never
  // call it from `ship`, nor under a lock `ship` takes.
  std::vector<T> close() {
    net::expect_may_block("Outbox::close");
    std::map<net::Address, std::unique_ptr<Lane>> lanes;
    {
      std::scoped_lock lock(mu_);
      reactor_ = nullptr;
      ship_ = nullptr;
      lanes.swap(lanes_);
    }
    std::vector<T> left;
    for (auto& [to, lane] : lanes) {
      lane->pump.stop();
      lane->queue.close();
      while (auto item = lane->queue.pop()) left.push_back(std::move(*item));
    }
    return left;
  }

 private:
  struct Lane {
    util::MessageQueue<T> queue;
    net::Subscription pump;
  };

  std::mutex mu_;
  net::Reactor* reactor_ = nullptr;  // null while closed
  Ship ship_;
  std::map<net::Address, std::unique_ptr<Lane>> lanes_;
};

}  // namespace ace::daemon

// Group commit for store replication: a per-peer batcher that coalesces
// concurrent replicated writes into one framed `storeReplicateBatch` RPC
// per peer per flush, riding the pipelined channel. Every record one
// replica pushes to another goes through it: ordinary fan-out, sloppy
// stand-in hand-offs, hint drains and read repairs.
//
// Each destination replica gets a *lane*: a queue drained by a pump on the
// reactor's ops pool. Writers enqueue an opaque record and receive a
// Pending handle to await the replica's acknowledgement, or hand submit()
// a callback to run when it settles. The pump takes the first record with
// everything queued behind it and ships them as one RPC; records arriving
// while it is in flight form the next batch — classic group commit, the
// in-flight round trip being the coalescing window.
//
// A batch either lands whole (the peer applies every record; LWW apply
// cannot fail per-record) or fails whole (transport error / timeout), so
// one reply settles every record in the flight. Every record settles:
// when its batch's reply or timeout comes back, or at close().
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "daemon/client.hpp"
#include "net/reactor.hpp"
#include "obs/metrics.hpp"
#include "util/queue.hpp"

namespace ace::store {

class ReplicationBatcher {
 public:
  // One record awaiting its batch acknowledgement.
  class Pending {
   public:
    // Blocks until the record's batch settles or `deadline` passes;
    // returns true iff the batch was acknowledged in time.
    bool wait_until(std::chrono::steady_clock::time_point deadline);
    // Blocks until the record's batch settles; true iff acknowledged.
    bool wait();

   private:
    friend class ReplicationBatcher;
    void settle(bool ok);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    bool ok_ = false;
  };

  // Built closed. Each batch RPC waits at most `call_timeout`.
  ReplicationBatcher(obs::MetricsRegistry& metrics,
                     std::chrono::milliseconds call_timeout);
  ~ReplicationBatcher();  // close()

  ReplicationBatcher(const ReplicationBatcher&) = delete;
  ReplicationBatcher& operator=(const ReplicationBatcher&) = delete;

  // Accepts records until close(), shipping them through `client` from
  // pumps on the ops pool of its reactor. The store daemon opens its
  // batcher in each on_start, on the client it keeps for its whole life.
  void open(daemon::AceClient& client);

  // Enqueues a record for `peer`; never blocks on the network. `then`, if
  // given, runs once with whether the peer acknowledged the record: on the
  // lane's pump after its batch's reply or timeout, or inside close(), and
  // never after close() returns. While the batcher is closed the record
  // settles as failed at once, `then` inside submit().
  std::shared_ptr<Pending> submit(const net::Address& peer,
                                  std::string record,
                                  std::function<void(bool acked)> then = {});

  // Stops every lane's pump, waiting out a batch in flight, and fails the
  // records still queued. Idempotent. Called from the store daemon's
  // on_stop/on_crash, where command handlers may still be racing in; never
  // from a `then`.
  void close();

 private:
  struct Item {
    std::string record;
    std::shared_ptr<Pending> pending;
    std::function<void(bool)> then;
  };
  struct Lane {
    util::MessageQueue<Item> queue;
    net::Subscription pump;
  };

  // The lane's handler: ships `first` and every record queued behind it as
  // one batch.
  void ship(daemon::AceClient& client, const net::Address& peer, Lane& lane,
            Item first);
  static void settle(Item& item, bool acked);

  std::chrono::milliseconds call_timeout_;

  std::mutex mu_;
  daemon::AceClient* client_ = nullptr;  // null while closed
  std::map<net::Address, std::unique_ptr<Lane>> lanes_;

  obs::Counter* obs_flushes_;
  obs::Counter* obs_records_;
};

}  // namespace ace::store

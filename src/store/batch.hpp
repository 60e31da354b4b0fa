// Group commit for store replication: a per-peer batcher that coalesces
// concurrent replicated writes into one framed `storeReplicateBatch` RPC
// per peer per flush, riding the pipelined channel. Every record one
// replica pushes to another goes through it: ordinary fan-out, sloppy
// stand-in hand-offs, hint drains and read repairs.
//
// Each destination replica gets a *lane*: a queue plus a flush-in-flight
// flag. Writers enqueue an opaque record and receive a Pending handle to
// await the replica's acknowledgement. A record that finds its lane idle
// posts one flush task to the reactor ops pool, which ships the queue and
// every record that piled up behind its RPC until the lane is empty —
// classic group commit, the in-flight round trip being the coalescing
// window.
//
// A batch either lands whole (the peer applies every record; LWW apply
// cannot fail per-record) or fails whole (transport error / timeout), so
// one reply settles every Pending in the flight. Every record settles:
// when its batch's reply or timeout comes back, or at close().
#pragma once

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "daemon/client.hpp"
#include "net/reactor.hpp"
#include "obs/metrics.hpp"

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

  // Accepts records until close(), shipping them through `client` with
  // flushes on the ops pool of its reactor. The store daemon opens its
  // batcher in each on_start, on the client it keeps for its whole life.
  void open(daemon::AceClient& client);

  // Enqueues a record for `peer`; never blocks on the network. While the
  // batcher is closed the returned handle is already settled as failed.
  std::shared_ptr<Pending> submit(const net::Address& peer,
                                  std::string record);

  // Revokes the flush tasks (waiting out those in flight) and fails every
  // queued record. Idempotent. Called from the store daemon's
  // on_stop/on_crash, where command handlers may still be racing in.
  void close();

 private:
  struct Item {
    std::string record;
    std::shared_ptr<Pending> pending;
  };
  struct Lane {
    std::vector<Item> queue;
    bool flushing = false;  // a flush task owns the lane
  };

  // The lane's flush task: ships its queue, batch after batch, until it
  // finds the queue empty (or the batcher closed).
  void flush(daemon::AceClient& client, const net::Address& peer);

  std::chrono::milliseconds call_timeout_;

  std::mutex mu_;
  daemon::AceClient* client_ = nullptr;  // null while closed
  net::TaskGuard flushes_;               // this opening's flush tasks
  std::map<net::Address, Lane> lanes_;

  obs::Counter* obs_flushes_;
  obs::Counter* obs_records_;
};

}  // namespace ace::store

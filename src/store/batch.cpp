#include "store/batch.hpp"

#include <utility>

#include "cmdlang/value.hpp"
#include "daemon/wire.hpp"

namespace ace::store {

using std::chrono::steady_clock;

bool ReplicationBatcher::Pending::wait_until(steady_clock::time_point deadline) {
  net::expect_may_block("ReplicationBatcher::Pending::wait_until");
  std::unique_lock lock(mu_);
  cv_.wait_until(lock, deadline, [this] { return done_; });
  return done_ && ok_;
}

bool ReplicationBatcher::Pending::wait() {
  net::expect_may_block("ReplicationBatcher::Pending::wait");
  std::unique_lock lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return ok_;
}

void ReplicationBatcher::Pending::settle(bool ok) {
  {
    std::scoped_lock lock(mu_);
    done_ = true;
    ok_ = ok;
  }
  cv_.notify_all();
}

ReplicationBatcher::ReplicationBatcher(obs::MetricsRegistry& metrics,
                                       std::chrono::milliseconds call_timeout)
    : call_timeout_(call_timeout),
      obs_flushes_(&metrics.counter("store.batch_flushes")),
      obs_records_(&metrics.counter("store.batch_records")) {}

ReplicationBatcher::~ReplicationBatcher() { close(); }

void ReplicationBatcher::open(daemon::AceClient& client) {
  std::scoped_lock lock(mu_);
  client_ = &client;
  flushes_ = net::TaskGuard();  // the last opening's guard stays revoked
}

std::shared_ptr<ReplicationBatcher::Pending> ReplicationBatcher::submit(
    const net::Address& peer, std::string record) {
  auto pending = std::make_shared<Pending>();
  daemon::AceClient* client;
  net::TaskGuard flushes;
  {
    std::scoped_lock lock(mu_);
    if (!client_) {
      pending->settle(false);
      return pending;
    }
    Lane& lane = lanes_[peer];
    lane.queue.push_back(Item{std::move(record), pending});
    // A flush already owns the lane: it ships this record behind its RPC.
    if (std::exchange(lane.flushing, true)) return pending;
    client = client_;
    flushes = flushes_;
  }
  // Posted outside the lock: a close() in between revokes the task, and
  // fails the record with the rest of the queue.
  client->env().reactor().post_blocking(
      flushes.wrap([this, client, peer] { flush(*client, peer); }));
  return pending;
}

void ReplicationBatcher::close() {
  net::TaskGuard flushes;
  {
    std::scoped_lock lock(mu_);
    client_ = nullptr;
    flushes = flushes_;
  }
  flushes.revoke();  // queued flushes become no-ops; running ones finish
  std::map<net::Address, Lane> lanes;
  {
    std::scoped_lock lock(mu_);
    lanes.swap(lanes_);
  }
  for (auto& [peer, lane] : lanes)
    for (auto& item : lane.queue) item.pending->settle(false);
}

void ReplicationBatcher::flush(daemon::AceClient& client,
                               const net::Address& peer) {
  for (;;) {
    std::vector<Item> batch;
    {
      std::scoped_lock lock(mu_);
      if (!client_) return;  // close() fails the leftovers
      Lane& lane = lanes_[peer];
      if (lane.queue.empty()) {
        lane.flushing = false;
        return;
      }
      batch.swap(lane.queue);
    }

    std::vector<std::string> records;
    records.reserve(batch.size());
    for (auto& item : batch) records.push_back(std::move(item.record));
    cmdlang::CmdLine cmd("storeReplicateBatch");
    cmd.arg("entries", daemon::wire::pack_batch(records));

    auto reply = client.call(
        peer, cmd, daemon::CallOptions{.timeout = call_timeout_, .retries = 0});
    const bool ok = reply.ok() && cmdlang::is_ok(reply.value());

    obs_flushes_->inc();
    obs_records_->inc(batch.size());
    for (auto& item : batch) item.pending->settle(ok);
  }
}

}  // namespace ace::store

#include "store/batch.hpp"

#include <utility>

#include "cmdlang/value.hpp"
#include "daemon/wire.hpp"

namespace ace::store {

using std::chrono::steady_clock;

bool ReplicationBatcher::Pending::wait_until(steady_clock::time_point deadline) {
  std::unique_lock lock(mu_);
  cv_.wait_until(lock, deadline, [this] { return done_; });
  return done_ && ok_;
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
                                       daemon::AceClient& client,
                                       BatcherOptions options)
    : client_(client),
      options_(options),
      obs_flushes_(&metrics.counter("store.batch_flushes")),
      obs_records_(&metrics.counter("store.batch_records")) {}

ReplicationBatcher::~ReplicationBatcher() { shutdown(); }

std::shared_ptr<ReplicationBatcher::Pending> ReplicationBatcher::submit(
    const net::Address& peer, std::string record) {
  auto pending = std::make_shared<Pending>();
  {
    std::scoped_lock lock(mu_);
    if (stopped_) {
      pending->settle(false);
      return pending;
    }
    Lane& lane = lanes_[peer];
    lane.queue.push_back(Item{std::move(record), pending});
    // A flush already owns the lane: it ships this record behind its RPC.
    if (std::exchange(lane.flushing, true)) return pending;
  }
  // Posted outside the lock: a shutdown() in between revokes the task, and
  // fails the record with the rest of the queue.
  client_.env().reactor().post_blocking(
      flushes_.wrap([this, peer] { flush(peer); }));
  return pending;
}

void ReplicationBatcher::shutdown() {
  {
    std::scoped_lock lock(mu_);
    stopped_ = true;
  }
  flushes_.revoke();  // queued flushes become no-ops; running ones finish
  std::map<net::Address, Lane> lanes;
  {
    std::scoped_lock lock(mu_);
    lanes.swap(lanes_);
  }
  for (auto& [peer, lane] : lanes)
    for (auto& item : lane.queue) item.pending->settle(false);
}

void ReplicationBatcher::flush(const net::Address& peer) {
  for (;;) {
    std::vector<Item> batch;
    {
      std::scoped_lock lock(mu_);
      if (stopped_) return;  // shutdown() fails the leftovers
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

    auto reply = client_.call(
        peer, cmd,
        daemon::CallOptions{.timeout = options_.call_timeout, .retries = 0});
    const bool ok = reply.ok() && cmdlang::is_ok(reply.value());

    obs_flushes_->inc();
    obs_records_->inc(batch.size());
    for (auto& item : batch) item.pending->settle(ok);
  }
}

}  // namespace ace::store

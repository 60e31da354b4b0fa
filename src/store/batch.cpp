#include "store/batch.hpp"

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
  Lane* lane = nullptr;
  {
    std::scoped_lock lock(lanes_mu_);
    if (stopped_) {
      pending->settle(false);
      return pending;
    }
    auto it = lanes_.find(peer);
    if (it == lanes_.end()) {
      auto fresh = std::make_unique<Lane>();
      fresh->flusher = std::jthread(
          [this, raw = fresh.get(), peer](std::stop_token st) {
            flusher_loop(st, raw, peer);
          });
      it = lanes_.emplace(peer, std::move(fresh)).first;
    }
    lane = it->second.get();
  }
  {
    std::scoped_lock lock(lane->mu);
    lane->queue.push_back(Item{std::move(record), pending});
  }
  lane->cv.notify_one();
  return pending;
}

void ReplicationBatcher::shutdown() {
  std::map<net::Address, std::unique_ptr<Lane>> lanes;
  {
    std::scoped_lock lock(lanes_mu_);
    stopped_ = true;
    lanes.swap(lanes_);
  }
  for (auto& [peer, lane] : lanes) {
    lane->flusher.request_stop();
    lane->cv.notify_all();
    lane->flusher = {};  // join
    for (auto& item : lane->queue) item.pending->settle(false);
  }
}

void ReplicationBatcher::flusher_loop(std::stop_token st, Lane* lane,
                                      net::Address peer) {
  while (true) {
    std::vector<Item> batch;
    {
      std::unique_lock lock(lane->mu);
      lane->cv.wait(lock, st, [&] { return !lane->queue.empty(); });
      if (st.stop_requested()) return;  // shutdown() fails the leftovers
      batch.swap(lane->queue);
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

#include "store/batch.hpp"

#include <utility>
#include <vector>

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
}

std::shared_ptr<ReplicationBatcher::Pending> ReplicationBatcher::submit(
    const net::Address& peer, std::string record,
    std::function<void(bool)> then) {
  auto pending = std::make_shared<Pending>();
  Item item{std::move(record), pending, std::move(then)};
  {
    std::scoped_lock lock(mu_);
    if (client_) {
      std::unique_ptr<Lane>& lane = lanes_[peer];
      if (!lane) {
        lane = std::make_unique<Lane>();
        // By raw pointer: a handler that owned its own queue would keep
        // the lane alive. close() stops the pump before the lane dies.
        lane->pump = net::attach_queue<Item>(
            client_->env().reactor(), lane->queue,
            [this, client = client_, peer, raw = lane.get()](
                std::optional<Item> first) {
              if (first) ship(*client, peer, *raw, std::move(*first));
            },
            {.blocking = true});
      }
      // Cannot fail: close() closes a lane's queue only once it has left
      // lanes_, and the queue is unbounded.
      (void)lane->queue.push(std::move(item));
      return pending;
    }
  }
  settle(item, false);
  return pending;
}

void ReplicationBatcher::close() {
  net::expect_may_block("ReplicationBatcher::close");
  std::map<net::Address, std::unique_ptr<Lane>> lanes;
  {
    std::scoped_lock lock(mu_);
    client_ = nullptr;
    lanes.swap(lanes_);
  }
  for (auto& [peer, lane] : lanes) {
    lane->pump.stop();  // waits out a batch in flight
    lane->queue.close();
    while (auto item = lane->queue.pop()) settle(*item, false);
  }
}

void ReplicationBatcher::ship(daemon::AceClient& client,
                              const net::Address& peer, Lane& lane,
                              Item first) {
  std::vector<Item> batch;
  batch.push_back(std::move(first));
  while (auto next = lane.queue.try_pop_when([](const Item&) { return true; }))
    batch.push_back(std::move(*next));

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
  for (auto& item : batch) settle(item, ok);
}

void ReplicationBatcher::settle(Item& item, bool acked) {
  item.pending->settle(acked);
  if (item.then) item.then(acked);
}

}  // namespace ace::store

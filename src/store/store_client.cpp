#include "store/store_client.hpp"

#include <algorithm>

#include "store/persistent_store.hpp"

namespace ace::store {

using cmdlang::CmdLine;

StoreClient::StoreClient(daemon::AceClient& client,
                         std::vector<net::Address> replicas, int replication)
    : client_(client),
      replicas_(std::move(replicas)),
      ring_(replicas_, kDefaultVnodes),
      replication_(static_cast<std::size_t>(std::max(1, replication))) {}

void StoreClient::rotate() {
  if (!replicas_.empty()) preferred_ = (preferred_ + 1) % replicas_.size();
}

std::vector<net::Address> StoreClient::route(const std::string& key) const {
  std::vector<net::Address> order = ring_.preference_list(key, replication_);
  if (order.empty()) order = replicas_;
  if (!order.empty())
    std::rotate(order.begin(), order.begin() + preferred_ % order.size(),
                order.end());
  for (const net::Address& replica : replicas_)
    if (std::find(order.begin(), order.end(), replica) == order.end())
      order.push_back(replica);
  return order;
}

util::Status StoreClient::put(const std::string& key,
                              const util::Bytes& data) {
  CmdLine cmd("storePut");
  cmd.arg("key", key);
  cmd.arg("data", hex_of(data));
  for (const net::Address& replica : route(key)) {
    auto reply = client_.call(
        replica, cmd,
        daemon::CallOptions{.timeout = std::chrono::milliseconds(800)});
    if (reply.ok() && cmdlang::is_ok(reply.value()))
      return util::Status::ok_status();
  }
  return {util::Errc::unavailable, "no persistent-store replica reachable"};
}

util::Result<util::Bytes> StoreClient::get(const std::string& key) {
  CmdLine cmd("storeGet");
  cmd.arg("key", key);
  util::Error last{util::Errc::unavailable, "no replica reachable"};
  for (const net::Address& replica : route(key)) {
    auto reply = client_.call(
        replica, cmd,
        daemon::CallOptions{.timeout = std::chrono::milliseconds(800)});
    if (!reply.ok()) {
      last = reply.error();
      continue;
    }
    if (cmdlang::is_error(reply.value())) {
      const util::Error err = cmdlang::reply_error(reply.value());
      if (err.code == util::Errc::unavailable) {
        // The coordinator answered but could not reach the key's owners;
        // another coordinator may sit on the right side of a partition.
        last = err;
        continue;
      }
      // A definitive not_found from a live replica is authoritative enough
      // for the simulation's read semantics.
      return err;
    }
    return bytes_of_hex(reply->get_text("data"));
  }
  return last;
}

util::Status StoreClient::remove(const std::string& key) {
  CmdLine cmd("storeDelete");
  cmd.arg("key", key);
  for (const net::Address& replica : route(key)) {
    auto reply = client_.call(
        replica, cmd,
        daemon::CallOptions{.timeout = std::chrono::milliseconds(800)});
    if (reply.ok() && cmdlang::is_ok(reply.value()))
      return util::Status::ok_status();
  }
  return {util::Errc::unavailable, "no persistent-store replica reachable"};
}

util::Result<std::vector<std::string>> StoreClient::list(
    const std::string& prefix) {
  // Drain the storeScan pager: every RPC stays bounded by the page limit,
  // so the aggregate scales with namespace size instead of racing a
  // whole-namespace reply against the call timeout — and a replica lost
  // mid-list just fails the next page over to a peer (the cursor is
  // coordinator-independent).
  std::vector<std::string> keys;
  StoreScanner pager = scan(prefix, 256);
  while (!pager.done()) {
    auto page = pager.next_page();
    if (!page.ok()) return page.error();
    keys.insert(keys.end(), std::make_move_iterator(page->begin()),
                std::make_move_iterator(page->end()));
  }
  return keys;
}

StoreScanner StoreClient::scan(const std::string& prefix, int limit) {
  return StoreScanner(this, prefix, std::max(1, limit));
}

util::Result<std::vector<std::string>> StoreScanner::next_page() {
  if (done_) return std::vector<std::string>{};
  CmdLine cmd("storeScan");
  cmd.arg("prefix", prefix_);
  cmd.arg("cursor", cursor_);
  cmd.arg("limit", static_cast<std::int64_t>(limit_));
  util::Error last{util::Errc::unavailable, "no replica reachable"};
  const std::size_t n = client_->replicas_.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Any replica coordinates a scan page; the cursor itself records where
    // each shard stands, so failing over mid-scan neither skips nor
    // repeats keys.
    const net::Address& replica =
        client_->replicas_[(client_->preferred_ + i) % n];
    auto reply = client_->client_.call(
        replica, cmd,
        daemon::CallOptions{.timeout = std::chrono::milliseconds(800)});
    if (!reply.ok()) {
      last = reply.error();
      continue;
    }
    if (!cmdlang::is_ok(reply.value())) {
      last = cmdlang::reply_error(reply.value());
      continue;
    }
    std::vector<std::string> keys;
    if (auto vec = reply->get_vector("keys"))
      for (const auto& elem : vec->elements)
        if (elem.is_string() || elem.is_word()) keys.push_back(elem.as_text());
    cursor_ = reply->get_text("next");
    done_ = reply->get_text("done") == "yes" || cursor_.empty();
    return keys;
  }
  return last;
}

util::Status StoreClient::save_state(const std::string& service,
                                     const std::string& key,
                                     const util::Bytes& state) {
  return put("state/" + service + "/" + key, state);
}

util::Result<util::Bytes> StoreClient::load_state(const std::string& service,
                                                  const std::string& key) {
  return get("state/" + service + "/" + key);
}

}  // namespace ace::store

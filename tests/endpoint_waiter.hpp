// Timed blocking waits over the async endpoint surfaces, for tests.
//
// src/ reads endpoints only through reactor pumps (docs/net.md §2). A test
// that wants "the next frame, or nothing within 1 s" subscribes an inbox
// to the endpoint: the pump fills it, next() takes from it, and the inbox
// stops its subscription when it dies, so it must die before the endpoint
// and the reactor do. Handshake does the same for the two async
// handshakes: it starts one, and result() waits for the outcome.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "crypto/channel.hpp"
#include "net/network.hpp"
#include "net/reactor.hpp"

namespace ace::testenv {

// What one endpoint's pump delivered, handed out oldest first.
template <typename T>
class Inbox {
 public:
  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;
  ~Inbox() { sub_.stop(); }

  // The next item, waiting up to `timeout` for it; std::nullopt on timeout
  // or once the endpoint has closed and every item was taken.
  std::optional<T> next(
      std::chrono::milliseconds timeout = std::chrono::seconds(1)) {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, timeout, [&] { return !items_.empty() || ended_; });
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    return item;
  }

  // True once the endpoint's final std::nullopt has arrived.
  bool ended() {
    std::scoped_lock lock(mu_);
    return ended_;
  }

 protected:
  Inbox() = default;

  std::function<void(std::optional<T>)> sink() {
    return [this](std::optional<T> item) {
      {
        std::scoped_lock lock(mu_);
        if (item)
          items_.push_back(std::move(*item));
        else
          ended_ = true;
      }
      cv_.notify_all();
    };
  }

  net::Subscription sub_;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool ended_ = false;
};

// Frames arriving on a connection, or decrypted off a secure channel.
class FrameInbox : public Inbox<net::Frame> {
 public:
  FrameInbox(net::Reactor& reactor, net::Connection& conn) {
    sub_ = conn.on_frame(reactor, sink());
  }
  FrameInbox(net::Reactor& reactor, crypto::SecureChannel& channel) {
    sub_ = channel.on_frame(reactor, sink());
  }
};

// Connections arriving at a listener.
class AcceptInbox : public Inbox<net::Connection> {
 public:
  AcceptInbox(net::Reactor& reactor, net::Listener& listener) {
    sub_ = listener.on_accept(reactor, sink());
  }
};

// Datagrams arriving at a socket.
class DatagramInbox : public Inbox<net::Datagram> {
 public:
  DatagramInbox(net::Reactor& reactor, net::DatagramSocket& socket) {
    sub_ = socket.on_datagram(reactor, sink());
  }
};

// One async handshake in flight.
class Handshake {
 public:
  static Handshake connect(net::Reactor& reactor, net::Connection conn,
                           const crypto::Identity& self,
                           const util::Bytes& ca_key, net::Duration timeout,
                           crypto::ChannelOptions options = {}) {
    Handshake h(timeout);
    crypto::SecureChannel::async_connect(reactor, std::move(conn), self,
                                         ca_key, timeout, options,
                                         h.callback());
    return h;
  }
  static Handshake accept(net::Reactor& reactor, net::Connection conn,
                          const crypto::Identity& self,
                          const util::Bytes& ca_key, net::Duration timeout,
                          crypto::ChannelOptions options = {}) {
    Handshake h(timeout);
    crypto::SecureChannel::async_accept(reactor, std::move(conn), self,
                                        ca_key, timeout, options,
                                        h.callback());
    return h;
  }

  // The outcome. Waits up to the handshake's timeout plus a margin: a
  // stopped reactor drops the handshake's timer, so it may never complete.
  util::Result<crypto::SecureChannel> result() {
    std::unique_lock lock(slot_->mu);
    if (!slot_->cv.wait_for(lock, timeout_ + std::chrono::seconds(2),
                            [&] { return slot_->result.has_value(); }))
      return util::Error{util::Errc::timeout, "handshake never completed"};
    return std::move(*slot_->result);
  }

  // How many times the handshake completed so far (the contract is once).
  int completions() {
    std::scoped_lock lock(slot_->mu);
    return slot_->completions;
  }

 private:
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<util::Result<crypto::SecureChannel>> result;
    int completions = 0;
  };

  explicit Handshake(net::Duration timeout)
      : slot_(std::make_shared<Slot>()), timeout_(timeout) {}

  crypto::SecureChannel::HandshakeCallback callback() const {
    return [slot = slot_](util::Result<crypto::SecureChannel> r) {
      {
        std::scoped_lock lock(slot->mu);
        if (slot->completions++ == 0) slot->result.emplace(std::move(r));
      }
      slot->cv.notify_all();
    };
  }

  std::shared_ptr<Slot> slot_;
  net::Duration timeout_;
};

}  // namespace ace::testenv

#include "net/network.hpp"

#include <thread>

namespace ace::net {

using Clock = std::chrono::steady_clock;

std::string Address::to_string() const {
  return host + ":" + std::to_string(port);
}

std::optional<Address> Address::parse(const std::string& s) {
  auto pos = s.rfind(':');
  if (pos == std::string::npos || pos + 1 >= s.size()) return std::nullopt;
  Address a;
  a.host = s.substr(0, pos);
  long port = 0;
  for (std::size_t i = pos + 1; i < s.size(); ++i) {
    char c = s[i];
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + (c - '0');
    if (port > 65535) return std::nullopt;
  }
  a.port = static_cast<std::uint16_t>(port);
  return a;
}

// ---------------------------------------------------------------- Connection

Connection::Connection(std::shared_ptr<detail::ConnState> state, bool is_a,
                       Network* network)
    : state_(std::move(state)), is_a_(is_a), network_(network) {}

util::Status Connection::send(Frame frame) {
  if (!state_) return {util::Errc::invalid, "unconnected"};
  if (state_->closed.load()) return {util::Errc::closed, "connection closed"};
  LinkPolicy policy = network_->link(state_->host_a, state_->host_b);
  if (!policy.up) {
    // A partitioned link resets the connection, like TCP on a dead path.
    close();
    return {util::Errc::io_error, "link partitioned"};
  }
  detail::TimedFrame tf{Clock::now() + policy.latency, std::move(frame)};
  std::size_t bytes = tf.frame.size();
  auto& queue = is_a_ ? state_->to_b : state_->to_a;
  if (!queue.push(std::move(tf)))
    return {util::Errc::closed, "connection closed"};
  network_->count_frame(bytes);
  return util::Status::ok_status();
}

Subscription Connection::on_frame(
    Reactor& reactor, std::function<void(std::optional<Frame>)> handler,
    AttachOptions options) {
  if (!state_) return {};
  auto& queue = is_a_ ? state_->to_a : state_->to_b;
  Network* network = network_;
  return attach_queue<detail::TimedFrame>(
      reactor, queue,
      [network, handler = std::move(handler)](
          std::optional<detail::TimedFrame> tf) {
        if (!tf) {
          handler(std::nullopt);
          return;
        }
        network->count_frame_received(tf->frame.size());
        handler(std::move(tf->frame));
      },
      options,
      // Latency gate: a frame is not readable before its delivery time —
      // the pump arms a reactor timer instead of sleeping a thread.
      [](const detail::TimedFrame& tf) { return tf.deliver_at; });
}

void Connection::close() {
  if (!state_) return;
  state_->closed.store(true);
  state_->to_a.close();
  state_->to_b.close();
}

bool Connection::closed() const { return !state_ || state_->closed.load(); }

// ------------------------------------------------------------------ Listener

Listener::Listener(Address address, Network* network)
    : address_(std::move(address)), network_(network) {}

Listener::~Listener() { close(); }

Subscription Listener::on_accept(
    Reactor& reactor, std::function<void(std::optional<Connection>)> handler,
    AttachOptions options) {
  // No due-gate: connect() already charged the setup latency on the
  // dialing side before the connection reached pending_.
  return attach_queue<Connection>(reactor, pending_, std::move(handler),
                                  options);
}

void Listener::close() {
  bool was_open = open_.exchange(false);
  if (!was_open) return;
  pending_.close();
  network_->unregister_listener(address_);
}

// ------------------------------------------------------------ DatagramSocket

DatagramSocket::DatagramSocket(Address address, Network* network)
    : address_(std::move(address)), network_(network) {}

DatagramSocket::~DatagramSocket() { close(); }

util::Status DatagramSocket::send_to(const Address& to,
                                     util::SharedBytes payload) {
  if (!open_.load()) return {util::Errc::closed, "socket closed"};
  return network_->deliver_datagram(address_, to, std::move(payload));
}

util::Status DatagramSocket::send_many(std::span<const Address> to,
                                       const util::SharedBytes& payload) {
  if (!open_.load()) return {util::Errc::closed, "socket closed"};
  return network_->deliver_datagrams(address_, to, payload);
}

Subscription DatagramSocket::on_datagram(
    Reactor& reactor, std::function<void(std::optional<Datagram>)> handler,
    AttachOptions options) {
  Network* network = network_;
  return attach_queue<detail::TimedDatagram>(
      reactor, inbox_,
      [network, handler = std::move(handler)](
          std::optional<detail::TimedDatagram> td) {
        if (!td) {
          handler(std::nullopt);
          return;
        }
        network->count_datagram_delivered();
        handler(std::move(td->datagram));
      },
      options, [](const detail::TimedDatagram& td) { return td.deliver_at; });
}

void DatagramSocket::close() {
  bool was_open = open_.exchange(false);
  if (!was_open) return;
  inbox_.close();
  network_->unregister_datagram(address_);
}

// ---------------------------------------------------------------------- Host

util::Result<std::shared_ptr<Listener>> Host::listen(std::uint16_t port) {
  std::scoped_lock lock(mu_);
  if (listeners_.contains(port))
    return util::Error{util::Errc::conflict, "port in use"};
  auto listener = std::make_shared<Listener>(Address{name_, port}, network_);
  listeners_[port] = listener;
  return listener;
}

util::Result<std::shared_ptr<DatagramSocket>> Host::open_datagram(
    std::uint16_t port) {
  std::scoped_lock lock(mu_);
  if (port == 0) {
    port = ephemeral_port_locked();
  } else if (datagram_sockets_.contains(port)) {
    return util::Error{util::Errc::conflict, "port in use"};
  }
  auto socket =
      std::make_shared<DatagramSocket>(Address{name_, port}, network_);
  datagram_sockets_[port] = socket.get();
  return socket;
}

util::Result<Connection> Host::connect(const Address& to) {
  if (down_.load()) return util::Error{util::Errc::unavailable, "host down"};
  return network_->do_connect(*this, to);
}

std::uint16_t Host::ephemeral_port() {
  std::scoped_lock lock(mu_);
  return ephemeral_port_locked();
}

std::uint16_t Host::ephemeral_port_locked() {
  constexpr std::uint16_t kEphemeralBase = 40000;
  // Bounded scan: skip ports a listener or datagram socket currently
  // holds, wrapping at the top of the range. Without the skip, a host
  // that cycled through its ~25k ephemeral ports would eventually be
  // handed one of its own bound ports and fail the next bind with
  // Errc::conflict.
  const std::size_t range = 65535u - kEphemeralBase + 1u;
  for (std::size_t scanned = 0; scanned < range; ++scanned) {
    if (next_ephemeral_ < kEphemeralBase) next_ephemeral_ = kEphemeralBase;
    std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ =
        candidate == 65535 ? kEphemeralBase
                           : static_cast<std::uint16_t>(candidate + 1);
    if (!listeners_.contains(candidate) &&
        !datagram_sockets_.contains(candidate))
      return candidate;
  }
  return next_ephemeral_;  // every port bound: conflict is inevitable
}

// ------------------------------------------------------------------- Network

Network::Network(std::uint64_t seed, obs::MetricsRegistry* metrics)
    : rng_(seed),
      owned_metrics_(metrics ? nullptr
                             : std::make_unique<obs::MetricsRegistry>()),
      metrics_(metrics ? metrics : owned_metrics_.get()) {
  cells_.frames_sent = &metrics_->counter("net.frames_sent");
  cells_.bytes_sent = &metrics_->counter("net.bytes_sent");
  cells_.frames_received = &metrics_->counter("net.frames_received");
  cells_.bytes_received = &metrics_->counter("net.bytes_received");
  cells_.datagrams_sent = &metrics_->counter("net.datagrams_sent");
  cells_.datagrams_delivered = &metrics_->counter("net.datagrams_delivered");
  cells_.datagrams_dropped = &metrics_->counter("net.datagrams_dropped");
  cells_.connects = &metrics_->counter("net.connects");
}

Host& Network::add_host(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& slot = hosts_[name];
  if (!slot) slot = std::make_unique<Host>(name, this);
  return *slot;
}

Host* Network::find_host(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.get();
}

void Network::set_default_latency(Duration latency) {
  std::scoped_lock lock(mu_);
  default_latency_ = latency;
}

std::string Network::link_key(const std::string& a, const std::string& b) {
  return a < b ? a + "|" + b : b + "|" + a;
}

void Network::set_link(const std::string& a, const std::string& b,
                       LinkPolicy policy) {
  std::scoped_lock lock(mu_);
  links_[link_key(a, b)] = policy;
}

void Network::set_partitioned(const std::string& a, const std::string& b,
                              bool partitioned) {
  std::scoped_lock lock(mu_);
  auto key = link_key(a, b);
  auto it = links_.find(key);
  if (it == links_.end()) {
    LinkPolicy policy;
    policy.latency = default_latency_;
    policy.up = !partitioned;
    links_[key] = policy;
  } else {
    it->second.up = !partitioned;
  }
}

LinkPolicy Network::link(const std::string& a, const std::string& b) const {
  std::scoped_lock lock(mu_);
  return link_locked(a, b);
}

LinkPolicy Network::link_locked(const std::string& a,
                                const std::string& b) const {
  if (a == b) return LinkPolicy{Duration{0}, 0.0, true};  // loopback
  auto it = links_.find(link_key(a, b));
  if (it != links_.end()) return it->second;
  LinkPolicy policy;
  policy.latency = default_latency_;
  return policy;
}

NetworkStats Network::stats() const {
  NetworkStats s;
  s.frames_sent = cells_.frames_sent->value();
  s.bytes_sent = cells_.bytes_sent->value();
  s.frames_received = cells_.frames_received->value();
  s.bytes_received = cells_.bytes_received->value();
  s.datagrams_sent = cells_.datagrams_sent->value();
  s.datagrams_delivered = cells_.datagrams_delivered->value();
  s.datagrams_dropped = cells_.datagrams_dropped->value();
  s.connects = cells_.connects->value();
  return s;
}

util::Result<Connection> Network::do_connect(Host& from, const Address& to) {
  std::weak_ptr<Listener> target_listener;
  LinkPolicy policy = link(from.name(), to.host);
  if (!policy.up)
    return util::Error{util::Errc::io_error, "link partitioned"};
  {
    std::scoped_lock lock(mu_);
    auto host_it = hosts_.find(to.host);
    if (host_it == hosts_.end())
      return util::Error{util::Errc::not_found, "no such host: " + to.host};
    Host& target = *host_it->second;
    if (target.down_.load())
      return util::Error{util::Errc::unavailable, "host down: " + to.host};
    std::scoped_lock host_lock(target.mu_);
    auto lst_it = target.listeners_.find(to.port);
    if (lst_it == target.listeners_.end())
      return util::Error{util::Errc::refused,
                         "connection refused: " + to.to_string()};
    target_listener = lst_it->second;
  }
  cells_.connects->inc();

  // Model connection-setup latency (one RTT worth of delay, simplified to
  // one link latency each way via the sleep below plus the accept path).
  if (policy.latency.count() > 0) std::this_thread::sleep_for(policy.latency);

  auto state = std::make_shared<detail::ConnState>();
  state->host_a = from.name();
  state->host_b = to.host;
  Connection client(state, /*is_a=*/true, this);
  Connection server(state, /*is_a=*/false, this);
  // The listener may have been closed or destroyed during the setup delay:
  // hold it across the push, and refuse if it is gone.
  auto listener = target_listener.lock();
  if (!listener || !listener->pending_.push(std::move(server)))
    return util::Error{util::Errc::refused, "listener closed"};
  return client;
}

util::Status Network::deliver_datagram(const Address& from, const Address& to,
                                       util::SharedBytes payload) {
  std::scoped_lock lock(mu_);
  deliver_datagram_locked(from, to, payload, Clock::now());
  return util::Status::ok_status();
}

util::Status Network::deliver_datagrams(const Address& from,
                                        std::span<const Address> to,
                                        const util::SharedBytes& payload) {
  if (to.empty()) return util::Status::ok_status();
  // One trip through the network core for the whole fan-out: the lock is
  // taken once and every destination enqueues a view of the same buffer.
  std::scoped_lock lock(mu_);
  auto now = Clock::now();
  for (const Address& dest : to)
    deliver_datagram_locked(from, dest, payload, now);
  return util::Status::ok_status();
}

// Caller holds mu_. Best-effort: every failure mode silently drops.
void Network::deliver_datagram_locked(const Address& from, const Address& to,
                                      const util::SharedBytes& payload,
                                      Clock::time_point now) {
  cells_.datagrams_sent->inc();
  cells_.bytes_sent->inc(payload.size());
  LinkPolicy policy = link_locked(from.host, to.host);
  if (!policy.up || rng_.next_bool(policy.datagram_loss)) {
    cells_.datagrams_dropped->inc();
    count_link_drop(from.host, to.host);
    return;
  }
  auto host_it = hosts_.find(to.host);
  if (host_it == hosts_.end() || host_it->second->down_.load()) {
    cells_.datagrams_dropped->inc();
    count_link_drop(from.host, to.host);
    return;
  }
  std::scoped_lock host_lock(host_it->second->mu_);
  auto sock_it = host_it->second->datagram_sockets_.find(to.port);
  if (sock_it == host_it->second->datagram_sockets_.end()) {
    cells_.datagrams_dropped->inc();
    count_link_drop(from.host, to.host);
    return;
  }
  detail::TimedDatagram td{now + policy.latency, Datagram{from, payload}};
  if (!sock_it->second->inbox_.push(std::move(td))) {
    cells_.datagrams_dropped->inc();
    count_link_drop(from.host, to.host);
  }
}

void Network::unregister_listener(const Address& address) {
  std::scoped_lock lock(mu_);
  auto it = hosts_.find(address.host);
  if (it == hosts_.end()) return;
  std::scoped_lock host_lock(it->second->mu_);
  it->second->listeners_.erase(address.port);
}

void Network::unregister_datagram(const Address& address) {
  std::scoped_lock lock(mu_);
  auto it = hosts_.find(address.host);
  if (it == hosts_.end()) return;
  std::scoped_lock host_lock(it->second->mu_);
  it->second->datagram_sockets_.erase(address.port);
}

void Network::count_frame(std::size_t bytes) {
  cells_.frames_sent->inc();
  cells_.bytes_sent->inc(bytes);
}

void Network::count_frame_received(std::size_t bytes) {
  cells_.frames_received->inc();
  cells_.bytes_received->inc(bytes);
}

void Network::count_datagram_delivered() {
  cells_.datagrams_delivered->inc();
}

// Drop attribution per host pair. Caller must hold mu_. The counter cell
// is resolved through the registry once per pair and cached: under a chaos
// loss burst a link can shed thousands of datagrams per second, and paying
// a string-key build plus the registry mutex for every one of them turned
// the drop path into a contention point.
void Network::count_link_drop(const std::string& a, const std::string& b) {
  const std::string& lo = a < b ? a : b;
  const std::string& hi = a < b ? b : a;
  obs::Counter*& cell = drop_cells_[lo][hi];
  if (cell == nullptr)
    cell = &metrics_->counter("net.link_drops." + link_key(a, b));
  cell->inc();
}

}  // namespace ace::net

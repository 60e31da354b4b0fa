// Simulated network substrate.
//
// The paper's ACE testbed ran on a campus LAN of Unix hosts. We reproduce
// that substrate in-process: named hosts with ports, reliable stream
// connections (TCP-like, used for the ACE command channel), and best-effort
// datagram channels (UDP-like, used by daemon data threads for media
// streaming — paper §2.1.1). Per-link latency, datagram loss, partitions and
// host crashes are injectable so experiments can reproduce LAN/WAN placement
// effects and the failure behaviours the architecture is designed around.
//
// Thread-safety: all classes here are safe to use from multiple threads.
//
// Endpoints are read through the reactor (see docs/net.md):
// on_frame/on_accept/on_datagram register a callback pump on a
// net::Reactor, which delivers on reactor workers with O(pool) threads in
// total and models link latency with a timer, not a sleeping thread. An
// endpoint has one pump at a time: registering a pump claims the
// endpoint's readiness signal.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/reactor.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/queue.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace ace::net {

using Frame = util::Bytes;
using Duration = std::chrono::microseconds;

struct Address {
  std::string host;
  std::uint16_t port = 0;

  std::string to_string() const;
  static std::optional<Address> parse(const std::string& s);  // "host:port"

  friend bool operator==(const Address&, const Address&) = default;
  friend auto operator<=>(const Address&, const Address&) = default;
};

// Symmetric per-host-pair link behaviour.
struct LinkPolicy {
  Duration latency{0};
  double datagram_loss = 0.0;  // applies to datagrams only; streams are reliable
  bool up = true;
};

// Datagram payloads are ref-counted immutable views (util::SharedBytes):
// a fan-out of one frame to N sinks enqueues N views of one buffer, and
// the payload a receiver sees aliases the very bytes the sender wrapped.
// Frames on stream connections stay owned Bytes (the command channel
// encrypts in place, so sharing would be wrong there).
struct Datagram {
  Address from;
  util::SharedBytes payload;
};

// Snapshot of the network's obs counters (see Network::stats()). Each field
// is read atomically; the set is assembled without pausing traffic, so
// counters that move together (e.g. frames/bytes) may be skewed by at most
// the in-flight operations of the instant the snapshot was taken.
struct NetworkStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_delivered = 0;
  std::uint64_t datagrams_dropped = 0;
  std::uint64_t connects = 0;
};

class Network;
class Host;

namespace detail {
struct TimedFrame {
  std::chrono::steady_clock::time_point deliver_at;
  Frame frame;
};

// Shared state of one established stream connection.
struct ConnState {
  util::MessageQueue<TimedFrame> to_a;  // frames travelling towards side A
  util::MessageQueue<TimedFrame> to_b;
  std::atomic<bool> closed{false};
  std::string host_a, host_b;
};

struct TimedDatagram {
  std::chrono::steady_clock::time_point deliver_at;
  Datagram datagram;
};
}  // namespace detail

// One endpoint of an established bidirectional stream connection.
class Connection {
 public:
  Connection() = default;
  Connection(std::shared_ptr<detail::ConnState> state, bool is_a,
             Network* network);

  bool valid() const { return state_ != nullptr; }

  // Sends one frame. Fails with Errc::closed if either side closed, or
  // Errc::io_error if the link is partitioned (connection is then dropped,
  // like a TCP reset).
  util::Status send(Frame frame);

  // Delivers every inbound frame to `handler` on a reactor worker,
  // serialized and in order, honouring link latency. A final
  // handler(std::nullopt) fires exactly once when the connection is closed
  // and drained. One registration per endpoint; re-registering replaces
  // the previous pump (stop it first for a deterministic handoff).
  Subscription on_frame(Reactor& reactor,
                        std::function<void(std::optional<Frame>)> handler,
                        AttachOptions options = {});

  void close();
  bool closed() const;

 private:
  std::shared_ptr<detail::ConnState> state_;
  bool is_a_ = false;
  Network* network_ = nullptr;
};

// A passive listening socket; on_accept() yields connections.
class Listener {
 public:
  Listener(Address address, Network* network);
  ~Listener();

  // Each inbound connection lands in `handler` on a reactor worker;
  // handler(std::nullopt) fires once when the listener closes.
  Subscription on_accept(
      Reactor& reactor,
      std::function<void(std::optional<Connection>)> handler,
      AttachOptions options = {});

  void close();
  const Address& address() const { return address_; }

 private:
  friend class Network;
  Address address_;
  Network* network_;
  util::MessageQueue<Connection> pending_;
  std::atomic<bool> open_{true};
};

// Best-effort datagram endpoint (the daemon data channel).
class DatagramSocket {
 public:
  DatagramSocket(Address address, Network* network);
  ~DatagramSocket();

  // Sends one datagram. SharedBytes is implicitly constructible from
  // Bytes, so `send_to(to, writer.take())` still works — the buffer is
  // wrapped once and never copied again on its way to the receiver.
  util::Status send_to(const Address& to, util::SharedBytes payload);

  // Scatter-gather batch: one payload to many destinations in a single
  // trip through the network core (one lock acquisition, N enqueued views
  // of the same buffer — the zero-copy fan-out primitive). Per-destination
  // loss/partition policy still applies individually.
  util::Status send_many(std::span<const Address> to,
                         const util::SharedBytes& payload);

  // Datagrams delivered on a reactor worker (in order, honouring link
  // latency); handler(std::nullopt) once on close.
  Subscription on_datagram(
      Reactor& reactor, std::function<void(std::optional<Datagram>)> handler,
      AttachOptions options = {});

  void close();
  const Address& address() const { return address_; }

 private:
  friend class Network;
  Address address_;
  Network* network_;
  util::MessageQueue<detail::TimedDatagram> inbox_;
  std::atomic<bool> open_{true};
};

// A simulated machine. Owns its port space. Crashing a host (set_down)
// refuses new connections and silently drops its datagrams, matching the
// fail-stop behaviour the ACE lease mechanism (paper §2.4) must detect.
class Host {
 public:
  Host(std::string name, Network* network)
      : name_(std::move(name)), network_(network) {}

  const std::string& name() const { return name_; }

  // Binds a listener; Errc::conflict if the port is taken.
  util::Result<std::shared_ptr<Listener>> listen(std::uint16_t port);

  // Binds a datagram socket; port 0 picks an ephemeral port.
  util::Result<std::shared_ptr<DatagramSocket>> open_datagram(
      std::uint16_t port = 0);

  // Actively connects to a listener elsewhere in the network. Blocks the
  // caller for one link latency (connection setup).
  util::Result<Connection> connect(const Address& to);

  void set_down(bool down) { down_.store(down); }
  bool down() const { return down_.load(); }

  // Picks a free ephemeral port: skips ports currently bound by listeners
  // or datagram sockets, wrapping back to the bottom of the ephemeral
  // range (40000) at the top. Before this skip, a long-lived host that
  // wrapped its counter could be handed a port its own listener still held
  // and fail a later bind with a baffling Errc::conflict.
  std::uint16_t ephemeral_port();

 private:
  friend class Network;
  std::uint16_t ephemeral_port_locked();  // caller holds mu_
  std::string name_;
  Network* network_;
  std::atomic<bool> down_{false};
  std::mutex mu_;
  // Weak: a connect holds its target only across the hand-off, so a
  // listener destroyed meanwhile refuses it instead of being written to.
  std::map<std::uint16_t, std::weak_ptr<Listener>> listeners_;
  std::map<std::uint16_t, DatagramSocket*> datagram_sockets_;
  std::uint16_t next_ephemeral_ = 40000;
};

class Network {
 public:
  // Counters land in `metrics` under `net.*` names; when none is supplied
  // the network owns a private registry (standalone/test use). A deployed
  // network shares its Environment's registry so daemons' `metrics;`
  // snapshots include the substrate.
  explicit Network(std::uint64_t seed = 1,
                   obs::MetricsRegistry* metrics = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Host& add_host(const std::string& name);
  Host* find_host(const std::string& name);

  // Default latency applied to every pair without an explicit policy.
  void set_default_latency(Duration latency);
  // Sets a symmetric policy between two hosts.
  void set_link(const std::string& a, const std::string& b, LinkPolicy policy);
  void set_partitioned(const std::string& a, const std::string& b,
                       bool partitioned);
  LinkPolicy link(const std::string& a, const std::string& b) const;

  // Consistent-at-a-point snapshot of the `net.*` obs counters.
  NetworkStats stats() const;

  obs::MetricsRegistry& metrics() { return *metrics_; }

 private:
  friend class Host;
  friend class Connection;
  friend class Listener;
  friend class DatagramSocket;

  util::Result<Connection> do_connect(Host& from, const Address& to);
  util::Status deliver_datagram(const Address& from, const Address& to,
                                util::SharedBytes payload);
  util::Status deliver_datagrams(const Address& from,
                                 std::span<const Address> to,
                                 const util::SharedBytes& payload);
  // Single-destination core; caller holds mu_.
  void deliver_datagram_locked(const Address& from, const Address& to,
                               const util::SharedBytes& payload,
                               std::chrono::steady_clock::time_point now);
  LinkPolicy link_locked(const std::string& a, const std::string& b) const;
  void unregister_listener(const Address& address);
  void unregister_datagram(const Address& address);
  void count_frame(std::size_t bytes);
  void count_frame_received(std::size_t bytes);
  void count_datagram_delivered();
  void count_link_drop(const std::string& a, const std::string& b);

  static std::string link_key(const std::string& a, const std::string& b);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Host>> hosts_;
  std::map<std::string, LinkPolicy> links_;
  // Cached per-host-pair drop counters, [lesser][greater] (guarded by mu_;
  // see count_link_drop).
  std::map<std::string, std::map<std::string, obs::Counter*>> drop_cells_;
  Duration default_latency_{0};
  util::Rng rng_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  // Cached cells: the hot paths touch only these atomics, no registry map.
  struct {
    obs::Counter* frames_sent;
    obs::Counter* bytes_sent;
    obs::Counter* frames_received;
    obs::Counter* bytes_received;
    obs::Counter* datagrams_sent;
    obs::Counter* datagrams_delivered;
    obs::Counter* datagrams_dropped;
    obs::Counter* connects;
  } cells_{};
};

}  // namespace ace::net

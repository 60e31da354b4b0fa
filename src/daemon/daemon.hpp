// The ACE service daemon (paper §2.1): the building block of every ACE
// service. Reproduces the paper's design:
//
//  * thread structure (§2.1.1), reinterpreted for scale: the paper gives
//    each daemon an accept thread, a command thread per connection, a
//    control thread and a data thread. We keep the same roles but run them
//    as reactor actors on the Environment's shared net::Reactor: accepted
//    connections become per-channel state machines (frame decode on the
//    core pool, command execution on per-channel strands of the elastic
//    ops pool), the control "thread" is a serialized queue pump, and
//    notification fan-out gets its own pump so two daemons notifying each
//    other cannot deadlock. Semantics are unchanged — per-connection
//    command order, one serialized control stream, concurrent_ok commands
//    running in parallel — but thread count is O(reactor pool), not
//    O(connections). See docs/net.md.
//  * command language integration (§2.2): incoming strings are parsed and
//    validated against this daemon's SemanticRegistry before execution.
//  * service hierarchy (§2.3): subclasses inherit the base "Service"
//    commands and add their own (see devices.hpp and src/services/).
//  * notifications (§2.5): addNotification/removeNotification plus fan-out
//    after successful command execution.
//  * startup (§2.6, Fig 9): Room Database -> ASD registration (with lease)
//    -> Network Logger, then periodic lease renewal.
//  * security (§3): per-connection secure-channel handshake; optional
//    per-command KeyNote authorization against the Authorization Database.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cmdlang/semantics.hpp"
#include "cmdlang/value.hpp"
#include "daemon/client.hpp"
#include "daemon/environment.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "util/queue.hpp"

namespace ace::daemon {

class DaemonHost;

// Renders a metrics snapshot as the reply of the inherited `metrics;`
// command: `ok counters={...} gauges={...} histograms={...} spans=N;` with
// one `name=value` string per counter/gauge and one
// `name|count=..|sum_us=..|le_<bound>=..|..|le_inf=..` string per
// histogram. Shared by the daemon builtin and by tools that re-encode
// scraped snapshots.
cmdlang::CmdLine encode_metrics_reply(const obs::MetricsSnapshot& snapshot);

struct DaemonConfig {
  std::string name;           // unique service instance name, e.g. "asd"
  std::string service_class;  // hierarchy path, e.g. "Service/Device/PTZCamera/VCC3"
  std::string room;           // room this service lives in, e.g. "hawk"
  std::uint16_t port = 0;     // 0 = allocate an ephemeral port

  std::chrono::milliseconds lease{2000};        // requested ASD lease time
  std::chrono::milliseconds lease_renew{500};   // renewal period

  bool register_with_asd = true;
  bool register_with_room_db = true;
  bool log_to_net_logger = true;

  // When true, every command is checked through KeyNote (Fig 10) before
  // execution, with credentials fetched from the Authorization Database.
  bool enforce_authorization = false;
  std::chrono::milliseconds credential_cache_ttl{5000};

  // When true, the daemon opens a datagram socket on its port and runs the
  // data thread (for streaming services).
  bool open_data_channel = false;
};

// Who issued the command (from the secure channel's peer certificate).
struct CallerInfo {
  std::string principal;  // certificate subject; empty on plaintext channels
  net::Address address;
};

class ServiceDaemon {
 public:
  using Handler = std::function<cmdlang::CmdLine(const cmdlang::CmdLine&,
                                                 const CallerInfo&)>;

  ServiceDaemon(Environment& env, DaemonHost& host, DaemonConfig config);
  virtual ~ServiceDaemon();

  ServiceDaemon(const ServiceDaemon&) = delete;
  ServiceDaemon& operator=(const ServiceDaemon&) = delete;

  // Runs the Fig 9 startup sequence and spawns the daemon threads.
  util::Status start();

  // Graceful shutdown: deregisters from the ASD, logs, joins all threads.
  void stop();

  // Simulated failure: tears everything down abruptly *without*
  // deregistering, so the ASD only learns of the death via lease expiry.
  // Volatile in-memory state dies with the "process": notification
  // subscriptions and cached credentials are wiped here, and subclasses
  // drop their own soft state in on_crash(). A later start() on the same
  // object models relaunching the binary on the same machine.
  void crash();

  bool running() const { return running_.load(); }
  const DaemonConfig& config() const { return config_; }
  net::Address address() const;
  net::Address data_address() const;
  const cmdlang::SemanticRegistry& semantics() const { return semantics_; }

  // Executes a command locally (same validation/authorization path as a
  // network command). Used by tests and in-process composition.
  cmdlang::CmdLine execute(const cmdlang::CmdLine& cmd,
                           const CallerInfo& caller);

 protected:
  // Subclass API -----------------------------------------------------------
  void register_command(cmdlang::CommandSpec spec, Handler handler);

  Environment& env() { return env_; }
  DaemonHost& host() { return host_; }

  // Client for use from command handlers (control thread).
  AceClient& control_client() { return *control_client_; }

  // Called after infrastructure registration, before the daemon is
  // considered started. Subclasses register with peer services here.
  virtual util::Status on_start() { return util::Status::ok_status(); }
  virtual void on_stop() {}

  // Called at the end of crash(), after every thread is torn down: drop
  // whatever in-memory state a real process death would lose. The base
  // class has already cleared subscriptions and credential caches.
  virtual void on_crash() {}

  // Data-thread hook: called for each datagram received on the data
  // channel (requires config.open_data_channel).
  virtual void on_datagram(const net::Datagram& datagram) { (void)datagram; }

  // Sends a datagram from this daemon's data socket. The payload is a
  // shared view: pass `util::Bytes` (wrapped once) or an existing
  // `util::SharedBytes` (no copy at all).
  util::Status send_datagram(const net::Address& to,
                             util::SharedBytes payload);

  // Scatter-gather fan-out: one payload to every address in `to` through a
  // single network-core trip, all destinations sharing one buffer.
  util::Status send_datagrams(std::span<const net::Address> to,
                              const util::SharedBytes& payload);

  // Fans out a notification as if `event` had been executed as a command
  // (paper §2.5). Used by sensor daemons whose interesting events are
  // results (e.g. "identified user=john") rather than the triggering
  // command itself. Safe to call from command handlers.
  void emit_notification(const cmdlang::CmdLine& event) {
    fire_notifications(event);
  }

  // Appends to the ACE Network Logger (fire-and-forget).
  void net_log(const std::string& level, const std::string& message);

  const crypto::Identity& identity() const { return identity_; }

 private:
  // The host's LeaseCoordinator renews this daemon's lease and reports a
  // lost one (directory restarted empty) via handle_lease_lost().
  friend class LeaseCoordinator;
  void handle_lease_lost();

  struct NotificationEntry {
    std::string command;  // command being listened for
    net::Address service; // who to notify
    std::string method;   // command to invoke on the notified service
    int failures = 0;
  };

  struct NotifyJob {
    std::string method;
    std::string command;  // the command that fired
    std::string detail;   // serialized original command
  };

  struct WorkItem {
    cmdlang::CmdLine cmd;
    CallerInfo caller;
    std::shared_ptr<crypto::SecureChannel> channel;  // null for local execute
    bool noreply = false;
    std::uint64_t call_id = 0;  // echoed on the reply frame
  };

  // One accepted connection as a reactor actor. Inbound frames are decoded
  // on the core pool (handle_frame); concurrent_ok commands run on `work`,
  // a per-channel strand pumped on the ops pool (per-connection order,
  // cross-connection parallelism); serialized commands go to the daemon's
  // control queue. Dropped from `actors_` when the connection dies.
  struct ChannelActor {
    std::uint64_t id = 0;
    std::shared_ptr<crypto::SecureChannel> channel;
    CallerInfo caller;
    util::MessageQueue<WorkItem> work;
    net::Subscription frame_sub;
    net::Subscription work_sub;
  };

  void handle_accept(std::optional<net::Connection> conn);
  void finish_accept(std::uint64_t pending_id,
                     util::Result<crypto::SecureChannel> ch);
  void handle_frame(const std::shared_ptr<ChannelActor>& actor,
                    std::optional<net::Frame> frame);
  void run_work_item(const WorkItem& item, bool serialize);
  void run_notify_dest(const net::Address& dest);
  void record_notify_failure(const net::Address& dest,
                             const std::string& command);
  void teardown();

  cmdlang::CmdLine dispatch(const cmdlang::CmdLine& cmd,
                            const CallerInfo& caller, bool serialize = true);
  util::Status authorize(const cmdlang::CmdLine& cmd,
                         const CallerInfo& caller);
  void fire_notifications(const cmdlang::CmdLine& cmd);
  void register_builtin_commands();
  util::Status run_startup_sequence();
  util::Status register_with_asd();

  Environment& env_;
  DaemonHost& host_;
  DaemonConfig config_;
  crypto::Identity identity_;

  cmdlang::SemanticRegistry semantics_;
  struct HandlerEntry {
    Handler fn;
    obs::Histogram* latency = nullptr;  // daemon.cmd.<verb>.latency_us
  };
  std::map<std::string, HandlerEntry> handlers_;

  std::shared_ptr<net::Listener> listener_;
  std::shared_ptr<net::DatagramSocket> data_socket_;

  std::unique_ptr<AceClient> control_client_;
  std::unique_ptr<AceClient> notify_client_;
  std::unique_ptr<AceClient> infra_client_;  // lease renewal + registration

  // Notify pump: the queue carries destination *tokens*, the events
  // themselves accumulate per destination in notify_pending_. A token is
  // pushed only on a destination's empty→non-empty transition, so however
  // many events pile up between drains, each destination is visited once
  // and its whole backlog rides one notifyBatch frame.
  util::MessageQueue<net::Address> notify_queue_;
  std::mutex notify_pending_mu_;
  std::map<net::Address, std::vector<NotifyJob>> notify_pending_;
  util::MessageQueue<WorkItem> control_queue_;
  std::mutex exec_mu_;  // serializes dispatch (control pump + local execute)

  // Raw accepted connections whose async handshake is in flight, keyed by
  // a ticket id. stop() closes them all and waits for the registry to
  // drain (each async completion erases its entry), so no handshake
  // callback can outlive the daemon.
  std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  std::map<std::uint64_t, net::Connection> pending_handshakes_;
  std::uint64_t next_pending_id_ = 1;

  std::mutex actors_mu_;
  std::map<std::uint64_t, std::shared_ptr<ChannelActor>> actors_;
  std::uint64_t next_actor_id_ = 1;

  mutable std::mutex notify_mu_;
  std::vector<NotificationEntry> notifications_;

  mutable std::mutex cred_mu_;
  struct CachedCredentials {
    std::vector<keynote::Assertion> credentials;
    std::chrono::steady_clock::time_point fetched;
  };
  std::map<std::string, CachedCredentials> credential_cache_;

  // Cached obs cells (deployment registry, `daemon.*` names).
  obs::Counter* obs_cmd_executed_;
  obs::Counter* obs_cmd_rejected_;
  obs::Counter* obs_auth_denied_;
  obs::Counter* obs_notify_sent_;
  obs::Counter* obs_notify_batches_;         // daemon.notify_batches
  obs::Counter* obs_notify_batched_events_;  // daemon.notify_batched_events
  obs::Counter* obs_conn_accepted_;
  obs::Counter* obs_datagrams_;
  obs::Gauge* obs_control_depth_;
  obs::Gauge* obs_notify_depth_;
  obs::Gauge* obs_handshake_queued_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Reactor registrations replacing the accept/handshake/control/notifier/
  // data threads. Per-connection pumps live in ChannelActor.
  net::Subscription accept_sub_;
  net::Subscription control_sub_;
  net::Subscription notify_sub_;
  net::Subscription data_sub_;
};

}  // namespace ace::daemon

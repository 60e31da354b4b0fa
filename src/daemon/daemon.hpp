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
//    notification fan-out ships through an Outbox, one lane per
//    destination, so two daemons notifying each other cannot deadlock and
//    a stalled subscriber delays no other. A command declared nonblocking
//    runs on the core worker that decoded it instead, when its lane
//    (control queue or strand) is idle and its KeyNote verdict is cached
//    as an allow: one thread hand-off fewer, every check still made. A
//    concurrent_ok command may answer later through a Reply (the deferred
//    form of register_command), so a handler that waits on other daemons
//    parks no thread. Semantics are unchanged — per-connection command
//    order, one serialized control stream, concurrent_ok commands running
//    in parallel — but thread count is O(reactor pool), not O(connections).
//    See docs/net.md.
//  * command language integration (§2.2): incoming strings are parsed and
//    validated against this daemon's SemanticRegistry before execution.
//  * service hierarchy (§2.3): subclasses inherit the base "Service"
//    commands and add their own (see devices.hpp and src/services/).
//  * notifications (§2.5): addNotification/removeNotification plus fan-out
//    after successful command execution.
//  * startup (§2.6, Fig 9): Room Database -> ASD registration (with lease)
//    -> Network Logger, then periodic lease renewal.
//  * security (§3): per-connection secure-channel handshake; optional
//    per-command KeyNote authorization against the Authorization Database,
//    with each (principal, command) verdict cached alongside the
//    principal's credentials.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <list>
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
#include "daemon/outbox.hpp"
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

// The answer a deferred handler owes its caller (the deferred form of
// ServiceDaemon::register_command). Move-only. send() answers once, from
// any thread, and never blocks; a Reply destroyed unsent answers
// `error code=unavailable`. Its daemon's stop() and crash() return only
// once every Reply is answered, so whatever holds one must let it go.
class Reply {
 public:
  Reply();
  Reply(Reply&& other) noexcept;
  Reply& operator=(Reply&& other) noexcept;  // answers the Reply it replaces
  ~Reply();

  void send(cmdlang::CmdLine reply);

 private:
  friend class ServiceDaemon;
  struct State;
  explicit Reply(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

class ServiceDaemon {
 public:
  using Handler = std::function<cmdlang::CmdLine(const cmdlang::CmdLine&,
                                                 const CallerInfo&)>;
  using DeferredHandler = std::function<void(const cmdlang::CmdLine&,
                                             const CallerInfo&, Reply)>;

  ServiceDaemon(Environment& env, DaemonHost& host, DaemonConfig config);
  virtual ~ServiceDaemon();

  ServiceDaemon(const ServiceDaemon&) = delete;
  ServiceDaemon& operator=(const ServiceDaemon&) = delete;

  // Runs the Fig 9 startup sequence and arms the daemon's actors and duties.
  util::Status start();

  // Graceful shutdown: deregisters from the ASD, logs, ends every activity.
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
  // network command), waiting for a deferred handler's Reply. Used by
  // tests and in-process composition.
  cmdlang::CmdLine execute(const cmdlang::CmdLine& cmd,
                           const CallerInfo& caller);

 protected:
  // Subclass API -----------------------------------------------------------
  void register_command(cmdlang::CommandSpec spec, Handler handler);
  // The deferred form, for concurrent_ok commands only (a check aborts
  // otherwise; the control lane stays synchronous): the handler answers
  // through its Reply, at once or later from any thread, so it may start
  // nested calls with the client's callback forms and return. Its strand
  // is free again once it returns, so the next command on the connection
  // runs meanwhile; a nonblocking one may run inline like any other. The
  // command's `daemon cmd` span and latency histogram run until the reply,
  // and its notifications fire as it answers ok.
  void register_command(cmdlang::CommandSpec spec, DeferredHandler handler);

  Environment& env() { return env_; }
  DaemonHost& host() { return host_; }

  // The daemon's one client, built with it and kept for its whole life.
  // Every outbound call rides it: command handlers, notification fan-out,
  // the Fig 9 registration and logging, and each subclass's duties, so a
  // destination gets one channel and one circuit breaker. Usable before
  // start(); stop() and crash() close its channels last, once everything
  // that calls through it has ended.
  AceClient& control_client() { return client_; }

  // Called after infrastructure registration, before the daemon is
  // considered started. Subclasses register with peer services here.
  virtual util::Status on_start() { return util::Status::ok_status(); }
  virtual void on_stop() {}

  // Called at the end of crash(), after every thread is torn down: drop
  // whatever in-memory state a real process death would lose. The base
  // class has already cleared subscriptions and credential caches.
  virtual void on_crash() {}

  // Arms a periodic duty (a net::PeriodicTask) for this life of the
  // daemon; call from on_start(). stop() and crash() end every duty,
  // waiting out a running tick, before on_stop()/on_crash(): periodic work
  // dies with the process. A tick may poll running() to quit early.
  void start_duty(std::chrono::milliseconds period, std::function<void()> tick,
                  bool at_once = false);

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

  // Appends to the ACE Network Logger (fire-and-forget; never blocks: with
  // no live channel to the logger it connects on the ops pool).
  void net_log(const std::string& level, const std::string& message);

  const crypto::Identity& identity() const { return identity_; }

 private:
  // The host's LeaseCoordinator renews this daemon's lease and reports a
  // lost one (directory restarted empty) via handle_lease_lost().
  friend class LeaseCoordinator;
  void handle_lease_lost();
  friend class Reply;

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
  // control queue. Dropped from `actors_` once the connection died and
  // the strand has run its backlog.
  struct ChannelActor {
    std::uint64_t id = 0;
    std::shared_ptr<crypto::SecureChannel> channel;
    CallerInfo caller;
    util::MessageQueue<WorkItem> work;
    std::atomic<int> load{0};  // items pushed to `work`, not yet executed
    net::Subscription frame_sub;
    net::Subscription work_sub;
  };

  void handle_accept(std::optional<net::Connection> conn);
  void finish_accept(std::uint64_t pending_id,
                     util::Result<crypto::SecureChannel> ch);
  void handle_frame(const std::shared_ptr<ChannelActor>& actor,
                    std::optional<net::Frame> frame);
  bool run_inline(ChannelActor& actor, const WorkItem& item, bool concurrent);
  void run_work_item(const WorkItem& item, bool serialize,
                     std::atomic<int>& lane);
  void ship_notifications(const net::Address& dest,
                          std::vector<NotifyJob> jobs,
                          Outbox<NotifyJob>::Settled settled);
  void record_notify_outcome(const net::Address& dest,
                             const std::vector<NotifyJob>& jobs,
                             bool delivered);
  void teardown();

  struct HandlerEntry;
  // The one dispatch body of every path: validation, authorization, the
  // handler (under exec_mu_ when `serialize`), its histogram and span,
  // notifications. `cached_allow` means run_inline already read an allow
  // verdict for this command from the cache; it stands in for authorize().
  // A deferred handler answers through a Reply to `item`'s channel and
  // nullopt comes back; with no `item` (execute()) dispatch waits for it.
  std::optional<cmdlang::CmdLine> dispatch(const cmdlang::CmdLine& cmd,
                                           const CallerInfo& caller,
                                           bool serialize,
                                           bool cached_allow = false,
                                           const WorkItem* item = nullptr);
  std::optional<cmdlang::CmdLine> dispatch_deferred(
      HandlerEntry& handler, const cmdlang::CmdLine& cmd,
      const CallerInfo& caller, bool cached_allow, const WorkItem* item);
  // Validation and authorization: the error reply, or nullopt to run the
  // handler.
  std::optional<cmdlang::CmdLine> admit(const cmdlang::CmdLine& cmd,
                                        const CallerInfo& caller,
                                        bool cached_allow, obs::Span& span);
  // A deferred command's end: its histogram, span and notifications, the
  // frame, its release from replies_owed_, and last execute()'s waiter.
  void answer(std::unique_ptr<Reply::State> state, cmdlang::CmdLine reply);
  // Waits until every Reply this daemon handed out is answered.
  void await_replies();
  util::Status authorize(const cmdlang::CmdLine& cmd,
                         const CallerInfo& caller);
  // The verdict cache alone, never a fetch or a KeyNote run: the verdict
  // reached for (principal, command) under trust epoch `epoch` on
  // credentials still inside their TTL, if any. On a miss it hands out
  // those live credentials and their generation when asked, so that
  // authorize() reads the cache once.
  std::optional<bool> cached_verdict(
      const std::string& principal, const std::string& command,
      std::uint64_t epoch,
      std::vector<keynote::Assertion>* credentials = nullptr,
      std::uint64_t* generation = nullptr) const;
  void fire_notifications(const cmdlang::CmdLine& cmd);
  // The `log` command net_log sends, or nullopt when this daemon does not
  // log to a Network Logger.
  std::optional<cmdlang::CmdLine> log_command(const std::string& level,
                                              const std::string& message) const;
  void register_builtin_commands();
  void end_duties();
  util::Status run_startup_sequence();
  util::Status register_with_asd();

  Environment& env_;
  DaemonHost& host_;
  DaemonConfig config_;
  crypto::Identity identity_;
  AceClient client_;  // see control_client()

  cmdlang::SemanticRegistry semantics_;
  struct HandlerEntry {
    Handler fn;                // one of fn and deferred is set
    DeferredHandler deferred;
    obs::Histogram* latency = nullptr;  // daemon.cmd.<verb>.latency_us
  };
  std::map<std::string, HandlerEntry> handlers_;

  std::shared_ptr<net::Listener> listener_;
  std::shared_ptr<net::DatagramSocket> data_socket_;

  util::MessageQueue<WorkItem> control_queue_;
  // Items pushed to control_queue_ and not yet executed; start() resets it
  // with the queue, whose leftovers a stop() or crash() strands.
  std::atomic<int> control_load_{0};
  // Serializes dispatch (control pump, inline serialized commands, local
  // execute).
  std::mutex exec_mu_;

  // Replies handed to deferred handlers and not yet answered.
  std::mutex replies_mu_;
  std::condition_variable replies_cv_;
  int replies_owed_ = 0;

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

  mutable std::mutex notify_mu_;  // guards notifications_
  std::vector<NotificationEntry> notifications_;
  // Open from start() to teardown(); events before start() or after
  // stop()/crash() are dropped.
  Outbox<NotifyJob> notify_outbox_;

  // Per principal: the credentials last fetched from the Authorization
  // Database, and the KeyNote verdicts reached on them, keyed by command
  // (the rest of the action comes from config_, so (principal, command)
  // decides the answer). The whole entry lives for credential_cache_ttl; a
  // verdict is used only under the Environment trust epoch it was computed
  // in. `generation` is unique per fetch, so a verdict computed from one
  // fetch is never stored into a later one.
  struct Verdict {
    bool allowed = false;
    std::uint64_t trust_epoch = 0;
  };
  struct CachedCredentials {
    std::vector<keynote::Assertion> credentials;
    std::chrono::steady_clock::time_point fetched;
    std::uint64_t generation = 0;
    std::map<std::string, Verdict> verdicts;
  };
  mutable std::mutex cred_mu_;
  std::map<std::string, CachedCredentials> credential_cache_;
  std::uint64_t credential_generation_ = 0;

  // Cached obs cells (deployment registry, `daemon.*` names).
  obs::Counter* obs_cmd_executed_;
  obs::Counter* obs_cmd_rejected_;
  obs::Counter* obs_auth_denied_;
  obs::Counter* obs_auth_verdict_hits_;  // answered without KeyNote
  obs::Counter* obs_notify_sent_;
  obs::Counter* obs_notify_batches_;         // daemon.notify_batches
  obs::Counter* obs_notify_batched_events_;  // daemon.notify_batched_events
  obs::Counter* obs_conn_accepted_;
  obs::Counter* obs_datagrams_;
  obs::Gauge* obs_control_depth_;
  obs::Gauge* obs_handshake_queued_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // From teardown()'s close of the client to the next start(): a
  // notification shipment drops its events rather than reconnect.
  std::atomic<bool> drop_notifications_{false};

  // Reactor registrations replacing the accept/handshake/control/notifier/
  // data threads. Per-connection pumps live in ChannelActor.
  net::Subscription accept_sub_;
  net::Subscription control_sub_;
  net::Subscription data_sub_;

  // This life's periodic duties (start_duty).
  std::mutex duties_mu_;
  std::list<net::PeriodicTask> duties_;
};

}  // namespace ace::daemon

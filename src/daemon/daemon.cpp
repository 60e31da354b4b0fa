#include "daemon/daemon.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "daemon/host.hpp"
#include "daemon/lease.hpp"
#include "daemon/wire.hpp"
#include "keynote/checker.hpp"
#include "util/log.hpp"

namespace ace::daemon {

using namespace std::chrono_literals;
using cmdlang::CmdLine;
using cmdlang::CommandSpec;
using cmdlang::Word;

namespace {

constexpr int kMaxNotifyFailures = 3;

// Echoes the request's call-id so the client demux can route the reply.
void send_reply(crypto::SecureChannel& ch, std::uint64_t call_id,
                const CmdLine& reply) {
  (void)ch.send(wire::encode_frame(call_id, 0, reply.to_string()));
}

const std::string& principal_of(const CallerInfo& caller) {
  static const std::string kAnonymous = "anonymous";
  return caller.principal.empty() ? kAnonymous : caller.principal;
}

}  // namespace

cmdlang::CmdLine encode_metrics_reply(const obs::MetricsSnapshot& snapshot) {
  CmdLine reply = cmdlang::make_ok();
  std::vector<std::string> counters, gauges, histograms;
  counters.reserve(snapshot.counters.size());
  for (const auto& c : snapshot.counters)
    counters.push_back(c.name + "=" + std::to_string(c.value));
  gauges.reserve(snapshot.gauges.size());
  for (const auto& g : snapshot.gauges)
    gauges.push_back(g.name + "=" + std::to_string(g.value));
  histograms.reserve(snapshot.histograms.size());
  for (const auto& h : snapshot.histograms) {
    std::string entry = h.name + "|count=" + std::to_string(h.hist.count) +
                        "|sum_us=" + std::to_string(h.hist.sum_us);
    for (std::size_t i = 0; i < obs::Histogram::kBucketBoundsUs.size(); ++i)
      entry += "|le_" + std::to_string(obs::Histogram::kBucketBoundsUs[i]) +
               "=" + std::to_string(h.hist.buckets[i]);
    entry += "|le_inf=" +
             std::to_string(h.hist.buckets[obs::Histogram::kBucketCount - 1]);
    histograms.push_back(std::move(entry));
  }
  reply.arg("counters", cmdlang::string_vector(std::move(counters)));
  reply.arg("gauges", cmdlang::string_vector(std::move(gauges)));
  reply.arg("histograms", cmdlang::string_vector(std::move(histograms)));
  reply.arg("spans", static_cast<std::int64_t>(snapshot.spans_recorded));
  return reply;
}

// ------------------------------------------------------------------ replies

// A deferred command in flight: where its answer goes (the wire, or
// execute()'s waiter) and what ends with it (span, histogram, event).
struct Reply::State {
  State(ServiceDaemon& d, obs::MetricsRegistry& metrics)
      : daemon(d), span(metrics, "daemon", "cmd") {}

  ServiceDaemon& daemon;
  obs::Span span;
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  obs::Histogram* latency = nullptr;
  std::optional<CmdLine> event;  // kept only when someone listens for it
  std::shared_ptr<crypto::SecureChannel> channel;
  std::uint64_t call_id = 0;
  bool noreply = false;
  std::shared_ptr<Completion<CmdLine>> local;  // execute()'s
};

Reply::Reply() = default;

Reply::Reply(std::unique_ptr<State> state) : state_(std::move(state)) {}

Reply::Reply(Reply&& other) noexcept = default;

Reply& Reply::operator=(Reply&& other) noexcept {
  if (this != &other) {
    Reply old(std::move(*this));
    state_ = std::move(other.state_);
  }
  return *this;
}

Reply::~Reply() {
  if (state_)
    send(cmdlang::make_error(util::Errc::unavailable,
                             "the command ended without a reply"));
}

void Reply::send(CmdLine reply) {
  if (!state_) return;
  ServiceDaemon& daemon = state_->daemon;
  daemon.answer(std::move(state_), std::move(reply));
}

ServiceDaemon::ServiceDaemon(Environment& env, DaemonHost& host,
                             DaemonConfig config)
    : env_(env),
      host_(host),
      config_(std::move(config)),
      identity_(env.issue_identity("svc/" + config_.name)),
      client_(env, host.net_host(), identity_),
      obs_cmd_executed_(&env.metrics().counter("daemon.cmd.executed")),
      obs_cmd_rejected_(&env.metrics().counter("daemon.cmd.rejected")),
      obs_auth_denied_(&env.metrics().counter("daemon.auth.denied")),
      obs_auth_verdict_hits_(
          &env.metrics().counter("daemon.auth.verdict_hits")),
      obs_notify_sent_(&env.metrics().counter("daemon.notify.sent")),
      obs_notify_batches_(&env.metrics().counter("daemon.notify_batches")),
      obs_notify_batched_events_(
          &env.metrics().counter("daemon.notify_batched_events")),
      obs_conn_accepted_(&env.metrics().counter("daemon.conn.accepted")),
      obs_datagrams_(&env.metrics().counter("daemon.data.datagrams")),
      obs_control_depth_(&env.metrics().gauge("daemon.queue.control_depth")),
      obs_handshake_queued_(&env.metrics().gauge("daemon.handshake.queued")) {
  register_builtin_commands();
}

ServiceDaemon::~ServiceDaemon() { stop(); }

net::Address ServiceDaemon::address() const {
  return net::Address{host_.name(), config_.port};
}

net::Address ServiceDaemon::data_address() const {
  return net::Address{host_.name(), config_.port};
}

void ServiceDaemon::register_command(CommandSpec spec, Handler handler) {
  // The per-verb latency histogram is resolved once here so dispatch
  // touches only atomics.
  handlers_[spec.name] = HandlerEntry{
      std::move(handler), {},
      &env_.metrics().histogram("daemon.cmd." + spec.name + ".latency_us")};
  semantics_.add(std::move(spec));
}

void ServiceDaemon::register_command(CommandSpec spec,
                                     DeferredHandler handler) {
  // The control lane runs one command at a time to its end; a deferred
  // reply would let the next one start before it.
  if (!spec.concurrent) {
    std::fprintf(stderr,
                 "ace: deferred handler on serialized command '%s'\n",
                 spec.name.c_str());
    std::abort();
  }
  handlers_[spec.name] = HandlerEntry{
      {}, std::move(handler),
      &env_.metrics().histogram("daemon.cmd." + spec.name + ".latency_us")};
  semantics_.add(std::move(spec));
}

void ServiceDaemon::register_builtin_commands() {
  using cmdlang::integer_arg;
  using cmdlang::string_arg;
  using cmdlang::text_arg;
  using cmdlang::word_arg;

  register_command(
      CommandSpec("ping", "liveness probe").nonblocking(),
      [](const CmdLine&, const CallerInfo&) { return cmdlang::make_ok(); });

  register_command(
      CommandSpec("info", "describe this service daemon").nonblocking(),
      [this](const CmdLine&, const CallerInfo&) {
        CmdLine reply = cmdlang::make_ok();
        reply.arg("name", config_.name);
        reply.arg("class", config_.service_class);
        reply.arg("room", config_.room);
        reply.arg("host", host_.name());
        reply.arg("port", static_cast<std::int64_t>(config_.port));
        reply.arg("commands",
                  cmdlang::word_vector(semantics_.command_names()));
        return reply;
      });

  register_command(
      CommandSpec("help", "describe one command")
          .arg(word_arg("command"))
          .nonblocking(),
      [this](const CmdLine& cmd, const CallerInfo&) {
        const cmdlang::CommandSpec* spec =
            semantics_.find(cmd.get_text("command"));
        if (!spec)
          return cmdlang::make_error(util::Errc::not_found,
                                     "no such command");
        CmdLine reply = cmdlang::make_ok();
        reply.arg("command", Word{spec->name});
        reply.arg("help", spec->help);
        std::vector<std::string> args;
        for (const auto& a : spec->args)
          args.push_back(a.name + ":" + cmdlang::arg_type_name(a.type) +
                         (a.required ? "" : "?"));
        reply.arg("args", cmdlang::string_vector(std::move(args)));
        return reply;
      });

  // §2.5: "they issue an 'addNotification' command to the notifying
  // service either at startup or later."
  register_command(
      CommandSpec("addNotification",
                  "notify `service` by invoking `method` whenever `command` "
                  "is executed here")
          .arg(word_arg("command"))
          .arg(string_arg("service"))   // host:port
          .arg(word_arg("method")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto addr = net::Address::parse(cmd.get_text("service"));
        if (!addr)
          return cmdlang::make_error(util::Errc::invalid,
                                     "service must be host:port");
        NotificationEntry entry;
        entry.command = cmd.get_text("command");
        entry.service = *addr;
        entry.method = cmd.get_text("method");
        std::scoped_lock lock(notify_mu_);
        for (const auto& e : notifications_) {
          if (e.command == entry.command && e.service == entry.service &&
              e.method == entry.method)
            return cmdlang::make_ok();  // idempotent
        }
        notifications_.push_back(std::move(entry));
        return cmdlang::make_ok();
      });

  register_command(
      CommandSpec("removeNotification", "stop notifying `service`")
          .arg(word_arg("command"))
          .arg(string_arg("service")),
      [this](const CmdLine& cmd, const CallerInfo&) {
        auto addr = net::Address::parse(cmd.get_text("service"));
        if (!addr)
          return cmdlang::make_error(util::Errc::invalid,
                                     "service must be host:port");
        std::string command = cmd.get_text("command");
        std::scoped_lock lock(notify_mu_);
        std::erase_if(notifications_, [&](const NotificationEntry& e) {
          return e.command == command && e.service == *addr;
        });
        return cmdlang::make_ok();
      });

  // Observability scrape point: every daemon inherits `metrics;`, so the
  // ACE shell and tests can pull the deployment's metric snapshot from any
  // service remotely. Thread-safe (registry snapshot), hence concurrent.
  register_command(
      CommandSpec("metrics", "deployment metrics snapshot").concurrent_ok(),
      [this](const CmdLine&, const CallerInfo&) {
        return encode_metrics_reply(env_.metrics().snapshot());
      });

  register_command(
      CommandSpec("listNotifications", "list notification subscriptions")
          .nonblocking(),
      [this](const CmdLine&, const CallerInfo&) {
        CmdLine reply = cmdlang::make_ok();
        std::vector<std::string> entries;
        {
          std::scoped_lock lock(notify_mu_);
          for (const auto& e : notifications_)
            entries.push_back(e.command + ">" + e.service.to_string() + ">" +
                              e.method);
        }
        reply.arg("entries", cmdlang::string_vector(std::move(entries)));
        return reply;
      });

  // Receiver side of coalesced notification fan-out: each element of
  // `events` is one serialized notification command (the exact text a
  // per-event send would have framed), re-dispatched here through the same
  // validation/authorization path as a wire delivery. concurrent_ok is
  // load-bearing, not an optimization: dispatch(serialize=true) holds the
  // non-recursive exec_mu_, so a serialized handler calling execute() on
  // its own elements would self-deadlock.
  register_command(
      CommandSpec("notifyBatch",
                  "deliver a batch of coalesced notification events")
          .arg(string_arg("source"))
          .arg(cmdlang::vector_arg("events", cmdlang::ArgType::vector_string))
          .concurrent_ok(),
      [this](const CmdLine& cmd, const CallerInfo& caller) {
        std::int64_t dispatched = 0, rejected = 0;
        if (auto events = cmd.get_vector("events")) {
          for (const auto& elem : events->elements) {
            auto inner = cmdlang::Parser::parse(elem.as_text());
            if (!inner.ok()) {
              ++rejected;
              continue;
            }
            if (cmdlang::is_ok(execute(inner.value(), caller)))
              ++dispatched;
            else
              ++rejected;
          }
        }
        CmdLine reply = cmdlang::make_ok();
        reply.arg("dispatched", dispatched);
        reply.arg("rejected", rejected);
        return reply;
      });
}

// ------------------------------------------------------------------ startup

util::Status ServiceDaemon::run_startup_sequence() {
  // Fig 9, steps 2-5. Step 1 (launch) is start() itself.
  const net::Address self = address();

  // Step 2: establish location with the Room Database.
  if (config_.register_with_room_db && !env_.room_db_address.host.empty() &&
      env_.room_db_address != self) {
    CmdLine reg("roomAddService");
    reg.arg("room", Word{config_.room});
    reg.arg("name", config_.name);
    reg.arg("host", host_.name());
    reg.arg("port", static_cast<std::int64_t>(config_.port));
    reg.arg("class", config_.service_class);
    auto r = client_.call(env_.room_db_address, reg, kCallOk);
    if (!r.ok())
      util::log_warn(config_.name)
          << "room database registration failed: " << r.error().to_string();
  }

  // Step 3: register with the ASD on its well-known socket.
  if (config_.register_with_asd && !env_.asd_address.host.empty() &&
      env_.asd_address != self) {
    if (auto s = register_with_asd(); !s.ok())
      return util::Error{s.error().code,
                         "ASD registration failed: " + s.error().message};
  }

  // Step 4 happens inside the ASD (registration fires its notifications).

  // Step 5: record the start with the Network Logger. Like the steps
  // above, start() sends it before it returns, so the logger's channel is
  // up, or known to be down, once the daemon is started.
  if (auto log = log_command("info", "service '" + config_.name +
                                         "' started on host '" +
                                         host_.name() + "'"))
    (void)client_.send_only(env_.net_logger_address, *log);
  return util::Status::ok_status();
}

util::Status ServiceDaemon::register_with_asd() {
  CmdLine reg("register");
  reg.arg("name", config_.name);
  reg.arg("host", host_.name());
  reg.arg("port", static_cast<std::int64_t>(config_.port));
  reg.arg("room", Word{config_.room});
  reg.arg("class", config_.service_class);
  reg.arg("lease", static_cast<std::int64_t>(config_.lease.count()));
  auto r = client_.call(env_.asd_address, reg, kCallOk);
  if (!r.ok()) return r.error();
  return util::Status::ok_status();
}

util::Status ServiceDaemon::start() {
  if (running_.load()) return util::Status::ok_status();
  stopping_.store(false);
  // A prior stop()/crash() on this object closed the work queues; a
  // relaunch needs them accepting again (stale leftovers are dropped, and
  // with them their share of the control lane's count, which would
  // otherwise keep the inline path off for this whole life).
  control_queue_.reopen();
  control_load_.store(0);

  if (config_.port == 0) config_.port = host_.net_host().ephemeral_port();
  auto listener = host_.net_host().listen(config_.port);
  if (!listener.ok()) return listener.error();
  listener_ = listener.value();

  if (config_.open_data_channel) {
    auto sock = host_.net_host().open_datagram(config_.port);
    if (!sock.ok()) return sock.error();
    data_socket_ = sock.value();
  }

  // The serving pumps must be registered before the startup sequence: the
  // ASD may call us back (and the ASD itself must serve while registering
  // nothing). Command execution may block (nested RPCs), so both the
  // control pump and the per-channel strands run on the ops pool; frame
  // decode, accept/handshake and inline nonblocking commands stay on the
  // core pool.
  running_.store(true);
  drop_notifications_.store(false);
  net::Reactor& reactor = env_.reactor();
  notify_outbox_.open([this](const net::Address& dest,
                              std::vector<NotifyJob> jobs,
                              Outbox<NotifyJob>::Settled settled) {
    ship_notifications(dest, std::move(jobs), settled);
  });
  accept_sub_ = listener_->on_accept(
      reactor,
      [this](std::optional<net::Connection> conn) {
        handle_accept(std::move(conn));
      });
  control_sub_ = net::attach_queue<WorkItem>(
      reactor, control_queue_,
      [this](std::optional<WorkItem> item) {
        if (!item) return;
        obs_control_depth_->set(
            static_cast<std::int64_t>(control_queue_.size()));
        run_work_item(*item, /*serialize=*/true, control_load_);
      },
      {.blocking = true});
  if (data_socket_)
    data_sub_ = data_socket_->on_datagram(
        reactor,
        [this](std::optional<net::Datagram> dg) {
          if (!dg) return;
          on_datagram(*dg);
          // Counted once handled, so a reader of the counter finds what
          // on_datagram stored.
          obs_datagrams_->inc();
        },
        {.blocking = true});

  if (auto s = run_startup_sequence(); !s.ok()) {
    stop();
    return s;
  }
  if (auto s = on_start(); !s.ok()) {
    stop();
    return s;
  }

  if (config_.register_with_asd && !env_.asd_address.host.empty() &&
      env_.asd_address != address())
    host_.leases().enroll(*this);
  return util::Status::ok_status();
}

void ServiceDaemon::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);

  // Leave the host's renewal batch before anything is torn down — after
  // withdraw() returns, no coordinator tick can call back into us, and a
  // stray renewal cannot resurrect the entry we deregister below.
  host_.leases_withdraw(config_.name);
  end_duties();

  on_stop();

  // Deregister cleanly (paper §2.4: "Registered services also automatically
  // remove themselves from the ASD registry upon shutdown").
  if (config_.register_with_asd && !env_.asd_address.host.empty() &&
      env_.asd_address != address()) {
    CmdLine dereg("deregister");
    dereg.arg("name", config_.name);
    (void)client_.call(env_.asd_address, dereg, CallOptions{.timeout = 500ms});
  }
  net_log("info", "service '" + config_.name + "' stopped");
  teardown();
  await_replies();
  // Last: on_stop() has ended the subclass's rounds, batches and repairs,
  // teardown() the handlers and the notification outbox, and every
  // deferred command has answered, so nothing that calls through the
  // client is left to reconnect it.
  client_.close_all();
}

// Tears down every reactor registration and accepted connection. Order
// matters: stop the accept pump first (no new handshakes), then abort and
// await in-flight handshakes (no new actors), then kill the actors, then
// close the daemon-wide queues nothing can push to anymore, and only then
// close the client and the notification outbox.
void ServiceDaemon::teardown() {
  if (listener_) listener_->close();
  accept_sub_.stop();

  {
    // Closing a pending connection makes its async handshake fail; each
    // completion erases its registry entry, so an empty registry means no
    // handshake callback is left that could spawn an actor or touch us.
    std::unique_lock lock(pending_mu_);
    for (auto& [id, conn] : pending_handshakes_) conn.close();
    pending_cv_.wait(lock, [this] { return pending_handshakes_.empty(); });
  }

  std::map<std::uint64_t, std::shared_ptr<ChannelActor>> actors;
  {
    std::scoped_lock lock(actors_mu_);
    actors.swap(actors_);
  }
  for (auto& [id, actor] : actors) {
    // Mirror a real socket: when the daemon dies, its connections die with
    // it. Without this, a peer of a crashed daemon sees eternal silence
    // instead of a closed channel and times out every call rather than
    // failing fast and reconnecting after a relaunch.
    actor->channel->close();
    actor->frame_sub.stop();
    actor->work.close();
    actor->work_sub.stop();
  }

  if (data_socket_) data_socket_->close();
  data_sub_.stop();
  control_queue_.close();
  control_sub_.stop();
  // Ends a notification handshake under way, so closing the outbox below
  // does not wait out a stalled subscriber; a shipment that starts after
  // this drops its events rather than reconnect. Undelivered events die
  // with the daemon, like frames a dead process never wrote.
  drop_notifications_.store(true);
  client_.close_all();
  (void)notify_outbox_.close();

  listener_.reset();
  data_socket_.reset();
}

void ServiceDaemon::crash() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // No deregistration, no logging — the ASD must detect this via lease
  // expiry (paper §2.4). A crashed process is no longer resident, so the
  // host's coordinator stops renewing for it and the lease lapses.
  host_.leases_withdraw(config_.name);
  end_duties();
  teardown();
  // Every handler has ended; so must their deferred replies, before the
  // state they work on dies below.
  await_replies();
  // A real crash loses the process's volatile state. Anything re-derivable
  // (subscriptions, cached credentials, subclass soft state) must be
  // re-established by peers after a restart — which is exactly what the
  // self-healing paths (RM watchdog, lease re-registration) exercise.
  {
    std::scoped_lock lock(notify_mu_);
    notifications_.clear();
  }
  {
    std::scoped_lock lock(cred_mu_);
    credential_cache_.clear();
  }
  on_crash();
  client_.close_all();  // last, as in stop()
}

void ServiceDaemon::await_replies() {
  net::expect_may_block("ServiceDaemon::await_replies");
  std::unique_lock lock(replies_mu_);
  replies_cv_.wait(lock, [this] { return replies_owed_ == 0; });
}

void ServiceDaemon::start_duty(std::chrono::milliseconds period,
                               std::function<void()> tick, bool at_once) {
  std::scoped_lock lock(duties_mu_);
  duties_.emplace_back(env_.reactor(), std::move(tick)).start(period, at_once);
}

void ServiceDaemon::end_duties() {
  std::list<net::PeriodicTask> duties;  // stopped as it dies, after unlock
  std::scoped_lock lock(duties_mu_);
  duties.swap(duties_);
}

// -------------------------------------------------------------------- actors

void ServiceDaemon::handle_accept(std::optional<net::Connection> conn) {
  if (!conn) return;  // listener closed: the pump self-terminates
  std::uint64_t id;
  {
    std::scoped_lock lock(pending_mu_);
    id = next_pending_id_++;
    // Keep a handle (shared connection state) so teardown() can abort the
    // exchange by closing it under our feet.
    pending_handshakes_.emplace(id, *conn);
    obs_handshake_queued_->set(
        static_cast<std::int64_t>(pending_handshakes_.size()));
  }
  // The DH + certificate exchange is several round trips; as a reactor
  // state machine it costs no thread while waiting, so a slow (or hostile)
  // connector starves nobody and thousands may be in flight at once.
  crypto::SecureChannel::async_accept(
      env_.reactor(), std::move(*conn), identity_, env_.ca_key(),
      env_.default_timeout, env_.channel_options(),
      [this, id](util::Result<crypto::SecureChannel> ch) {
        finish_accept(id, std::move(ch));
      });
}

void ServiceDaemon::finish_accept(std::uint64_t pending_id,
                                  util::Result<crypto::SecureChannel> ch) {
  if (!ch.ok()) {
    if (!stopping_.load())
      util::log_warn(config_.name)
          << "handshake failed: " << ch.error().to_string();
  } else if (stopping_.load()) {
    ch.value().close();  // lost the race with stop(): refuse the channel
  } else {
    obs_conn_accepted_->inc();
    auto channel =
        std::make_shared<crypto::SecureChannel>(std::move(ch.value()));
    auto actor = std::make_shared<ChannelActor>();
    actor->channel = channel;
    actor->caller.principal = channel->peer_name();
    {
      std::scoped_lock lock(actors_mu_);
      actor->id = next_actor_id_++;
      actors_.emplace(actor->id, actor);
    }
    // Strand first, frames second: by the time a frame can enqueue work
    // the work pump exists. Both pumps capture the actor; the captures are
    // released when the pumps hit their terminal state (connection closed,
    // work queue drained), so a dead connection frees its actor. The actor
    // stays in actors_ until its strand has run the backlog, so teardown()
    // waits out a handler still running for a closed connection.
    actor->work_sub = net::attach_queue<WorkItem>(
        env_.reactor(), actor->work,
        [this, actor](std::optional<WorkItem> item) {
          if (item) {
            run_work_item(*item, /*serialize=*/false, actor->load);
            return;
          }
          std::scoped_lock lock(actors_mu_);
          actors_.erase(actor->id);
        },
        {.blocking = true});
    actor->frame_sub = channel->on_frame(
        env_.reactor(), [this, actor](std::optional<net::Frame> frame) {
          handle_frame(actor, std::move(frame));
        });
  }
  std::scoped_lock lock(pending_mu_);
  pending_handshakes_.erase(pending_id);
  obs_handshake_queued_->set(
      static_cast<std::int64_t>(pending_handshakes_.size()));
  if (pending_handshakes_.empty()) pending_cv_.notify_all();
}

// Runs on the core pool: decodes each frame and routes its command to its
// lane, or runs it right here when run_inline() allows.
void ServiceDaemon::handle_frame(const std::shared_ptr<ChannelActor>& actor,
                                 std::optional<net::Frame> frame) {
  if (!frame) {
    // Connection closed and drained. Close the strand: its pump runs the
    // backlog, then forgets the actor.
    actor->work.close();
    return;
  }
  auto decoded = wire::decode_frame(*frame);
  if (!decoded) {  // truncated demux header: no id to reply to
    obs_cmd_rejected_->inc();
    return;
  }
  const bool noreply = (decoded->flags & wire::kFlagNoReply) != 0;
  auto parsed = cmdlang::Parser::parse(decoded->body);
  if (!parsed.ok()) {
    obs_cmd_rejected_->inc();
    if (!noreply)
      send_reply(*actor->channel, decoded->call_id,
                 cmdlang::make_error(parsed.error().code,
                                     parsed.error().message));
    return;
  }
  WorkItem item;
  item.cmd = std::move(parsed.value());
  item.noreply = noreply;
  item.caller = actor->caller;
  item.channel = actor->channel;
  item.call_id = decoded->call_id;

  // Concurrent commands (thread-safe handlers) run on this connection's
  // own strand, so they cannot convoy behind a busy control queue —
  // essential for peer-to-peer hot paths like store replication. Order
  // within one connection is still the arrival order. Each lane counts
  // what was pushed to it and has not finished.
  const cmdlang::CommandSpec* spec = semantics_.find(item.cmd.name());
  const bool concurrent = spec && spec->concurrent;
  if (spec && spec->never_blocks && run_inline(*actor, item, concurrent))
    return;
  if (concurrent) {
    actor->load.fetch_add(1);
    if (!actor->work.push(std::move(item))) actor->load.fetch_sub(1);
    return;
  }
  control_load_.fetch_add(1);
  if (!control_queue_.push(std::move(item))) {  // shutting down
    control_load_.fetch_sub(1);
    return;
  }
  obs_control_depth_->set(static_cast<std::int64_t>(control_queue_.size()));
}

// Runs a nonblocking command to completion on this core worker, sparing
// it the hop to the ops pool, when its lane is idle and authorization
// answers from a cached allow verdict. A serialized command's lane is the
// control queue plus exec_mu_; a concurrent one's is this connection's
// strand. This connection cannot fill either lane meanwhile: its frames
// arrive here one at a time, and only they feed its strand. Anything else
// — a busy lane, an unknown verdict (which fetches credentials), a denial
// (which writes to the Net Logger) — returns false and takes the queue.
bool ServiceDaemon::run_inline(ChannelActor& actor, const WorkItem& item,
                               bool concurrent) {
  if ((concurrent ? actor.load : control_load_).load() != 0) return false;
  const bool enforced = config_.enforce_authorization;
  if (enforced && !cached_verdict(principal_of(item.caller), item.cmd.name(),
                                  env_.trust_epoch())
                       .value_or(false))
    return false;
  std::unique_lock<std::mutex> exec;
  if (!concurrent) {
    exec = std::unique_lock(exec_mu_, std::try_to_lock);
    if (!exec.owns_lock()) return false;
  }
  // exec_mu_, when needed, is held here, so dispatch must not take it.
  auto reply = dispatch(item.cmd, item.caller, /*serialize=*/false,
                        /*cached_allow=*/enforced, &item);
  if (exec) exec.unlock();
  if (reply && !item.noreply) send_reply(*item.channel, item.call_id, *reply);
  return true;
}

// Runs on the ops pool (command handlers may block on nested RPCs). The
// item leaves its lane's count once executed, before the reply goes out,
// so the command a caller sends on reading the reply finds the lane idle.
// A deferred command leaves it as its handler returns.
void ServiceDaemon::run_work_item(const WorkItem& item, bool serialize,
                                  std::atomic<int>& lane) {
  auto reply = dispatch(item.cmd, item.caller, serialize, false, &item);
  lane.fetch_sub(1);
  if (reply && item.channel && !item.noreply)
    send_reply(*item.channel, item.call_id, *reply);
}

CmdLine ServiceDaemon::execute(const CmdLine& cmd, const CallerInfo& caller) {
  // Mirror the network path: commands declared concurrent_ok run without
  // the exec_mu_ serialization, so in-process callers (tests, benches,
  // composition) see the same concurrency the wire sees.
  const cmdlang::CommandSpec* spec = semantics_.find(cmd.name());
  return *dispatch(cmd, caller, /*serialize=*/!(spec && spec->concurrent));
}

std::optional<CmdLine> ServiceDaemon::admit(const CmdLine& cmd,
                                            const CallerInfo& caller,
                                            bool cached_allow,
                                            obs::Span& span) {
  if (auto s = semantics_.validate(cmd); !s.ok()) {
    span.fail();
    obs_cmd_rejected_->inc();
    return cmdlang::make_error(s.error().code, s.error().message);
  }
  if (cached_allow) {
    obs_auth_verdict_hits_->inc();  // run_inline's lookup was authorize()'s
  } else if (auto s = authorize(cmd, caller); !s.ok()) {
    span.fail();
    obs_auth_denied_->inc();
    // §4.14's intrusion example: failed authorization attempts are
    // reported to the Network Logger so repeated offenders raise alerts.
    net_log("security", "authorization denied for principal '" +
                            principal_of(caller) + "' on command '" +
                            cmd.name() + "'");
    return cmdlang::make_error(s.error().code, s.error().message);
  }
  return std::nullopt;
}

std::optional<CmdLine> ServiceDaemon::dispatch(const CmdLine& cmd,
                                               const CallerInfo& caller,
                                               bool serialize,
                                               bool cached_allow,
                                               const WorkItem* item) {
  const auto found = handlers_.find(cmd.name());
  if (found != handlers_.end() && found->second.deferred)
    return dispatch_deferred(found->second, cmd, caller, cached_allow, item);
  obs::Span span(env_.metrics(), "daemon", "cmd");
  const auto started = std::chrono::steady_clock::now();
  if (auto refused = admit(cmd, caller, cached_allow, span)) return refused;
  HandlerEntry& handler = found->second;  // validated: it exists
  CmdLine reply;
  if (serialize) {
    std::scoped_lock lock(exec_mu_);
    reply = handler.fn(cmd, caller);
  } else {
    reply = handler.fn(cmd, caller);  // handler declared thread-safe
  }
  handler.latency->observe(std::chrono::steady_clock::now() - started);
  obs_cmd_executed_->inc();
  span.set_ok(cmdlang::is_ok(reply));
  if (cmdlang::is_ok(reply)) fire_notifications(cmd);
  return reply;
}

std::optional<CmdLine> ServiceDaemon::dispatch_deferred(
    HandlerEntry& handler, const CmdLine& cmd, const CallerInfo& caller,
    bool cached_allow, const WorkItem* item) {
  auto state = std::make_unique<Reply::State>(*this, env_.metrics());
  if (auto refused = admit(cmd, caller, cached_allow, state->span))
    return refused;
  state->latency = handler.latency;
  {
    std::scoped_lock lock(notify_mu_);
    for (const NotificationEntry& e : notifications_)
      if (e.command == cmd.name()) {
        state->event = cmd;
        break;
      }
  }
  std::shared_ptr<Completion<CmdLine>> local;
  if (item) {
    state->channel = item->channel;
    state->call_id = item->call_id;
    state->noreply = item->noreply;
  } else {
    local = std::make_shared<Completion<CmdLine>>(1);
    state->local = local;
  }
  {
    std::scoped_lock lock(replies_mu_);
    ++replies_owed_;
  }
  handler.deferred(cmd, caller, Reply(std::move(state)));
  if (!local) return std::nullopt;
  net::expect_may_block("ServiceDaemon::execute");  // waits for the Reply
  local->wait_until(std::chrono::steady_clock::time_point::max(),
                    Completion<CmdLine>::all_settled);
  return std::move(*local->take()[0]);
}

void ServiceDaemon::answer(std::unique_ptr<Reply::State> state,
                           CmdLine reply) {
  const bool ok = cmdlang::is_ok(reply);
  state->latency->observe(std::chrono::steady_clock::now() - state->started);
  obs_cmd_executed_->inc();
  state->span.set_ok(ok);
  if (ok && state->event) fire_notifications(*state->event);
  if (state->channel && !state->noreply)
    send_reply(*state->channel, state->call_id, reply);
  const std::shared_ptr<Completion<CmdLine>> local = std::move(state->local);
  state.reset();  // ends the span
  {
    // await_replies() may return, and the daemon die, once this is out.
    std::scoped_lock lock(replies_mu_);
    if (--replies_owed_ == 0) replies_cv_.notify_all();
  }
  // And execute() once this is: last.
  if (local) local->complete(0, std::move(reply));
}

std::optional<bool> ServiceDaemon::cached_verdict(
    const std::string& principal, const std::string& command,
    std::uint64_t epoch, std::vector<keynote::Assertion>* credentials,
    std::uint64_t* generation) const {
  std::scoped_lock lock(cred_mu_);
  auto it = credential_cache_.find(principal);
  if (it == credential_cache_.end() ||
      std::chrono::steady_clock::now() - it->second.fetched >=
          config_.credential_cache_ttl)
    return std::nullopt;
  const CachedCredentials& entry = it->second;
  auto verdict = entry.verdicts.find(command);
  if (verdict != entry.verdicts.end() && verdict->second.trust_epoch == epoch)
    return verdict->second.allowed;
  if (credentials) *credentials = entry.credentials;
  if (generation) *generation = entry.generation;
  return std::nullopt;
}

util::Status ServiceDaemon::authorize(const CmdLine& cmd,
                                      const CallerInfo& caller) {
  if (!config_.enforce_authorization) return util::Status::ok_status();

  const std::string& principal = principal_of(caller);
  auto denied = [&] {
    return util::Error{util::Errc::auth_error,
                       "principal '" + principal +
                           "' is not authorized for command '" + cmd.name() +
                           "' on service '" + config_.name + "'"};
  };

  // Read before the policies and keys the check consults: a change that
  // lands during the check leaves its verdict under the older epoch.
  const std::uint64_t epoch = env_.trust_epoch();

  // Fig 10 step 2-4: fetch the caller's credentials from the
  // Authorization Database (with a short-lived cache). A pair already
  // checked on the cached credentials answers from its verdict.
  std::vector<keynote::Assertion> credentials;
  std::uint64_t generation = 0;  // cache entry the verdict belongs to
  if (auto verdict = cached_verdict(principal, cmd.name(), epoch,
                                    &credentials, &generation)) {
    obs_auth_verdict_hits_->inc();
    if (*verdict) return util::Status::ok_status();
    return denied();
  }
  if (generation == 0 && !env_.auth_db_address.host.empty() &&
      env_.auth_db_address != address()) {
    CmdLine fetch("getCredentials");
    fetch.arg("principal", principal);
    auto reply = client_.call(env_.auth_db_address, fetch, kCallOk);
    if (reply.ok()) {
      for (const std::string& text : reply->get_strings("credentials")) {
        auto a = keynote::Assertion::parse(text);
        if (a.ok()) credentials.push_back(std::move(a.value()));
      }
      std::scoped_lock lock(cred_mu_);
      generation = ++credential_generation_;
      credential_cache_[principal] = {
          credentials, std::chrono::steady_clock::now(), generation, {}};
    }
  }

  // Fig 10 step 5-6: hand everything to KeyNote.
  keynote::ComplianceQuery query;
  query.requester = principal;
  query.action = {
      {"app_domain", "ace"},
      {"service", config_.name},
      {"service_class", config_.service_class},
      {"room", config_.room},
      {"command", cmd.name()},
      {"principal", principal},
  };
  query.policies = env_.policies();
  query.credentials = std::move(credentials);
  auto result = keynote::ComplianceChecker::check(query, &env_.keys());
  if (!result.ok()) return result.error();
  if (generation != 0) {
    // Only into the fetch it was computed from: a refetch (TTL expiry,
    // crash()) that replaced the entry meanwhile starts with no verdicts.
    std::scoped_lock lock(cred_mu_);
    auto it = credential_cache_.find(principal);
    if (it != credential_cache_.end() && it->second.generation == generation)
      it->second.verdicts[cmd.name()] = {result->authorized, epoch};
  }
  if (!result->authorized) return denied();
  return util::Status::ok_status();
}

// Collects under notify_mu_ and pushes after releasing it: a push may ship
// at once, and a shipment's settlement takes notify_mu_.
void ServiceDaemon::fire_notifications(const CmdLine& cmd) {
  std::vector<std::pair<net::Address, NotifyJob>> jobs;
  {
    std::scoped_lock lock(notify_mu_);
    for (const NotificationEntry& e : notifications_)
      if (e.command == cmd.name())
        jobs.emplace_back(e.service,
                          NotifyJob{e.method, cmd.name(), cmd.to_string()});
  }
  for (auto& [service, job] : jobs)
    (void)notify_outbox_.push(service, std::move(job));
}

// Counts one frame to `dest` carrying `jobs`, once per distinct command.
// A subscriber that keeps refusing deliveries, kMaxNotifyFailures in a
// row, is dropped; a frame it accepts resets the count. Matches every
// entry for (dest, command) — the same subscriber may listen with several
// methods, and they all rode the frame.
void ServiceDaemon::record_notify_outcome(const net::Address& dest,
                                          const std::vector<NotifyJob>& jobs,
                                          bool delivered) {
  std::vector<std::string_view> seen;
  std::scoped_lock lock(notify_mu_);
  for (const NotifyJob& job : jobs) {
    const std::string& command = job.command;
    if (std::find(seen.begin(), seen.end(), command) != seen.end()) continue;
    seen.push_back(command);
    bool drop = false;
    for (auto& e : notifications_) {
      if (e.service != dest || e.command != command) continue;
      e.failures = delivered ? 0 : e.failures + 1;
      drop = drop || e.failures >= kMaxNotifyFailures;
    }
    if (drop)
      std::erase_if(notifications_, [&](const NotificationEntry& e) {
        return e.service == dest && e.command == command;
      });
  }
}

// The outbox's shipment to one subscriber, started on the pushing thread
// or on the one that settled the lane's previous shipment. send_only's
// callback form never blocks (with no live channel it connects on the ops
// pool), and lanes are one per destination, so notification fan-out
// between two daemons that notify each other cannot deadlock, and a
// subscriber whose connect stalls holds up only its own events. A single
// event goes out as a plain frame; a pile-up is coalesced into one
// notifyBatch frame.
void ServiceDaemon::ship_notifications(const net::Address& dest,
                                       std::vector<NotifyJob> jobs,
                                       Outbox<NotifyJob>::Settled settled) {
  if (drop_notifications_.load()) {  // teardown() closed the client
    settled();
    return;
  }
  CmdLine frame;
  if (jobs.size() == 1) {
    const NotifyJob& job = jobs.front();
    frame = CmdLine(job.method);
    frame.arg("source", config_.name);
    frame.arg("command", Word{job.command});
    frame.arg("detail", job.detail);
  } else {
    std::vector<std::string> events;
    events.reserve(jobs.size());
    for (const NotifyJob& job : jobs) {
      CmdLine notify(job.method);
      notify.arg("source", config_.name);
      notify.arg("command", Word{job.command});
      notify.arg("detail", job.detail);
      events.push_back(notify.to_string());
    }
    frame = CmdLine("notifyBatch");
    frame.arg("source", config_.name);
    frame.arg("events", cmdlang::string_vector(std::move(events)));
  }
  client_.send_only(
      dest, frame,
      [this, dest, jobs = std::move(jobs), settled](util::Status s) {
        if (jobs.size() > 1) {
          obs_notify_batches_->inc();
          obs_notify_batched_events_->inc(jobs.size());
        }
        obs_notify_sent_->inc(jobs.size());
        record_notify_outcome(dest, jobs, s.ok());
        settled();
      });
}

void ServiceDaemon::handle_lease_lost() {
  // Called from the host's LeaseCoordinator when a batched renewal came
  // back `not_found`: the ASD crashed and came back with an empty
  // registry. Renewing harder cannot fix that; only a fresh registration
  // (Fig 9 step 3) heals the directory entry.
  if (!running_.load() || stopping_.load()) return;
  if (register_with_asd().ok()) {
    env_.metrics().counter("daemon.lease.reregistered").inc();
    net_log("info", "service '" + config_.name +
                        "' re-registered after ASD state loss");
  }
}

util::Status ServiceDaemon::send_datagram(const net::Address& to,
                                          util::SharedBytes payload) {
  if (!data_socket_)
    return {util::Errc::invalid, "daemon has no data channel"};
  return data_socket_->send_to(to, std::move(payload));
}

util::Status ServiceDaemon::send_datagrams(std::span<const net::Address> to,
                                           const util::SharedBytes& payload) {
  if (!data_socket_)
    return {util::Errc::invalid, "daemon has no data channel"};
  return data_socket_->send_many(to, payload);
}

void ServiceDaemon::net_log(const std::string& level,
                            const std::string& message) {
  if (auto log = log_command(level, message))
    client_.send_only(env_.net_logger_address, *log, [](util::Status) {});
}

std::optional<CmdLine> ServiceDaemon::log_command(
    const std::string& level, const std::string& message) const {
  if (!config_.log_to_net_logger || env_.net_logger_address.host.empty() ||
      env_.net_logger_address == address())
    return std::nullopt;
  CmdLine log("log");
  log.arg("source", config_.name);
  log.arg("level", Word{level});
  log.arg("message", message);
  return log;
}

}  // namespace ace::daemon

#include "daemon/daemon.hpp"

#include <algorithm>

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

ServiceDaemon::ServiceDaemon(Environment& env, DaemonHost& host,
                             DaemonConfig config)
    : env_(env),
      host_(host),
      config_(std::move(config)),
      identity_(env.issue_identity("svc/" + config_.name)),
      obs_cmd_executed_(&env.metrics().counter("daemon.cmd.executed")),
      obs_cmd_rejected_(&env.metrics().counter("daemon.cmd.rejected")),
      obs_auth_denied_(&env.metrics().counter("daemon.auth.denied")),
      obs_notify_sent_(&env.metrics().counter("daemon.notify.sent")),
      obs_notify_batches_(&env.metrics().counter("daemon.notify_batches")),
      obs_notify_batched_events_(
          &env.metrics().counter("daemon.notify_batched_events")),
      obs_conn_accepted_(&env.metrics().counter("daemon.conn.accepted")),
      obs_datagrams_(&env.metrics().counter("daemon.data.datagrams")),
      obs_control_depth_(&env.metrics().gauge("daemon.queue.control_depth")),
      obs_notify_depth_(&env.metrics().gauge("daemon.queue.notify_depth")),
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
      std::move(handler),
      &env_.metrics().histogram("daemon.cmd." + spec.name + ".latency_us")};
  semantics_.add(std::move(spec));
}

void ServiceDaemon::register_builtin_commands() {
  using cmdlang::integer_arg;
  using cmdlang::string_arg;
  using cmdlang::text_arg;
  using cmdlang::word_arg;

  register_command(
      CommandSpec("ping", "liveness probe"),
      [](const CmdLine&, const CallerInfo&) { return cmdlang::make_ok(); });

  register_command(
      CommandSpec("info", "describe this service daemon"),
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
          .arg(word_arg("command")),
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
      CommandSpec("listNotifications", "list notification subscriptions"),
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
    auto r = infra_client_->call(env_.room_db_address, reg, kCallOk);
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

  // Step 5: record the start with the Network Logger.
  net_log("info", "service '" + config_.name + "' started on host '" +
                      host_.name() + "'");
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
  auto r = infra_client_->call(env_.asd_address, reg, kCallOk);
  if (!r.ok()) return r.error();
  return util::Status::ok_status();
}

util::Status ServiceDaemon::start() {
  if (running_.load()) return util::Status::ok_status();
  stopping_.store(false);
  // A prior stop()/crash() on this object closed the work queues; a
  // relaunch needs them accepting again (stale leftovers are dropped).
  control_queue_.reopen();
  notify_queue_.reopen();
  {
    std::scoped_lock lock(notify_pending_mu_);
    notify_pending_.clear();
  }

  if (config_.port == 0) config_.port = host_.net_host().ephemeral_port();
  auto listener = host_.net_host().listen(config_.port);
  if (!listener.ok()) return listener.error();
  listener_ = listener.value();

  if (config_.open_data_channel) {
    auto sock = host_.net_host().open_datagram(config_.port);
    if (!sock.ok()) return sock.error();
    data_socket_ = sock.value();
  }

  control_client_ =
      std::make_unique<AceClient>(env_, host_.net_host(), identity_);
  notify_client_ =
      std::make_unique<AceClient>(env_, host_.net_host(), identity_);
  infra_client_ =
      std::make_unique<AceClient>(env_, host_.net_host(), identity_);

  // The serving pumps must be registered before the startup sequence: the
  // ASD may call us back (and the ASD itself must serve while registering
  // nothing). Command execution may block (nested RPCs), so both the
  // control pump and the per-channel strands run on the ops pool; frame
  // decode and accept/handshake stay on the core pool.
  running_.store(true);
  net::Reactor& reactor = env_.reactor();
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
        run_work_item(*item, /*serialize=*/true);
      },
      {.blocking = true});
  notify_sub_ = net::attach_queue<net::Address>(
      reactor, notify_queue_,
      [this](std::optional<net::Address> dest) {
        if (dest) run_notify_dest(*dest);
      },
      {.blocking = true});
  if (data_socket_)
    data_sub_ = data_socket_->on_datagram(
        reactor,
        [this](std::optional<net::Datagram> dg) {
          if (!dg) return;
          obs_datagrams_->inc();
          on_datagram(*dg);
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

  on_stop();

  // Deregister cleanly (paper §2.4: "Registered services also automatically
  // remove themselves from the ASD registry upon shutdown").
  if (config_.register_with_asd && !env_.asd_address.host.empty() &&
      env_.asd_address != address()) {
    CmdLine dereg("deregister");
    dereg.arg("name", config_.name);
    (void)infra_client_->call(env_.asd_address, dereg,
                              CallOptions{.timeout = 500ms});
  }
  net_log("info", "service '" + config_.name + "' stopped");
  teardown();
}

// Tears down every reactor registration and connection. Order matters:
// stop the accept pump first (no new handshakes), then abort and await
// in-flight handshakes (no new actors), then kill the actors, and only
// then close the daemon-wide queues nothing can push to anymore.
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
  notify_queue_.close();
  notify_sub_.stop();
  {
    // Undelivered events die with the daemon, like frames a dead process
    // never wrote. (The pump is stopped, so nothing races this clear.)
    std::scoped_lock lock(notify_pending_mu_);
    notify_pending_.clear();
  }

  if (control_client_) control_client_->close_all();
  if (notify_client_) notify_client_->close_all();
  if (infra_client_) infra_client_->close_all();
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
  teardown();
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
    // work queue drained), so a dead connection frees its actor.
    actor->work_sub = net::attach_queue<WorkItem>(
        env_.reactor(), actor->work,
        [this, actor](std::optional<WorkItem> item) {
          if (item) run_work_item(*item, /*serialize=*/false);
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

// Runs on the core pool: decode and route only, never execute.
void ServiceDaemon::handle_frame(const std::shared_ptr<ChannelActor>& actor,
                                 std::optional<net::Frame> frame) {
  if (!frame) {
    // Connection closed and drained. Close the strand (its pump terminates
    // after the backlog) and forget the actor.
    actor->work.close();
    std::scoped_lock lock(actors_mu_);
    actors_.erase(actor->id);
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
  // within one connection is still the arrival order.
  const cmdlang::CommandSpec* spec = semantics_.find(item.cmd.name());
  if (spec && spec->concurrent) {
    actor->work.push(std::move(item));
    return;
  }
  if (!control_queue_.push(std::move(item))) return;  // shutting down
  obs_control_depth_->set(static_cast<std::int64_t>(control_queue_.size()));
}

// Runs on the ops pool (command handlers may block on nested RPCs).
void ServiceDaemon::run_work_item(const WorkItem& item, bool serialize) {
  CmdLine reply = dispatch(item.cmd, item.caller, serialize);
  if (item.channel && !item.noreply)
    send_reply(*item.channel, item.call_id, reply);
}

CmdLine ServiceDaemon::execute(const CmdLine& cmd, const CallerInfo& caller) {
  // Mirror the network path: commands declared concurrent_ok run without
  // the exec_mu_ serialization, so in-process callers (tests, benches,
  // composition) see the same concurrency the wire sees.
  const cmdlang::CommandSpec* spec = semantics_.find(cmd.name());
  return dispatch(cmd, caller, /*serialize=*/!(spec && spec->concurrent));
}

CmdLine ServiceDaemon::dispatch(const CmdLine& cmd, const CallerInfo& caller,
                                bool serialize) {
  obs::Span span(env_.metrics(), "daemon", "cmd");
  const auto started = std::chrono::steady_clock::now();
  if (auto s = semantics_.validate(cmd); !s.ok()) {
    span.fail();
    obs_cmd_rejected_->inc();
    return cmdlang::make_error(s.error().code, s.error().message);
  }
  if (auto s = authorize(cmd, caller); !s.ok()) {
    span.fail();
    obs_auth_denied_->inc();
    // §4.14's intrusion example: failed authorization attempts are
    // reported to the Network Logger so repeated offenders raise alerts.
    net_log("security", "authorization denied for principal '" +
                            (caller.principal.empty() ? "anonymous"
                                                      : caller.principal) +
                            "' on command '" + cmd.name() + "'");
    return cmdlang::make_error(s.error().code, s.error().message);
  }
  HandlerEntry& handler = handlers_.at(cmd.name());
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

util::Status ServiceDaemon::authorize(const CmdLine& cmd,
                                      const CallerInfo& caller) {
  if (!config_.enforce_authorization) return util::Status::ok_status();

  std::string principal =
      caller.principal.empty() ? "anonymous" : caller.principal;

  // Fig 10 step 2-4: fetch the caller's credentials from the
  // Authorization Database (with a short-lived cache).
  std::vector<keynote::Assertion> credentials;
  bool cached = false;
  {
    std::scoped_lock lock(cred_mu_);
    auto it = credential_cache_.find(principal);
    if (it != credential_cache_.end() &&
        std::chrono::steady_clock::now() - it->second.fetched <
            config_.credential_cache_ttl) {
      credentials = it->second.credentials;
      cached = true;
    }
  }
  if (!cached && !env_.auth_db_address.host.empty() &&
      env_.auth_db_address != address()) {
    CmdLine fetch("getCredentials");
    fetch.arg("principal", principal);
    auto reply = control_client_->call(env_.auth_db_address, fetch, kCallOk);
    if (reply.ok()) {
      if (auto vec = reply->get_vector("credentials")) {
        for (const auto& elem : vec->elements) {
          if (!elem.is_string() && !elem.is_word()) continue;
          auto a = keynote::Assertion::parse(elem.as_text());
          if (a.ok()) credentials.push_back(std::move(a.value()));
        }
      }
      std::scoped_lock lock(cred_mu_);
      credential_cache_[principal] = {credentials,
                                      std::chrono::steady_clock::now()};
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
  if (!result->authorized) {
    return util::Error{util::Errc::auth_error,
                       "principal '" + principal +
                           "' is not authorized for command '" + cmd.name() +
                           "' on service '" + config_.name + "'"};
  }
  return util::Status::ok_status();
}

void ServiceDaemon::fire_notifications(const CmdLine& cmd) {
  std::scoped_lock lock(notify_mu_);
  for (const NotificationEntry& e : notifications_) {
    if (e.command != cmd.name()) continue;
    NotifyJob job;
    job.method = e.method;
    job.command = cmd.name();
    job.detail = cmd.to_string();
    bool first = false;
    {
      std::scoped_lock plock(notify_pending_mu_);
      auto& pending = notify_pending_[e.service];
      first = pending.empty();
      pending.push_back(std::move(job));
    }
    // Token per destination, not per event: a destination already in the
    // queue will pick up this job when its token drains. (If the pump is
    // mid-drain and has already swapped the backlog out, `pending` is a
    // fresh empty vector and `first` re-arms the token — no lost events.)
    if (first) {
      notify_queue_.push(e.service);
      obs_notify_depth_->set(static_cast<std::int64_t>(notify_queue_.size()));
    }
  }
}

// Drops a subscriber whose host keeps refusing deliveries. Matches every
// entry for (dest, command) — the same subscriber may listen with several
// methods, and they all rode the failed frame.
void ServiceDaemon::record_notify_failure(const net::Address& dest,
                                          const std::string& command) {
  std::scoped_lock lock(notify_mu_);
  for (auto& e : notifications_) {
    if (e.service == dest && e.command == command &&
        ++e.failures >= kMaxNotifyFailures) {
      std::erase_if(notifications_, [&](const NotificationEntry& x) {
        return x.service == dest && x.command == command;
      });
      break;
    }
  }
}

// Runs on the ops pool (send_only may block on connection establishment).
// Its own pump — not the control pump — so notification fan-out between
// two daemons that notify each other cannot deadlock. Drains the whole
// backlog for one destination: a single event goes out as a plain frame;
// a pile-up is coalesced into one notifyBatch frame.
void ServiceDaemon::run_notify_dest(const net::Address& dest) {
  std::vector<NotifyJob> jobs;
  {
    std::scoped_lock lock(notify_pending_mu_);
    auto it = notify_pending_.find(dest);
    if (it != notify_pending_.end()) {
      jobs = std::move(it->second);
      notify_pending_.erase(it);
    }
  }
  obs_notify_depth_->set(static_cast<std::int64_t>(notify_queue_.size()));
  if (jobs.empty()) return;

  if (jobs.size() == 1) {
    const NotifyJob& job = jobs.front();
    CmdLine notify(job.method);
    notify.arg("source", config_.name);
    notify.arg("command", Word{job.command});
    notify.arg("detail", job.detail);
    auto s = notify_client_->send_only(dest, notify);
    obs_notify_sent_->inc();
    if (!s.ok()) record_notify_failure(dest, job.command);
    return;
  }

  std::vector<std::string> events;
  events.reserve(jobs.size());
  for (const NotifyJob& job : jobs) {
    CmdLine notify(job.method);
    notify.arg("source", config_.name);
    notify.arg("command", Word{job.command});
    notify.arg("detail", job.detail);
    events.push_back(notify.to_string());
  }
  CmdLine batch("notifyBatch");
  batch.arg("source", config_.name);
  batch.arg("events", cmdlang::string_vector(std::move(events)));
  auto s = notify_client_->send_only(dest, batch);
  obs_notify_batches_->inc();
  obs_notify_batched_events_->inc(jobs.size());
  obs_notify_sent_->inc(jobs.size());
  if (!s.ok()) {
    // The frame carried every command; charge each distinct one once.
    std::vector<std::string> seen;
    for (const NotifyJob& job : jobs) {
      if (std::find(seen.begin(), seen.end(), job.command) != seen.end())
        continue;
      seen.push_back(job.command);
      record_notify_failure(dest, job.command);
    }
  }
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
  if (!config_.log_to_net_logger || env_.net_logger_address.host.empty())
    return;
  if (env_.net_logger_address == address()) return;
  if (!infra_client_) return;
  CmdLine log("log");
  log.arg("source", config_.name);
  log.arg("level", Word{level});
  log.arg("message", message);
  (void)infra_client_->send_only(env_.net_logger_address, log);
}

}  // namespace ace::daemon

#include "daemon/client.hpp"

#include <algorithm>
#include <atomic>

#include "daemon/wire.hpp"

namespace ace::daemon {

namespace {

// Transport-level failure: the destination was unreachable or the exchange
// died under us. These retry (with backoff) and feed the circuit breaker;
// anything else is a caller/protocol problem that retrying cannot fix.
bool transport_errc(util::Errc code) {
  return code == util::Errc::closed || code == util::Errc::io_error ||
         code == util::Errc::timeout || code == util::Errc::unavailable ||
         code == util::Errc::refused;
}

// Decorrelates the jitter streams of clients that share a process.
std::uint64_t next_jitter_seed() {
  static std::atomic<std::uint64_t> counter{0x51ed2701u};
  return counter.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed);
}

// How long a caller waits for a handshake past its own timeout before
// giving up on the completion.
constexpr std::chrono::seconds kHandshakeWaitMargin{1};

// Retry backoff when CallOptions sets none (see CallOptions::backoff).
constexpr std::chrono::milliseconds kBackoff{10};
constexpr std::chrono::milliseconds kBackoffCap{500};

// Under entry.mu: the live channel, nullptr when a reconnect is due, or an
// error for a shut-down entry. That entry is already unlinked from
// channels_; refusing to reconnect through it sends the caller back
// through entry_for (the error is retryable), which hands out a fresh
// entry.
template <typename Entry>
util::Result<std::shared_ptr<crypto::SecureChannel>> live_locked(
    const Entry& entry, const net::Address& to) {
  if (entry.closed)
    return util::Error{util::Errc::closed,
                       "connection to " + to.to_string() + " dropped"};
  if (entry.channel && !entry.channel->closed()) return entry.channel;
  return std::shared_ptr<crypto::SecureChannel>{};
}

}  // namespace

// One set of calls. The send half fills a target per request before it
// registers it; the settle half reads them once every request has left
// the send half (`unsent` reaches 0, acquire/release).
struct AceClient::CallSet {
  struct Target {
    net::Address to;
    std::string verb;                     // for a timeout's error text
    std::shared_ptr<ChannelEntry> entry;  // null: the breaker refused it
    std::uint64_t call_id = 0;            // 0: never registered
    bool probe = false;
  };
  // What the settle half counts: nothing (call() counts once per call,
  // across its attempts), calls and failures (call_all), or failures
  // alone (send_only).
  enum class Count { none, calls, failures };

  CallSet(std::size_t n, std::chrono::milliseconds timeout, std::uint8_t flags,
          Count count, bool callback_form)
      : replies(n), targets(n), unsent(n), timeout(timeout), flags(flags),
        count(count), callback_form(callback_form) {}

  Completion<util::Result<cmdlang::CmdLine>> replies;
  std::vector<Target> targets;
  std::atomic<std::size_t> unsent;
  const std::chrono::milliseconds timeout;
  const std::uint8_t flags;
  const Count count;
  const bool callback_form;  // settled by a hook, not by a waiting caller
  // The callback form's: released as the set settles, so a settled set
  // keeps nothing alive.
  std::function<bool(const Replies&)> enough;
  OnSettled on_settled;
  std::atomic<net::Reactor::TimerId> deadline{0};

  // The callback form's settle condition, under the replies' lock.
  bool ready(const Replies& rs) const {
    return unsent.load(std::memory_order_acquire) == 0 &&
           (Completion<util::Result<cmdlang::CmdLine>>::all_settled(rs) ||
            (enough && enough(rs)));
  }
};

AceClient::AceClient(Environment& env, net::Host& from_host,
                     crypto::Identity identity)
    : env_(env),
      host_(from_host),
      identity_(std::move(identity)),
      jitter_rng_(next_jitter_seed()),
      calls_(&env.metrics().counter("client.calls")),
      reconnects_(&env.metrics().counter("client.reconnects")),
      retries_(&env.metrics().counter("client.retries")),
      timeouts_(&env.metrics().counter("client.timeouts")),
      errors_(&env.metrics().counter("client.errors")),
      breaker_trips_(&env.metrics().counter("client.breaker_trips")),
      breaker_rejected_(&env.metrics().counter("client.breaker_rejected")),
      breaker_closes_(&env.metrics().counter("client.breaker_closes")),
      inflight_(&env.metrics().gauge("client.inflight")),
      breaker_open_(&env.metrics().gauge("client.breaker_open")) {}

AceClient::~AceClient() { close_all(); }

void AceClient::set_breaker_policy(BreakerPolicy policy) {
  std::scoped_lock lock(policy_mu_);
  breaker_policy_ = policy;
}

BreakerPolicy AceClient::breaker_policy() const {
  std::scoped_lock lock(policy_mu_);
  return breaker_policy_;
}

std::shared_ptr<AceClient::ChannelEntry> AceClient::entry_for(
    const net::Address& to) {
  std::scoped_lock lock(mu_);
  auto& slot = channels_[to];
  if (!slot) slot = std::make_shared<ChannelEntry>();
  return slot;
}

util::Result<std::shared_ptr<crypto::SecureChannel>> AceClient::live_channel(
    const std::shared_ptr<ChannelEntry>& entry, const net::Address& to) {
  std::scoped_lock lk(entry->mu);
  return live_locked(*entry, to);
}

util::Result<std::shared_ptr<crypto::SecureChannel>> AceClient::ensure_channel(
    const std::shared_ptr<ChannelEntry>& entry, const net::Address& to) {
  if (auto live = live_channel(entry, to); !live.ok() || live.value())
    return live;

  std::scoped_lock connecting(entry->connect_mu);
  net::Subscription dead_demux;
  std::vector<PendingCall> orphans;
  {
    std::scoped_lock lk(entry->mu);
    // Another caller may have reconnected while we waited our turn.
    if (auto live = live_locked(*entry, to); !live.ok() || live.value())
      return live;
    // Replacing a dead channel orphans whatever was still pending on it.
    orphans = take_pending_locked(*entry);
    dead_demux = std::move(entry->demux);
    entry->connecting = true;
  }
  fail_calls(std::move(orphans),
             util::Error{util::Errc::closed,
                         "channel to " + to.to_string() + " died mid-call"});
  dead_demux.stop();

  auto conn = host_.connect(to);
  if (conn.ok()) {
    std::scoped_lock lk(entry->mu);
    entry->handshaking = conn.value();  // shutdown_entry closes it
    if (entry->closed) entry->handshaking.close();
  }
  auto ch = conn.ok() ? handshake(std::move(conn.value()))
                      : util::Result<crypto::SecureChannel>(conn.error());
  std::scoped_lock lk(entry->mu);
  entry->connecting = false;
  entry->handshaking = {};
  if (!ch.ok()) return ch.error();
  auto channel =
      std::make_shared<crypto::SecureChannel>(std::move(ch.value()));
  if (entry->closed) {  // shut down while we handshook
    channel->close();
    return live_locked(*entry, to);
  }
  entry->channel = channel;
  // Replies are demultiplexed by a reactor pump on the new channel.
  entry->demux = channel->on_frame(
      env_.reactor(),
      [this, entry, channel](std::optional<net::Frame> frame) {
        handle_reply(entry, channel, std::move(frame));
      });
  return channel;
}

util::Result<crypto::SecureChannel> AceClient::handshake(net::Connection conn) {
  // `done` captures only the slot: it may run on the calling thread before
  // async_connect returns, or on a core worker after we gave up.
  auto slot =
      std::make_shared<Completion<util::Result<crypto::SecureChannel>>>(1);
  net::Connection handle = conn;  // shares the connection's state
  crypto::SecureChannel::async_connect(
      env_.reactor(), std::move(conn), identity_, env_.ca_key(),
      env_.default_timeout, env_.channel_options(),
      [slot](util::Result<crypto::SecureChannel> ch) {
        slot->complete(0, std::move(ch));
      });
  // Reactor::stop() drops the handshake's timer, so `done` may never come.
  slot->wait_until(std::chrono::steady_clock::now() + env_.default_timeout +
                       kHandshakeWaitMargin,
                   [](const auto& r) { return r[0].has_value(); });
  if (auto ch = std::move(slot->take()[0])) return std::move(*ch);
  handle.close();  // fails a late completion, and frees the server side
  return util::Error{util::Errc::timeout, "handshake: no completion"};
}

// Demux: routes reply frames off one channel generation to their call-id's
// completion slot, and fails that generation's in-flight calls when the
// channel dies. Replaces the per-destination reader thread; runs on a
// reactor core worker, and so do the callback-form sets it settles.
void AceClient::handle_reply(
    const std::shared_ptr<ChannelEntry>& entry,
    const std::shared_ptr<crypto::SecureChannel>& channel,
    std::optional<net::Frame> frame) {
  if (!frame) {
    // Channel closed and drained (terminal: the pump stops itself). Fail
    // the calls in flight on it, unless a shutdown already took the
    // channel out of the entry, failing them.
    std::vector<PendingCall> dead;
    {
      std::scoped_lock lk(entry->mu);
      if (entry->channel == channel) dead = take_pending_locked(*entry);
    }
    fail_calls(std::move(dead),
               util::Error{util::Errc::closed, "channel died mid-call"});
    return;
  }
  auto decoded = wire::decode_frame(*frame);
  if (!decoded) return;  // malformed reply frame: drop
  PendingCall slot;
  {
    std::scoped_lock lk(entry->mu);
    auto it = entry->pending.find(decoded->call_id);
    if (it != entry->pending.end()) {
      slot = std::move(it->second);
      entry->pending.erase(it);
      inflight_->add(-1);
    }
  }
  if (!slot.set) return;  // late reply for a withdrawn call: drop
  deliver(slot.set, slot.index, cmdlang::Parser::parse(decoded->body));
}

std::vector<AceClient::PendingCall> AceClient::take_pending_locked(
    ChannelEntry& entry) {
  std::vector<PendingCall> calls;
  calls.reserve(entry.pending.size());
  for (auto& [id, call] : entry.pending) calls.push_back(std::move(call));
  entry.pending.clear();
  return calls;
}

void AceClient::fail_calls(std::vector<PendingCall> calls,
                           const util::Error& error) {
  inflight_->add(-static_cast<std::int64_t>(calls.size()));
  for (PendingCall& c : calls) deliver(c.set, c.index, error);
}

util::Result<cmdlang::CmdLine> AceClient::call(const net::Address& to,
                                               const cmdlang::CmdLine& cmd,
                                               const CallOptions& options) {
  // A call may connect and handshake, waits for its reply, and sleeps
  // out its retry backoff.
  net::expect_may_block("AceClient::call");
  obs::Span span(env_.metrics(), "client", "call");
  calls_->inc();
  const auto timeout = options.timeout.value_or(env_.default_timeout);
  const int attempts = options.retries < 0 ? 1 : options.retries + 1;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      reconnects_->inc();
      retries_->inc();
      backoff_sleep(options, attempt);
    }
    auto set =
        std::make_shared<CallSet>(1, timeout, 0, CallSet::Count::none, false);
    send(set, 0, to, cmd);
    auto reply = std::move(*wait(set, timeout, {}).front());
    if (!reply.ok()) {
      // Retry a transport fault, unless the breaker is open: then stop
      // burning the remaining retries against a known-dead peer.
      if (transport_errc(reply.error().code) && attempt + 1 < attempts &&
          !breaker_is_open(to))
        continue;
      span.fail();
      return count_failure(std::move(reply.error()), to);
    }
    if (options.require_ok && cmdlang::is_error(reply.value())) {
      span.fail();
      errors_->inc();
      return cmdlang::reply_error(reply.value());
    }
    return reply;
  }
}

AceClient::Replies AceClient::call_all(
    std::span<const Request> requests, std::chrono::milliseconds timeout,
    const std::function<bool(const Replies&)>& enough) {
  net::expect_may_block("AceClient::call_all");  // as call()
  auto set = std::make_shared<CallSet>(requests.size(), timeout, 0,
                                       CallSet::Count::calls, false);
  for (std::size_t i = 0; i < requests.size(); ++i)
    send(set, i, requests[i].to, requests[i].cmd);
  return wait(set, timeout, enough);
}

void AceClient::call_all(std::span<const Request> requests,
                         std::chrono::milliseconds timeout,
                         std::function<bool(const Replies&)> enough,
                         OnSettled on_settled) {
  auto set = std::make_shared<CallSet>(requests.size(), timeout, 0,
                                       CallSet::Count::calls, true);
  set->enough = std::move(enough);
  set->on_settled = std::move(on_settled);
  {
    std::scoped_lock lk(live_mu_);
    ++live_sets_;
  }
  if (requests.empty()) {
    (void)try_settle(set);
    return;
  }
  for (std::size_t i = 0; i < requests.size(); ++i)
    send(set, i, requests[i].to, requests[i].cmd);
}

util::Status AceClient::send_only(const net::Address& to,
                                  const cmdlang::CmdLine& cmd) {
  net::expect_may_block("AceClient::send_only");  // may connect first
  auto set = std::make_shared<CallSet>(1, std::chrono::milliseconds{0},
                                       wire::kFlagNoReply,
                                       CallSet::Count::failures, false);
  send(set, 0, to, cmd);
  auto sent = std::move(*wait(set, set->timeout, {}).front());
  if (sent.ok()) return util::Status::ok_status();
  return sent.error();
}

void AceClient::send_only(const net::Address& to, const cmdlang::CmdLine& cmd,
                          std::function<void(util::Status)> on_settled) {
  auto set = std::make_shared<CallSet>(1, std::chrono::milliseconds{0},
                                       wire::kFlagNoReply,
                                       CallSet::Count::failures, true);
  set->on_settled = [done = std::move(on_settled)](Replies replies) {
    util::Result<cmdlang::CmdLine>& sent = *replies.front();
    done(sent.ok() ? util::Status::ok_status() : util::Status(sent.error()));
  };
  {
    std::scoped_lock lk(live_mu_);
    ++live_sets_;
  }
  send(set, 0, to, cmd);
}

void AceClient::send(const std::shared_ptr<CallSet>& set, std::size_t i,
                     const net::Address& to, const cmdlang::CmdLine& cmd) {
  CallSet::Target& t = set->targets[i];
  t.to = to;
  t.verb = cmd.name();
  auto entry = entry_for(to);
  if (auto admitted = breaker_admit(*entry, to, t.probe); !admitted.ok()) {
    deliver(set, i, admitted.error());
    sent(set);
    return;
  }
  t.entry = std::move(entry);
  auto channel = live_channel(t.entry, to);
  if (channel.ok() && !channel.value()) {
    // No live channel: a blocking set connects here, a callback set on
    // the ops pool, which then finishes this request's send half.
    if (set->callback_form) {
      post_connect(set, i, cmd.to_string());
      return;
    }
    channel = ensure_channel(t.entry, to);
  }
  if (channel.ok())
    transmit(set, i, channel.value(), cmd.to_string());
  else
    deliver(set, i, channel.error());
  sent(set);
}

void AceClient::transmit(const std::shared_ptr<CallSet>& set, std::size_t i,
                         const std::shared_ptr<crypto::SecureChannel>& channel,
                         const std::string& text) {
  CallSet::Target& t = set->targets[i];
  const bool noreply = (set->flags & wire::kFlagNoReply) != 0;
  if (!noreply) {
    std::scoped_lock lk(t.entry->mu);
    t.call_id = t.entry->next_call_id++;
    t.entry->pending.emplace(t.call_id, PendingCall{set, i});
    inflight_->add(1);
  }
  if (!channel->send(wire::encode_frame(t.call_id, set->flags, text)).ok()) {
    channel->close();
    if (!noreply) {
      std::scoped_lock lk(t.entry->mu);
      if (t.entry->pending.erase(t.call_id) > 0) inflight_->add(-1);
    }
    deliver(set, i,
            util::Error{util::Errc::closed,
                        "stale channel to " + t.to.to_string()});
  } else if (noreply) {
    deliver(set, i, cmdlang::make_ok());  // out, and nothing comes back
  }
}

void AceClient::post_connect(const std::shared_ptr<CallSet>& set,
                             std::size_t i, std::string text) {
  // Connects for request i and finishes its send half on the ops pool. A
  // job the reactor never runs (it is stopping) fails its request as it
  // dies, and so does one that runs after a close_all() of this life.
  struct ConnectJob {
    AceClient& client;
    std::shared_ptr<CallSet> set;  // null once run
    std::size_t index;
    std::string text;
    std::uint64_t life;

    ~ConnectJob() {
      if (set) run(false);
    }
    void run(bool may_connect) {
      auto owned = std::move(set);
      CallSet::Target& t = owned->targets[index];
      {
        std::scoped_lock lk(client.live_mu_);
        may_connect = may_connect && life == client.life_;
      }
      auto channel =
          may_connect
              ? client.ensure_channel(t.entry, t.to)
              : util::Error{util::Errc::closed,
                            "connection to " + t.to.to_string() + " closed"};
      if (channel.ok())
        client.transmit(owned, index, channel.value(), text);
      else
        client.deliver(owned, index, channel.error());
      client.sent(owned);
      owned.reset();
      // Last: close_all() may return, and the client die, once it is out.
      std::scoped_lock lk(client.live_mu_);
      --client.posted_connects_;
      client.live_cv_.notify_all();
    }
  };
  std::uint64_t life;
  {
    std::scoped_lock lk(live_mu_);
    life = life_;
    ++posted_connects_;
  }
  auto job =
      std::make_shared<ConnectJob>(*this, set, i, std::move(text), life);
  env_.reactor().post_blocking([job] { job->run(true); });
}

void AceClient::deliver(const std::shared_ptr<CallSet>& set, std::size_t i,
                        util::Result<cmdlang::CmdLine> result) {
  set->replies.complete(i, std::move(result));
  if (set->callback_form) (void)try_settle(set);
}

bool AceClient::try_settle(const std::shared_ptr<CallSet>& set) {
  if (!set->replies.settle_if(
          [&](const Replies& rs) { return set->ready(rs); }))
    return false;
  settle(set, /*met=*/true);
  return true;
}

void AceClient::sent(const std::shared_ptr<CallSet>& set) {
  if (set->unsent.fetch_sub(1, std::memory_order_acq_rel) != 1 ||
      !set->callback_form || try_settle(set))
    return;
  // The deadline settles what is still out. Its task holds the set weakly,
  // and settles it also when the reactor drops it unrun (a stopping
  // reactor refuses or discards timers); cancel() drops it once the set
  // has settled, which makes that a no-op.
  struct Deadline {
    AceClient* client;
    std::weak_ptr<CallSet> set;
    Deadline(AceClient* c, std::weak_ptr<CallSet> s)
        : client(c), set(std::move(s)) {}
    ~Deadline() { fire(); }
    void fire() {
      auto s = set.lock();
      set.reset();
      if (s && s->replies.settle_if([](const Replies&) { return true; }))
        client->settle(s, /*met=*/false);
    }
  };
  auto deadline = std::make_shared<Deadline>(this, set);
  set->deadline.store(env_.reactor().post_after(
      set->timeout, [deadline] { deadline->fire(); }));
}

void AceClient::settle(const std::shared_ptr<CallSet>& set, bool met) {
  env_.reactor().cancel(set->deadline.exchange(0));
  set->enough = nullptr;
  OnSettled hook = std::move(set->on_settled);
  hook(finish(*set, met));
  hook = nullptr;  // its captures die before the set stops counting
  std::scoped_lock lk(live_mu_);
  --live_sets_;
  live_cv_.notify_all();
}

AceClient::Replies AceClient::wait(
    const std::shared_ptr<CallSet>& set, std::chrono::milliseconds timeout,
    const std::function<bool(const Replies&)>& enough) {
  // One waiter for the whole set: each reply the demux routes wakes it.
  const bool met = set->replies.wait_until(
      std::chrono::steady_clock::now() + timeout, [&](const Replies& rs) {
        return decltype(set->replies)::all_settled(rs) ||
               (enough && enough(rs));
      });
  return finish(*set, met);
}

AceClient::Replies AceClient::finish(CallSet& set, bool met) {
  // Withdraw the slots still registered, so the demux drops their late
  // replies. The channel stays open: call-ids make a late reply harmless.
  for (const CallSet::Target& t : set.targets) {
    if (t.call_id == 0) continue;
    std::scoped_lock lk(t.entry->mu);
    if (t.entry->pending.erase(t.call_id) > 0) inflight_->add(-1);
  }
  Replies replies = set.replies.take();

  for (std::size_t i = 0; i < replies.size(); ++i) {
    auto& reply = replies[i];
    const CallSet::Target& t = set.targets[i];
    // A reply that landed while we were withdrawing still counts.
    if (!reply && !met)
      reply = util::Error{util::Errc::timeout, "no reply from " +
                                                   t.to.to_string() + " for '" +
                                                   t.verb + "'"};
    // Only transport faults feed the breaker. A request not awaited, or
    // failed otherwise, is neither, but frees the probe it may hold.
    if (t.entry) {
      if (reply && reply->ok()) {
        breaker_record_success(*t.entry, t.probe);
      } else if (reply && transport_errc(reply->error().code)) {
        breaker_record_failure(*t.entry, t.probe);
      } else if (t.probe) {
        std::scoped_lock entry_lock(t.entry->mu);
        t.entry->probe_inflight = false;
      }
    }
    if (set.count != CallSet::Count::none && reply && !reply->ok())
      reply = count_failure(std::move(reply->error()), t.to);
  }
  if (set.count == CallSet::Count::calls) calls_->inc(replies.size());
  return replies;
}

util::Error AceClient::count_failure(util::Error error,
                                     const net::Address& to) {
  if (error.code == util::Errc::timeout) {
    timeouts_->inc();
    return error;
  }
  errors_->inc();
  if (error.code == util::Errc::closed || error.code == util::Errc::io_error)
    return util::Error{util::Errc::unavailable,
                       "cannot reach " + to.to_string()};
  return error;
}

bool AceClient::breaker_is_open(const net::Address& to) {
  auto entry = entry_for(to);
  std::scoped_lock lk(entry->mu);
  return entry->breaker_open;
}

util::Status AceClient::breaker_admit(ChannelEntry& entry,
                                      const net::Address& to, bool& probe) {
  std::scoped_lock lk(entry.mu);
  if (!entry.breaker_open) return util::Status::ok_status();
  const auto now = std::chrono::steady_clock::now();
  if (now < entry.open_until || entry.probe_inflight) {
    breaker_rejected_->inc();
    return {util::Errc::unavailable,
            "circuit breaker open for " + to.to_string()};
  }
  // Cooldown over: this call becomes the single half-open probe.
  entry.probe_inflight = true;
  probe = true;
  return util::Status::ok_status();
}

void AceClient::breaker_record_failure(ChannelEntry& entry, bool probe) {
  const BreakerPolicy breaker = breaker_policy();
  std::scoped_lock lk(entry.mu);
  ++entry.consecutive_failures;
  if (probe) entry.probe_inflight = false;
  const auto now = std::chrono::steady_clock::now();
  if (entry.breaker_open) {
    // Failed half-open probe (or a straggler admitted before the trip):
    // re-arm the cooldown.
    entry.open_until = now + breaker.cooldown;
  } else if (breaker.failure_threshold > 0 &&
             entry.consecutive_failures >= breaker.failure_threshold) {
    entry.breaker_open = true;
    entry.open_until = now + breaker.cooldown;
    breaker_trips_->inc();
    breaker_open_->add(1);
  }
}

void AceClient::breaker_record_success(ChannelEntry& entry, bool probe) {
  std::scoped_lock lk(entry.mu);
  if (probe) entry.probe_inflight = false;
  entry.consecutive_failures = 0;
  if (entry.breaker_open) {
    entry.breaker_open = false;
    breaker_closes_->inc();
    breaker_open_->add(-1);
  }
}

void AceClient::backoff_sleep(const CallOptions& options, int attempt) {
  const auto base = options.backoff.value_or(kBackoff);
  const auto cap = options.backoff_cap.value_or(kBackoffCap);
  if (base.count() <= 0) return;
  const int exponent = std::min(attempt - 1, 16);
  auto delay = base * (std::int64_t{1} << exponent);
  if (cap.count() > 0 && delay > cap) delay = cap;
  double jitter;
  {
    std::scoped_lock lk(jitter_mu_);
    jitter = 0.5 + jitter_rng_.next_double();  // uniform [0.5, 1.5)
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(
          static_cast<double>(delay.count()) * jitter));
}

// Closes the entry's channel, fails its in-flight calls, and stops its
// demux pump. The entry must already be unlinked from channels_. The
// calls fail, and the Subscription is stopped, only once entry.mu is
// released: stop() waits for an in-flight handler, and the handler, like
// a failed call's callback, takes entry.mu.
void AceClient::shutdown_entry(const std::shared_ptr<ChannelEntry>& entry) {
  net::Subscription demux;
  std::vector<PendingCall> calls;
  {
    std::scoped_lock lk(entry->mu);
    entry->closed = true;
    entry->handshaking.close();  // ends a reconnect's handshake under way
    if (entry->channel) entry->channel->close();
    entry->channel.reset();
    calls = take_pending_locked(*entry);
    if (entry->breaker_open) {  // keep the open-breaker gauge honest
      entry->breaker_open = false;
      breaker_open_->add(-1);
    }
    demux = std::move(entry->demux);
  }
  fail_calls(std::move(calls),
             util::Error{util::Errc::closed, "connection dropped"});
  demux.stop();
}

void AceClient::drop_connection(const net::Address& to) {
  std::shared_ptr<ChannelEntry> entry;
  {
    std::scoped_lock lock(mu_);
    auto it = channels_.find(to);
    if (it == channels_.end()) return;
    entry = it->second;
    {
      std::scoped_lock lk(entry->mu);
      if (entry->connecting) return;
    }
    channels_.erase(it);
  }
  shutdown_entry(entry);
}

void AceClient::close_all() {
  net::expect_may_block("AceClient::close_all");
  {
    std::scoped_lock lk(live_mu_);
    ++life_;  // a connect posted before this fails when it runs
  }
  std::map<net::Address, std::shared_ptr<ChannelEntry>> entries;
  {
    std::scoped_lock lock(mu_);
    entries.swap(channels_);
  }
  for (auto& [addr, entry] : entries) shutdown_entry(entry);
  // Wait out the posted connects (failed or failing now) and the sets
  // they and the shutdowns are settling.
  std::unique_lock lk(live_mu_);
  live_cv_.wait(lk,
                [&] { return posted_connects_ == 0 && live_sets_ == 0; });
}

}  // namespace ace::daemon

#include "daemon/client.hpp"

#include <algorithm>

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

}  // namespace

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

util::Result<std::shared_ptr<crypto::SecureChannel>> AceClient::ensure_channel(
    const std::shared_ptr<ChannelEntry>& entry, const net::Address& to) {
  using Live = util::Result<std::shared_ptr<crypto::SecureChannel>>;
  // Under entry->mu: the live channel, nullptr when a reconnect is due, or
  // an error for a shut-down entry. That entry is already unlinked from
  // channels_; refusing to reconnect through it sends the caller back
  // through entry_for (the error is retryable), which hands out a fresh
  // entry.
  auto live_locked = [&]() -> Live {
    if (entry->closed)
      return util::Error{util::Errc::closed,
                         "connection to " + to.to_string() + " dropped"};
    if (entry->channel && !entry->channel->closed()) return entry->channel;
    return std::shared_ptr<crypto::SecureChannel>{};
  };
  {
    std::scoped_lock lk(entry->mu);
    if (auto live = live_locked(); !live.ok() || live.value()) return live;
  }

  std::scoped_lock connecting(entry->connect_mu);
  net::Subscription dead_demux;
  {
    std::scoped_lock lk(entry->mu);
    // Another caller may have reconnected while we waited our turn.
    if (auto live = live_locked(); !live.ok() || live.value()) return live;
    // Replacing a dead channel orphans whatever was still pending on it.
    if (!entry->pending.empty())
      fail_pending_locked(*entry, util::Error{util::Errc::closed,
                                              "channel to " + to.to_string() +
                                                  " died mid-call"});
    dead_demux = std::move(entry->demux);
    entry->connecting = true;
  }
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
    return live_locked();
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
// reactor core worker.
void AceClient::handle_reply(
    const std::shared_ptr<ChannelEntry>& entry,
    const std::shared_ptr<crypto::SecureChannel>& channel,
    std::optional<net::Frame> frame) {
  if (!frame) {
    // Channel closed and drained (terminal: the pump stops itself). Fail
    // the calls in flight on it, unless a shutdown already took the
    // channel out of the entry, failing them.
    std::scoped_lock lk(entry->mu);
    if (entry->channel == channel && !entry->pending.empty())
      fail_pending_locked(
          *entry, util::Error{util::Errc::closed, "channel died mid-call"});
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
  slot.set->complete(slot.index, cmdlang::Parser::parse(decoded->body));
}

// Caller must hold entry.mu.
void AceClient::fail_pending_locked(ChannelEntry& entry,
                                    const util::Error& error) {
  for (auto& [id, slot] : entry.pending) slot.set->complete(slot.index, error);
  inflight_->add(-static_cast<std::int64_t>(entry.pending.size()));
  entry.pending.clear();
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
  const Request request{to, cmd};
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      reconnects_->inc();
      retries_->inc();
      backoff_sleep(options, attempt);
    }
    auto reply = std::move(*attempt_all({&request, 1}, timeout, {}).front());
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
  Replies replies = attempt_all(requests, timeout, enough);
  calls_->inc(replies.size());
  for (std::size_t i = 0; i < replies.size(); ++i)
    if (replies[i] && !replies[i]->ok())
      replies[i] = count_failure(std::move(replies[i]->error()),
                                 requests[i].to);
  return replies;
}

AceClient::Replies AceClient::attempt_all(
    std::span<const Request> requests, std::chrono::milliseconds timeout,
    const std::function<bool(const Replies&)>& enough, std::uint8_t flags) {
  const bool noreply = (flags & wire::kFlagNoReply) != 0;
  const std::size_t n = requests.size();
  auto set = std::make_shared<CallSet>(n);
  struct Sent {
    std::shared_ptr<ChannelEntry> entry;  // null: the breaker refused it
    std::uint64_t call_id = 0;            // 0: never registered
    bool probe = false;
  };
  std::vector<Sent> sent(n);
  auto withdraw = [this](Sent& s) {
    std::scoped_lock lk(s.entry->mu);
    if (s.entry->pending.erase(s.call_id) > 0) inflight_->add(-1);
  };

  // Send each request in turn; one that cannot go out settles at once.
  for (std::size_t i = 0; i < n; ++i) {
    const net::Address& to = requests[i].to;
    Sent& s = sent[i];
    auto entry = entry_for(to);
    if (auto admitted = breaker_admit(*entry, to, s.probe); !admitted.ok()) {
      set->complete(i, admitted.error());
      continue;
    }
    s.entry = entry;
    auto channel = ensure_channel(entry, to);
    if (!channel.ok()) {
      set->complete(i, channel.error());
      continue;
    }
    if (!noreply) {
      std::scoped_lock lk(entry->mu);
      s.call_id = entry->next_call_id++;
      entry->pending.emplace(s.call_id, PendingCall{set, i});
      inflight_->add(1);
    }
    const std::string text = requests[i].cmd.to_string();
    if (!channel.value()->send(wire::encode_frame(s.call_id, flags, text))
             .ok()) {
      channel.value()->close();
      withdraw(s);
      set->complete(i, util::Error{util::Errc::closed,
                                   "stale channel to " + to.to_string()});
    } else if (noreply) {
      set->complete(i, cmdlang::make_ok());  // out, and nothing comes back
    }
  }

  // One waiter for the whole set: each reply the demux routes wakes it.
  const bool met = set->wait_until(
      std::chrono::steady_clock::now() + timeout, [&](const Replies& rs) {
        return CallSet::all_settled(rs) || (enough && enough(rs));
      });
  // Withdraw the slots still registered, outside the set's lock (the
  // demux takes entry->mu first), so the demux drops their late replies.
  // The channel stays open: call-ids make a late reply harmless.
  for (Sent& s : sent)
    if (s.call_id != 0) withdraw(s);
  Replies replies = set->take();

  for (std::size_t i = 0; i < n; ++i) {
    auto& reply = replies[i];
    // A reply that landed while we were withdrawing still counts.
    if (!reply && !met)
      reply = util::Error{util::Errc::timeout,
                          "no reply from " + requests[i].to.to_string() +
                              " for '" + requests[i].cmd.name() + "'"};
    // Only transport faults feed the breaker. A request not awaited, or
    // failed otherwise, is neither, but frees the probe it may hold.
    Sent& s = sent[i];
    if (!s.entry) continue;
    if (reply && reply->ok()) {
      breaker_record_success(*s.entry, s.probe);
    } else if (reply && transport_errc(reply->error().code)) {
      breaker_record_failure(*s.entry, s.probe);
    } else if (s.probe) {
      std::scoped_lock entry_lock(s.entry->mu);
      s.entry->probe_inflight = false;
    }
  }
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

util::Status AceClient::send_only(const net::Address& to,
                                  const cmdlang::CmdLine& cmd) {
  net::expect_may_block("AceClient::send_only");  // may connect first
  const Request request{to, cmd};
  auto sent = std::move(
      *attempt_all({&request, 1}, {}, {}, wire::kFlagNoReply).front());
  if (sent.ok()) return util::Status::ok_status();
  return count_failure(sent.error(), to);
}

// Closes the entry's channel, fails its in-flight calls, and stops its
// demux pump. The entry must already be unlinked from channels_. The
// Subscription is moved out under entry.mu and stopped only after the lock
// is released: stop() waits for an in-flight handler, and the handler
// takes entry.mu.
void AceClient::shutdown_entry(const std::shared_ptr<ChannelEntry>& entry) {
  net::Subscription demux;
  {
    std::scoped_lock lk(entry->mu);
    entry->closed = true;
    entry->handshaking.close();  // ends a reconnect's handshake under way
    if (entry->channel) entry->channel->close();
    entry->channel.reset();
    fail_pending_locked(
        *entry, util::Error{util::Errc::closed, "connection dropped"});
    if (entry->breaker_open) {  // keep the open-breaker gauge honest
      entry->breaker_open = false;
      breaker_open_->add(-1);
    }
    demux = std::move(entry->demux);
  }
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
  std::map<net::Address, std::shared_ptr<ChannelEntry>> entries;
  {
    std::scoped_lock lock(mu_);
    entries.swap(channels_);
  }
  for (auto& [addr, entry] : entries) shutdown_entry(entry);
}

}  // namespace ace::daemon

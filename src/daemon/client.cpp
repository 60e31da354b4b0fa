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

}  // namespace

void AceClient::complete(PendingCall& slot, util::Result<cmdlang::CmdLine> r) {
  std::scoped_lock lk(slot.mu);
  if (!slot.result) slot.result.emplace(std::move(r));
  slot.cv.notify_all();
}

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

AceClient::~AceClient() {
  // Unarm the idle sweeper first: its tasks capture `this` raw, so revoke
  // waits out any sweep already running before members start dying.
  net::Reactor::TimerId timer;
  {
    std::scoped_lock lock(policy_mu_);
    timer = std::exchange(sweep_timer_, 0);
  }
  if (timer) env_.reactor().cancel(timer);
  sweep_guard_.revoke();
  close_all();
}

void AceClient::set_policy(ClientPolicy policy) {
  std::scoped_lock lock(policy_mu_);
  const bool was_armed = policy_.idle_channel_ttl.count() > 0;
  policy_ = policy;
  const bool arm = policy.idle_channel_ttl.count() > 0;
  if (arm && sweep_timer_ == 0) {
    sweep_timer_ = env_.reactor().post_after(
        policy.idle_channel_ttl,
        sweep_guard_.wrap([this] { sweep_idle_channels(); }),
        /*blocking=*/true);
  } else if (!arm && was_armed) {
    auto timer = std::exchange(sweep_timer_, 0);
    if (timer) env_.reactor().cancel(timer);
  }
}

ClientPolicy AceClient::policy() const {
  std::scoped_lock lock(policy_mu_);
  return policy_;
}

void AceClient::sweep_idle_channels() {
  const auto ttl = policy().idle_channel_ttl;
  if (ttl.count() <= 0) return;  // policy changed under the timer
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::pair<net::Address, std::shared_ptr<ChannelEntry>>> stale;
  {
    std::scoped_lock lock(mu_);
    for (auto it = channels_.begin(); it != channels_.end();) {
      auto& [addr, entry] = *it;
      bool idle;
      {
        std::scoped_lock lk(entry->mu);
        idle = entry->pending.empty() && now - entry->last_used > ttl;
      }
      if (idle) {
        stale.emplace_back(addr, entry);
        it = channels_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [addr, entry] : stale) shutdown_entry(entry);
  if (!stale.empty())
    env_.metrics().counter("client.idle_closed").inc(stale.size());
  // Re-arm (repeating chain). Checked against a concurrent set_policy
  // disarm: only re-arm while a timer id is expected to be live.
  std::scoped_lock lock(policy_mu_);
  if (policy_.idle_channel_ttl.count() > 0)
    sweep_timer_ = env_.reactor().post_after(
        policy_.idle_channel_ttl,
        sweep_guard_.wrap([this] { sweep_idle_channels(); }),
        /*blocking=*/true);
  else
    sweep_timer_ = 0;
}

std::shared_ptr<AceClient::ChannelEntry> AceClient::entry_for(
    const net::Address& to) {
  std::scoped_lock lock(mu_);
  auto& slot = channels_[to];
  if (!slot) slot = std::make_shared<ChannelEntry>();
  return slot;
}

// Establishes the channel if needed. Caller must hold entry->mu.
util::Status AceClient::ensure_channel_locked(
    const std::shared_ptr<ChannelEntry>& entry, const net::Address& to) {
  // A shut-down entry is already unlinked from channels_; refusing to
  // reconnect here sends the caller back through entry_for (the error is
  // retryable), which hands out a fresh entry.
  if (entry->closed)
    return {util::Errc::closed, "connection to " + to.to_string() + " dropped"};
  if (entry->channel && !entry->channel->closed())
    return util::Status::ok_status();
  // Replacing a dead channel orphans whatever was still pending on it.
  // (Its demux pump is left to self-terminate: the dead channel delivers
  // the pump's final callback, which sees a non-matching entry->channel
  // and does nothing. Stopping it here would deadlock — stop() waits for
  // the handler, and the handler takes entry->mu, which we hold.)
  if (!entry->pending.empty())
    fail_pending_locked(*entry, util::Error{util::Errc::closed,
                                            "channel to " + to.to_string() +
                                                " died mid-call"});
  auto conn = host_.connect(to, env_.default_timeout);
  if (!conn.ok()) return conn.error();
  auto ch = crypto::SecureChannel::connect(std::move(conn.value()), identity_,
                                           env_.ca_key(), env_.default_timeout,
                                           env_.channel_options());
  if (!ch.ok()) return ch.error();
  auto channel =
      std::make_shared<crypto::SecureChannel>(std::move(ch.value()));
  entry->channel = channel;
  // Replies are demultiplexed by a reactor pump on the new channel.
  entry->demux = channel->on_frame(
      env_.reactor(),
      [this, entry, channel](std::optional<net::Frame> frame) {
        handle_reply(entry, channel, std::move(frame));
      });
  return util::Status::ok_status();
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
    // Channel closed and drained (terminal: the pump stops itself). Only
    // fail pending calls still belonging to this generation — a reconnect
    // may already have swapped a live channel in.
    std::scoped_lock lk(entry->mu);
    if (entry->channel == channel && !entry->pending.empty())
      fail_pending_locked(
          *entry, util::Error{util::Errc::closed, "channel died mid-call"});
    return;
  }
  auto decoded = wire::decode_frame(*frame);
  if (!decoded) return;  // malformed reply frame: drop
  std::shared_ptr<PendingCall> slot;
  {
    std::scoped_lock lk(entry->mu);
    auto it = entry->pending.find(decoded->call_id);
    if (it != entry->pending.end()) {
      slot = std::move(it->second);
      entry->pending.erase(it);
      inflight_->add(-1);
    }
  }
  if (!slot) return;  // late reply for a withdrawn call: drop
  complete(*slot, cmdlang::Parser::parse(decoded->body));
}

// Caller must hold entry.mu.
void AceClient::fail_pending_locked(ChannelEntry& entry,
                                    const util::Error& error) {
  for (auto& [id, slot] : entry.pending) complete(*slot, error);
  inflight_->add(-static_cast<std::int64_t>(entry.pending.size()));
  entry.pending.clear();
}

util::Result<cmdlang::CmdLine> AceClient::call(const net::Address& to,
                                               const cmdlang::CmdLine& cmd,
                                               const CallOptions& options) {
  obs::Span span(env_.metrics(), "client", "call");
  calls_->inc();
  const auto timeout = options.timeout.value_or(env_.default_timeout);
  const int attempts = options.retries < 0 ? 1 : options.retries + 1;
  const std::string wire_text = cmd.to_string();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      reconnects_->inc();
      retries_->inc();
      backoff_sleep(options, attempt);
    }
    auto entry = entry_for(to);
    bool probe = false;
    if (auto admitted = breaker_admit(*entry, to, probe); !admitted.ok()) {
      span.fail();
      errors_->inc();
      return admitted.error();
    }

    std::shared_ptr<crypto::SecureChannel> channel;
    std::shared_ptr<PendingCall> slot;
    std::uint64_t call_id = 0;
    std::optional<util::Error> connect_error;
    {
      std::scoped_lock lk(entry->mu);
      entry->last_used = std::chrono::steady_clock::now();
      if (auto s = ensure_channel_locked(entry, to); !s.ok()) {
        connect_error = s.error();
      } else {
        channel = entry->channel;
        call_id = entry->next_call_id++;
        slot = std::make_shared<PendingCall>();
        entry->pending.emplace(call_id, slot);
        inflight_->add(1);
      }
    }
    auto reply = connect_error
                     ? util::Result<cmdlang::CmdLine>(*connect_error)
                     : exchange(*entry, channel, call_id, slot, wire_text,
                                timeout, cmd.name(), to);
    if (!reply.ok()) {
      const auto code = reply.error().code;
      const bool retryable = transport_errc(code);
      // Only transport faults feed the breaker; if this failure opened it,
      // stop burning the remaining retries against a known-dead peer.
      const bool open_now =
          retryable && breaker_record_failure(*entry, probe);
      if (retryable && !open_now && attempt + 1 < attempts) continue;
      span.fail();
      if (code == util::Errc::timeout) {
        timeouts_->inc();
        return reply;
      }
      errors_->inc();
      if (code == util::Errc::closed ||
          code == util::Errc::io_error)  // exhausted reconnect attempts
        return util::Error{util::Errc::unavailable,
                           "cannot reach " + to.to_string()};
      return reply;
    }
    breaker_record_success(*entry, probe);
    if (options.require_ok && cmdlang::is_error(reply.value())) {
      span.fail();
      errors_->inc();
      return cmdlang::reply_error(reply.value());
    }
    return reply;
  }
  span.fail();
  errors_->inc();
  return util::Error{util::Errc::unavailable,
                     "cannot reach " + to.to_string()};
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

bool AceClient::breaker_record_failure(ChannelEntry& entry, bool probe) {
  const BreakerPolicy breaker = policy().breaker;
  std::scoped_lock lk(entry.mu);
  ++entry.consecutive_failures;
  if (probe) entry.probe_inflight = false;
  const auto now = std::chrono::steady_clock::now();
  if (entry.breaker_open) {
    // Failed half-open probe (or a straggler admitted before the trip):
    // re-arm the cooldown.
    entry.open_until = now + breaker.cooldown;
    return true;
  }
  if (breaker.failure_threshold > 0 &&
      entry.consecutive_failures >= breaker.failure_threshold) {
    entry.breaker_open = true;
    entry.open_until = now + breaker.cooldown;
    breaker_trips_->inc();
    breaker_open_->add(1);
    return true;
  }
  return false;
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
  std::chrono::milliseconds base{}, cap{};
  {
    std::scoped_lock lock(policy_mu_);
    base = options.backoff.value_or(policy_.backoff);
    cap = options.backoff_cap.value_or(policy_.backoff_cap);
  }
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

// Sends the framed request without holding any entry-wide lock across the
// round trip, then parks on the completion slot until the demux reader
// resolves it (or the deadline passes).
util::Result<cmdlang::CmdLine> AceClient::exchange(
    ChannelEntry& entry, const std::shared_ptr<crypto::SecureChannel>& ch,
    std::uint64_t call_id, const std::shared_ptr<PendingCall>& slot,
    const std::string& wire_text, std::chrono::milliseconds timeout,
    const std::string& verb, const net::Address& to) {
  if (auto s = ch->send(wire::encode_frame(call_id, 0, wire_text)); !s.ok()) {
    ch->close();
    std::scoped_lock lk(entry.mu);
    if (entry.pending.erase(call_id) > 0) inflight_->add(-1);
    return util::Error{util::Errc::closed,
                       "stale channel to " + to.to_string()};
  }
  {
    std::unique_lock lk(slot->mu);
    if (slot->cv.wait_for(lk, timeout, [&] { return slot->result.has_value(); }))
      return std::move(*slot->result);
  }
  // Deadline passed: withdraw the slot so a late reply is dropped by the
  // reader. The channel stays open — call-ids make a late reply harmless,
  // and other calls are still in flight on it.
  {
    std::scoped_lock lk(entry.mu);
    if (entry.pending.erase(call_id) > 0) inflight_->add(-1);
  }
  {
    std::scoped_lock lk(slot->mu);
    if (slot->result)  // reply landed while we were withdrawing
      return std::move(*slot->result);
  }
  return util::Error{util::Errc::timeout, "no reply from " + to.to_string() +
                                              " for '" + verb + "'"};
}

util::Status AceClient::send_only(const net::Address& to,
                                  const cmdlang::CmdLine& cmd) {
  auto entry = entry_for(to);
  std::shared_ptr<crypto::SecureChannel> channel;
  {
    std::scoped_lock lk(entry->mu);
    entry->last_used = std::chrono::steady_clock::now();
    if (auto s = ensure_channel_locked(entry, to); !s.ok()) {
      errors_->inc();
      return s;
    }
    channel = entry->channel;
  }
  // The call-id is unused: no reply will ever reference it.
  auto s = channel->send(
      wire::encode_frame(0, wire::kFlagNoReply, cmd.to_string()));
  if (!s.ok()) {
    channel->close();
    errors_->inc();
  }
  return s;
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

// AceClient — the client side of the ACE command protocol (paper Fig 5):
// builds an ACECmdLine, serializes it to a string, sends it over a secure
// channel, and parses the reply command.
//
// Connections are cached per destination address and transparently
// re-established on failure, which is also the hook the mobile-socket
// extension (paper Ch 9) builds on: when a service instance dies, callers
// re-resolve through the ASD and resume against a replacement instance.
//
// The cached channel is *pipelined*: every request frame carries a call-id
// (see daemon/wire.hpp), senders hold only a brief bookkeeping lock, and a
// per-destination demux — a reactor pump on the channel, not a thread —
// routes reply frames to per-call completion slots. N threads calling the
// same daemon share one secure channel with N requests in flight instead
// of N serialized round trips, and a process full of clients costs no
// reader threads at all.
//
// All request/reply traffic funnels through the single
// call(to, cmd, CallOptions) entry point, so call latency, reconnects,
// timeouts and retry policy are instrumented in exactly one place.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "cmdlang/parser.hpp"
#include "cmdlang/value.hpp"
#include "crypto/channel.hpp"
#include "daemon/environment.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ace::daemon {

// Per-call knobs for AceClient::call.
struct CallOptions {
  // Reply deadline; defaults to the environment's default_timeout.
  std::optional<std::chrono::milliseconds> timeout{};
  // Treat an `error ...;` reply as a util::Error instead of a result.
  bool require_ok = false;
  // Extra attempts after a stale-channel send failure, a mid-flight channel
  // death, a reply timeout, or a failed connect (reconnecting if the
  // channel is gone). 1 preserves the historical behaviour of one
  // transparent reconnect.
  int retries = 1;
  // Per-call overrides of ClientPolicy::backoff/backoff_cap (see there for
  // semantics); unset = use the client's policy.
  std::optional<std::chrono::milliseconds> backoff{};
  std::optional<std::chrono::milliseconds> backoff_cap{};
};

// Shorthand for the common "call and insist on an ok reply" pattern.
inline constexpr CallOptions kCallOk{.timeout = std::nullopt,
                                     .require_ok = true,
                                     .retries = 1};

// Per-destination circuit breaker (closed -> open -> half-open -> closed).
// After `failure_threshold` consecutive transport-level failures the
// destination's breaker opens: calls fail fast with Errc::unavailable for
// `cooldown`, after which exactly one probe call is let through. A probe
// success closes the breaker (and resets the failure count); a probe
// failure re-opens it for another cooldown. Application-level `error ...;`
// replies never trip it — only transport faults do.
struct BreakerPolicy {
  int failure_threshold = 4;
  std::chrono::milliseconds cooldown{250};
};

// Everything tunable about a client, applied as one unit via
// AceClient::set_policy (replacing the old scattered per-knob setters).
struct ClientPolicy {
  // Per-destination circuit breaker (see BreakerPolicy).
  BreakerPolicy breaker{};
  // Base delay inserted before retry k: backoff * 2^(k-1), scaled by a
  // uniform [0.5, 1.5) jitter and capped at backoff_cap, so concurrent
  // callers hammering a dead destination spread out instead of busy-
  // spinning in lockstep. 0 disables the delay. CallOptions may override
  // both per call.
  std::chrono::milliseconds backoff{10};
  std::chrono::milliseconds backoff_cap{500};
  // Close cached channels that have sat idle (no traffic, nothing in
  // flight) this long, freeing their demux state; a later call
  // transparently reconnects. 0 (default) keeps channels forever.
  std::chrono::milliseconds idle_channel_ttl{0};
};

class AceClient {
 public:
  // `from_host` is the machine the client runs on; `identity` authenticates
  // it to peers (services check the certificate subject as the principal).
  AceClient(Environment& env, net::Host& from_host, crypto::Identity identity);
  ~AceClient();  // closes every channel and stops their demux pumps

  AceClient(const AceClient&) = delete;
  AceClient& operator=(const AceClient&) = delete;

  // Sends `cmd` to `to` and waits for the reply command. Reuses a cached
  // channel when available, retrying up to options.retries times on a
  // stale channel, a channel death mid-flight, or a reply timeout. With
  // options.require_ok, an `error ...;` reply comes back as a util::Error.
  // Thread-safe; concurrent calls to the same destination pipeline on one
  // channel.
  util::Result<cmdlang::CmdLine> call(const net::Address& to,
                                      const cmdlang::CmdLine& cmd,
                                      const CallOptions& options = {});

  // Fire-and-forget: sends a frame flagged kFlagNoReply and returns
  // without waiting; the daemon executes the command and replies nothing.
  util::Status send_only(const net::Address& to, const cmdlang::CmdLine& cmd);

  void drop_connection(const net::Address& to);
  void close_all();

  // Replaces the whole client policy atomically. Thread-safe; affects
  // channels opened and retries begun after the call. Arms (or disarms)
  // the idle-channel sweeper when idle_channel_ttl changes.
  void set_policy(ClientPolicy policy);
  ClientPolicy policy() const;

  BreakerPolicy breaker_policy() const { return policy().breaker; }

  const std::string& principal() const {
    return identity_.certificate.subject;
  }

  // The environment this client was built against (metrics, logging).
  Environment& env() { return env_; }

 private:
  // One in-flight call awaiting its reply from the demux reader.
  struct PendingCall {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<util::Result<cmdlang::CmdLine>> result;
  };

  // One cached channel per destination. `mu` guards every field and is
  // only ever held for brief bookkeeping (never across a round trip).
  // Lock order: mu -> PendingCall::mu.
  struct ChannelEntry {
    std::mutex mu;
    std::shared_ptr<crypto::SecureChannel> channel;
    std::uint64_t next_call_id = 1;
    std::map<std::uint64_t, std::shared_ptr<PendingCall>> pending;
    bool closed = false;  // entry was shut down; never reconnect through it
    std::chrono::steady_clock::time_point last_used{};
    // Circuit-breaker state (guarded by `mu`; see BreakerPolicy).
    int consecutive_failures = 0;
    bool breaker_open = false;
    bool probe_inflight = false;  // the single half-open probe is out
    std::chrono::steady_clock::time_point open_until{};
    // Reply demux for the *current* channel: a reactor pump attached at
    // connect time. A replaced channel's old pump self-terminates (the
    // dead channel delivers its final callback) without being stopped
    // under entry.mu, which its own handler also takes.
    net::Subscription demux;
  };

  // Resolves a finished call into its completion slot and wakes the waiter.
  // First writer wins; a second resolution (e.g. a reply racing a timeout
  // withdrawal) is dropped.
  static void complete(PendingCall& slot, util::Result<cmdlang::CmdLine> r);

  std::shared_ptr<ChannelEntry> entry_for(const net::Address& to);
  util::Status ensure_channel_locked(const std::shared_ptr<ChannelEntry>& entry,
                                     const net::Address& to);
  // Demux pump handler: routes one reply frame (or the channel's death)
  // for the given channel generation. Runs on a reactor core worker.
  void handle_reply(const std::shared_ptr<ChannelEntry>& entry,
                    const std::shared_ptr<crypto::SecureChannel>& channel,
                    std::optional<net::Frame> frame);
  // Idle-channel sweeper (policy().idle_channel_ttl > 0): a repeating
  // reactor timer that shuts down destinations with no traffic and no
  // calls in flight.
  void sweep_idle_channels();
  // Breaker hooks around one call attempt. admit fails fast with
  // Errc::unavailable while the destination's breaker is open (setting
  // `probe` when this attempt is the half-open probe); record_failure
  // returns true when the breaker is open afterwards, telling the retry
  // loop to stop hammering.
  util::Status breaker_admit(ChannelEntry& entry, const net::Address& to,
                             bool& probe);
  bool breaker_record_failure(ChannelEntry& entry, bool probe);
  void breaker_record_success(ChannelEntry& entry, bool probe);
  // Jittered exponential delay before retry attempt `attempt` (>= 1).
  void backoff_sleep(const CallOptions& options, int attempt);
  void fail_pending_locked(ChannelEntry& entry, const util::Error& error);
  void shutdown_entry(const std::shared_ptr<ChannelEntry>& entry);
  util::Result<cmdlang::CmdLine> exchange(
      ChannelEntry& entry, const std::shared_ptr<crypto::SecureChannel>& ch,
      std::uint64_t call_id, const std::shared_ptr<PendingCall>& slot,
      const std::string& wire_text, std::chrono::milliseconds timeout,
      const std::string& verb, const net::Address& to);

  Environment& env_;
  net::Host& host_;
  crypto::Identity identity_;
  mutable std::mutex policy_mu_;
  ClientPolicy policy_;
  // Idle-sweeper timer chain state (guarded by policy_mu_). The TaskGuard
  // revokes in-flight sweep tasks at destruction, since they capture
  // `this` raw.
  net::TaskGuard sweep_guard_;
  net::Reactor::TimerId sweep_timer_ = 0;
  std::mutex mu_;
  std::map<net::Address, std::shared_ptr<ChannelEntry>> channels_;
  std::mutex jitter_mu_;
  util::Rng jitter_rng_;

  // Cached obs cells (deployment registry, `client.*` names).
  obs::Counter* calls_;
  obs::Counter* reconnects_;
  obs::Counter* retries_;
  obs::Counter* timeouts_;
  obs::Counter* errors_;
  obs::Counter* breaker_trips_;
  obs::Counter* breaker_rejected_;
  obs::Counter* breaker_closes_;
  obs::Gauge* inflight_;
  obs::Gauge* breaker_open_;  // destinations currently open
};

}  // namespace ace::daemon

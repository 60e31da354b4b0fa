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
// All traffic funnels through one send half and one settle half (register
// and send; then withdraw, time out and feed the breaker), so reconnects,
// timeouts and the breaker are instrumented in exactly one place. call(),
// call_all() and send_only() wait for the settle half; the callback forms
// of call_all() and send_only() are handed its results instead, and never
// block.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cmdlang/parser.hpp"
#include "cmdlang/value.hpp"
#include "crypto/channel.hpp"
#include "daemon/completion.hpp"
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
  // Retry k waits backoff * 2^(k-1), scaled by a uniform [0.5, 1.5) jitter
  // and capped at backoff_cap, so concurrent callers hammering a dead
  // destination spread out instead of busy-spinning in lockstep; a zero
  // backoff disables the delay. Unset = kBackoff (10 ms) and kBackoffCap
  // (500 ms), client.cpp.
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

  // One request of a call_all set, and the set's results in request order.
  struct Request {
    net::Address to;
    cmdlang::CmdLine cmd;
  };
  using Replies = std::vector<std::optional<util::Result<cmdlang::CmdLine>>>;
  // Sends every request at once, each on its destination's pipelined
  // channel (connecting in the caller, one after another, where none is
  // live), and waits until `enough(replies)` holds, every request is
  // settled, or `timeout` passes after the last send. Result i is the
  // reply (error replies included), a util::Error (transport, breaker, or
  // timeout), or nullopt when `enough` ended the wait first. Each request
  // counts like a call() with retries = 0; a nullopt one as neither a
  // success nor a failure. `enough` runs under the set's lock: keep it
  // quick, and never call the client from it.
  Replies call_all(std::span<const Request> requests,
                   std::chrono::milliseconds timeout,
                   const std::function<bool(const Replies&)>& enough = {});

  // The callback form of call_all: the same sends, results and counting,
  // but it never blocks, so a core worker may call it. A destination with
  // no live channel connects on the ops pool, and the deadline starts once
  // the last request is out. `on_settled(replies)` runs exactly once, on
  // the thread that settles the set: the reply demux's core worker, the
  // deadline timer's, a thread that fails the last request (close_all(),
  // a channel's death, the breaker), or the caller's when every request
  // settles before this returns. It must not block, and must not call
  // close_all(). Once it has run, the set keeps nothing alive: `enough`
  // and `on_settled` are released as it settles.
  using OnSettled = std::function<void(Replies)>;
  void call_all(std::span<const Request> requests,
                std::chrono::milliseconds timeout,
                std::function<bool(const Replies&)> enough,
                OnSettled on_settled);

  // Fire-and-forget: sends a frame flagged kFlagNoReply and returns
  // once it is out; the daemon executes the command and replies nothing.
  // Asks and feeds the breaker, and counts a failure, as a call() with
  // retries = 0 does.
  util::Status send_only(const net::Address& to, const cmdlang::CmdLine& cmd);
  // Its callback form: never blocks (with no live channel it connects on
  // the ops pool), and hands the outcome to `on_settled`, which runs once
  // as call_all's callback form's does.
  void send_only(const net::Address& to, const cmdlang::CmdLine& cmd,
                 std::function<void(util::Status)> on_settled);

  // Closes the cached channel to `to` and fails the calls in flight on
  // it; the next call reconnects. A reconnect already under way is left
  // to finish: its channel is the replacement.
  void drop_connection(const net::Address& to);
  // Closes every channel and ends every reconnect under way: its handshake
  // fails at once, and so does the call that started it. A connect the
  // callback form posted to the ops pool fails too, queued or running;
  // close_all() waits for it, and for every callback-form set it failed to
  // finish settling. Never call it from an `on_settled`.
  void close_all();

  // Replaces the breaker policy of every destination. Thread-safe; counts
  // from the next failure on.
  void set_breaker_policy(BreakerPolicy policy);
  BreakerPolicy breaker_policy() const;

  const std::string& principal() const {
    return identity_.certificate.subject;
  }

  // The environment this client was built against (metrics, logging).
  Environment& env() { return env_; }

 private:
  // One set of calls, defined in client.cpp: its results (a Completion),
  // what its settle half needs of each request, and, in the callback
  // form, its hook.
  struct CallSet;
  struct PendingCall {  // where the demux delivers one reply
    std::shared_ptr<CallSet> set;
    std::size_t index = 0;
  };

  // One cached channel per destination. `mu` guards the fields below it
  // and is only ever held for brief bookkeeping, never across a connect, a
  // handshake or a round trip. `connect_mu` serializes reconnects to the
  // destination; only callers take it, never a reactor worker.
  // Lock order: connect_mu -> mu. A call is failed (and its set perhaps
  // settled) only once `mu` is released: a callback may call back in.
  struct ChannelEntry {
    std::mutex connect_mu;
    std::mutex mu;
    std::shared_ptr<crypto::SecureChannel> channel;
    std::uint64_t next_call_id = 1;
    std::map<std::uint64_t, PendingCall> pending;
    bool closed = false;  // entry was shut down; never reconnect through it
    // A reconnect is under way: the entry is not droppable, and only
    // close_all() ends it, closing `handshaking`, the connection its
    // handshake runs on.
    bool connecting = false;
    net::Connection handshaking;
    // Circuit-breaker state (guarded by `mu`; see BreakerPolicy).
    int consecutive_failures = 0;
    bool breaker_open = false;
    bool probe_inflight = false;  // the single half-open probe is out
    std::chrono::steady_clock::time_point open_until{};
    // Reply demux for the current channel: a reactor pump attached at
    // connect time. Whoever replaces or shuts down the channel stops it,
    // outside `mu`, which its handler takes.
    net::Subscription demux;
  };

  std::shared_ptr<ChannelEntry> entry_for(const net::Address& to);
  // The entry's live channel, nullptr when a reconnect is due, or an
  // error for a shut-down entry. Never blocks.
  util::Result<std::shared_ptr<crypto::SecureChannel>> live_channel(
      const std::shared_ptr<ChannelEntry>& entry, const net::Address& to);
  // The entry's live channel, connecting and handshaking first when there
  // is none (see ChannelEntry for the locks).
  util::Result<std::shared_ptr<crypto::SecureChannel>> ensure_channel(
      const std::shared_ptr<ChannelEntry>& entry, const net::Address& to);
  // Runs the client handshake on the reactor and parks on its completion.
  util::Result<crypto::SecureChannel> handshake(net::Connection conn);
  // Demux pump handler: routes one reply frame (or the channel's death)
  // for the given channel generation. Runs on a reactor core worker.
  void handle_reply(const std::shared_ptr<ChannelEntry>& entry,
                    const std::shared_ptr<crypto::SecureChannel>& channel,
                    std::optional<net::Frame> frame);
  // Breaker hooks around one call attempt. admit fails fast with
  // Errc::unavailable while the destination's breaker is open (setting
  // `probe` when this attempt is the half-open probe).
  util::Status breaker_admit(ChannelEntry& entry, const net::Address& to,
                             bool& probe);
  void breaker_record_failure(ChannelEntry& entry, bool probe);
  void breaker_record_success(ChannelEntry& entry, bool probe);
  // Jittered exponential delay before retry attempt `attempt` (>= 1).
  void backoff_sleep(const CallOptions& options, int attempt);
  // Takes the entry's in-flight calls under its `mu`; fail_calls() fails
  // them once the caller has released it.
  static std::vector<PendingCall> take_pending_locked(ChannelEntry& entry);
  void fail_calls(std::vector<PendingCall> calls, const util::Error& error);
  void shutdown_entry(const std::shared_ptr<ChannelEntry>& entry);

  // The send half, one request at a time: breaker admission, a channel
  // (connecting in the caller for a blocking set, on the ops pool for a
  // callback set), slot registration and the frame, the command
  // serialized straight into it. A request that cannot go out settles at
  // once. With wire::kFlagNoReply in the set's flags no reply is awaited:
  // a request settles ok once its frame is out.
  void send(const std::shared_ptr<CallSet>& set, std::size_t i,
            const net::Address& to, const cmdlang::CmdLine& cmd);
  void transmit(const std::shared_ptr<CallSet>& set, std::size_t i,
                const std::shared_ptr<crypto::SecureChannel>& channel,
                const std::string& text);
  void post_connect(const std::shared_ptr<CallSet>& set, std::size_t i,
                    std::string text);
  // Settles request i; in the callback form, settles the set too once
  // that makes it ready.
  void deliver(const std::shared_ptr<CallSet>& set, std::size_t i,
               util::Result<cmdlang::CmdLine> result);
  // Settles a callback-form set if it is ready; true if this call did.
  bool try_settle(const std::shared_ptr<CallSet>& set);
  // Request i has left the send half; the last one arms the callback
  // form's deadline, unless the set is ready already.
  void sent(const std::shared_ptr<CallSet>& set);
  // The settle half, run once by the set's one settler: withdraws the
  // slots still registered, times out the rest unless `met`, feeds the
  // breaker and counts. The callback form then runs its hook.
  Replies finish(CallSet& set, bool met);
  void settle(const std::shared_ptr<CallSet>& set, bool met);
  // Waits out a blocking set: the caller is its settler.
  Replies wait(const std::shared_ptr<CallSet>& set,
               std::chrono::milliseconds timeout,
               const std::function<bool(const Replies&)>& enough);
  util::Error count_failure(util::Error error, const net::Address& to);
  bool breaker_is_open(const net::Address& to);

  Environment& env_;
  net::Host& host_;
  crypto::Identity identity_;
  mutable std::mutex policy_mu_;
  BreakerPolicy breaker_policy_;
  std::mutex mu_;
  std::map<net::Address, std::shared_ptr<ChannelEntry>> channels_;
  std::mutex jitter_mu_;
  util::Rng jitter_rng_;

  // Work of the callback form that close_all() waits for: connects posted
  // to the ops pool, and sets not yet settled. `life_` moves on with every
  // close_all(), so a connect posted before it fails when it runs.
  std::mutex live_mu_;
  std::condition_variable live_cv_;
  std::uint64_t life_ = 0;
  int posted_connects_ = 0;
  int live_sets_ = 0;

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

// Completion — results handed from reactor workers to whoever settles them.
//
// A set of n result slots. Whoever produces result i (the client's reply
// demux, a handshake callback, an outbox shipment settling a replicated
// record) calls complete(i, r). The set is then settled once, by one of
// two means: a waiter parks in wait_until() until the results it needs are
// in, or, with no waiter, whoever sees them in first wins settle_if() and
// carries on (AceClient's callback form). Either way the settler then
// take()s the results. The first result for a slot wins, and none lands
// once the set is taken, so a producer that settles after the set did is
// harmless. Share a set through a shared_ptr: a producer may outlive its
// waiter.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace ace::daemon {

template <typename R>
class Completion {
 public:
  using Results = std::vector<std::optional<R>>;

  explicit Completion(std::size_t n) : results_(n) {}

  void complete(std::size_t i, R r) {
    std::scoped_lock lk(mu_);
    if (taken_ || results_[i]) return;
    results_[i].emplace(std::move(r));
    cv_.notify_all();
  }

  // Waits until `done(results)` holds or `deadline` passes; true if the
  // former. `done` runs under the set's lock: keep it quick.
  template <typename Done>
  bool wait_until(std::chrono::steady_clock::time_point deadline, Done done) {
    std::unique_lock lk(mu_);
    return cv_.wait_until(lk, deadline,
                          [&] { return done(std::as_const(results_)); });
  }

  // Claims the set for its one settler: true for the first caller for
  // which `ready(results)` holds, false for every other caller. Results
  // still land until take(). `ready` runs under the set's lock, and never
  // once the set is claimed.
  template <typename Ready>
  bool settle_if(Ready ready) {
    std::scoped_lock lk(mu_);
    if (settled_ || !ready(std::as_const(results_))) return false;
    settled_ = true;
    return true;
  }

  // A `done` for wait_until and a `ready` for settle_if: every slot has
  // its result.
  static bool all_settled(const Results& results) {
    return std::all_of(results.begin(), results.end(),
                       [](const auto& r) { return r.has_value(); });
  }

  Results take() {
    std::scoped_lock lk(mu_);
    taken_ = true;
    return std::move(results_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  Results results_;
  bool settled_ = false;
  bool taken_ = false;
};

}  // namespace ace::daemon

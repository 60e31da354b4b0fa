// Completion — results handed from reactor workers to one waiting caller.
//
// A set of n result slots. Whoever produces result i (the client's reply
// demux, a handshake callback, an outbox shipment settling a replicated
// record) calls complete(i, r); the one waiter parks in wait_until() until
// the results it needs are in, then take()s them. The first result for a
// slot wins, and none lands once the set is taken, so a producer that
// settles after the waiter gave up is harmless. Share a set through a
// shared_ptr: a producer may outlive its waiter.
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

  // A `done` for wait_until: every slot has its result.
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
  bool taken_ = false;
};

}  // namespace ace::daemon

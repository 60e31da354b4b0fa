// Blocking multi-producer/multi-consumer message queue.
//
// This is the inter-thread fabric required by the ACE daemon design
// (paper §2.1.1): "All communications between these threads are carried
// out over message queues that trigger actions as these messages are
// sent from one thread to another."
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace ace::util {

template <typename T>
class MessageQueue {
 public:
  explicit MessageQueue(std::size_t max_size = 0) : max_size_(max_size) {}

  MessageQueue(const MessageQueue&) = delete;
  MessageQueue& operator=(const MessageQueue&) = delete;

  // Enqueues a message. Returns false if the queue has been closed or is
  // bounded and full (messages are never silently dropped on a live queue).
  bool push(T value) {
    std::shared_ptr<const std::function<void()>> signal;
    {
      std::scoped_lock lock(mu_);
      if (closed_) return false;
      if (max_size_ != 0 && items_.size() >= max_size_) return false;
      items_.push_back(std::move(value));
      signal = signal_;
    }
    cv_.notify_one();
    if (signal) (*signal)();
    return true;
  }

  // Blocks until a message is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    return take_locked();
  }

  // Pops the front message only if `ready(front)` says so. Returns
  // std::nullopt when the queue is empty or the head is not ready — the
  // non-blocking pop a reactor pump needs for time-gated delivery.
  template <typename Pred>
  std::optional<T> try_pop_when(Pred&& ready) {
    std::scoped_lock lock(mu_);
    if (items_.empty()) return std::nullopt;
    if (!ready(static_cast<const T&>(items_.front()))) return std::nullopt;
    return take_locked();
  }

  // Closes the queue: pending messages may still be popped; pushes fail.
  void close() {
    std::shared_ptr<const std::function<void()>> signal;
    {
      std::scoped_lock lock(mu_);
      closed_ = true;
      signal = signal_;
    }
    cv_.notify_all();
    if (signal) (*signal)();
  }

  bool closed() const {
    std::scoped_lock lock(mu_);
    return closed_;
  }

  // True once close() has been called and every message was consumed — the
  // terminal state after which a subscriber will never see another item.
  bool closed_and_empty() const {
    std::scoped_lock lock(mu_);
    return closed_ && items_.empty();
  }

  // Registers (or, with nullptr, clears) a readiness callback invoked after
  // every successful push and on close(). The callback runs on the
  // producer's thread, outside the queue lock, so it may do anything except
  // block indefinitely. One subscriber at a time: setting a new signal
  // replaces the old one. This is the edge the reactor pumps trigger on;
  // blocking pop() consumers coexist but a queue should have either poppers
  // or a signal-driven pump, not both fighting over messages.
  void set_signal(std::function<void()> signal) {
    std::shared_ptr<const std::function<void()>> cell;
    if (signal)
      cell = std::make_shared<const std::function<void()>>(std::move(signal));
    std::scoped_lock lock(mu_);
    signal_ = std::move(cell);
  }

  // Reverts close() and discards anything left unconsumed, so the queue
  // can serve a fresh start() after a stop()/crash() of its owner.
  void reopen() {
    std::scoped_lock lock(mu_);
    closed_ = false;
    items_.clear();
  }

  std::size_t size() const {
    std::scoped_lock lock(mu_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  std::optional<T> take_locked() {
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    return out;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  std::size_t max_size_;
  bool closed_ = false;
  // Held as a shared_ptr so push/close can invoke it outside mu_ without
  // racing a concurrent set_signal.
  std::shared_ptr<const std::function<void()>> signal_;
};

}  // namespace ace::util

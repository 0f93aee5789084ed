// Bounded MPMC queue — the ingest queue of the serving layer.
//
// Any number of producers push and any number of consumers Pop
// concurrently.  The queue holds at most `capacity` items.  A producer
// that meets a full queue picks its behaviour by the call it makes:
//
//   * PushUntil waits for room until a deadline (pass
//     time_point::max() to wait forever) and reports kTimedOut if the
//     queue is still full then;
//   * TryPush never waits: it returns false at once.
//
// Close() ends the stream: subsequent pushes fail, waiting producers
// wake with kClosed, and consumers drain the remaining items before Pop
// returns nullopt.  This is the shutdown handshake the serving layer's
// ingest workers rely on.
//
// Lock discipline (machine-checked under clang++ -Wthread-safety):
// mutex_ guards items_ and closed_; waits are written as explicit
// while-loops so every guarded read stays inside the annotated scope.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace caltrain::util {

/// Outcome of a deadline-aware PushUntil.
enum class PushResult {
  kOk,        ///< enqueued
  kTimedOut,  ///< still full at the deadline; nothing enqueued
  kClosed,    ///< queue closed; nothing enqueued
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    CALTRAIN_REQUIRE(capacity > 0, "queue capacity must be positive");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Waiting push: waits for room until `deadline` (time_point::max()
  /// waits forever).  Nothing is ever partially enqueued: on
  /// kTimedOut/kClosed the value was not added.  Fault point
  /// "queue.push" (action `timeout`) forces kTimedOut.
  [[nodiscard]] PushResult PushUntil(
      T value, std::chrono::steady_clock::time_point deadline)
      EXCLUDES(mutex_) {
    if (FaultInjector::Global().armed() &&
        FaultPoint("queue.push") == FaultAction::kTimeout) {
      return PushResult::kTimedOut;
    }
    MutexLock lock(mutex_);
    while (!closed_ && items_.size() >= capacity_) {
      if (not_full_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
        if (closed_ || items_.size() < capacity_) break;
        return PushResult::kTimedOut;
      }
    }
    if (closed_) return PushResult::kClosed;
    items_.push_back(std::move(value));
    lock.Unlock();
    not_empty_.NotifyOne();
    return PushResult::kOk;
  }

  /// Non-waiting push; false when full or closed.
  [[nodiscard]] bool TryPush(T value) EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks until an item is available or the queue is closed *and*
  /// drained (then nullopt — the consumer's termination signal).
  std::optional<T> Pop() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!closed_ && items_.empty()) not_empty_.Wait(lock);
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    lock.Unlock();
    not_full_.NotifyOne();
    return out;
  }

  /// Non-waiting pop; nullopt when currently empty.
  std::optional<T> TryPop() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    lock.Unlock();
    not_full_.NotifyOne();
    return out;
  }

  /// Ends the stream: pushes fail from now on, blocked producers and
  /// consumers wake, remaining items stay poppable until drained.
  void Close() EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  [[nodiscard]] std::size_t size() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool closed() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace caltrain::util

#pragma once

// Cooperative cancellation for long-running sweeps. A CancelToken pairs a
// shared atomic flag (set by transports when a peer disconnects) with an
// optional steady-clock deadline (set by the service layer from a
// request's "deadline_ms"). Analytic sweeps poll cancelled() at cell
// granularity — microseconds to milliseconds each, so a deadline is
// honored well within one cell's cost. A simulate cell's cost has no such
// bound (an error storm retries a window about e^{lambda R} times), so
// simulate campaigns also poll inside Monte Carlo runs, every 4096th
// arrival drawn. Either way the poller unwinds with SweepCancelled, which
// may be thrown on a pool worker. Cancellation is an execution
// policy, not an input: it never changes the value of any cell that was
// computed, only whether the computation ran to completion, so tokens are
// excluded from grid signatures and partial results are never published.

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>

namespace resilience::core {

/// Shared cancellation handle. Default-constructed tokens never cancel,
/// so APIs can take one by value with `= {}` and stay zero-cost for
/// callers that don't care. Copies share the flag: setting it through
/// any copy is seen by all.
class CancelToken {
 public:
  CancelToken() = default;

  /// Token driven by an external flag (e.g. a connection's "peer went
  /// away" latch). A null pointer behaves like no flag.
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  /// Adds an absolute deadline; the token reports cancelled once
  /// steady_clock passes it. Measured from wherever the caller anchors
  /// it — the service anchors at execution start, not enqueue.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// True once the deadline (if any) has passed. Does not consult the
  /// flag — callers distinguishing "timed out" from "abandoned" use this.
  [[nodiscard]] bool deadline_expired() const noexcept {
    return has_deadline_ &&
           std::chrono::steady_clock::now() >= deadline_;
  }

  /// True when the flag is set or the deadline has passed.
  [[nodiscard]] bool cancelled() const noexcept {
    if (flag_ != nullptr && flag_->load(std::memory_order_relaxed)) {
      return true;
    }
    return deadline_expired();
  }

 private:
  std::shared_ptr<const std::atomic<bool>> flag_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// Thrown by SweepRunner (and propagated through SweepService) when a
/// token cancels a sweep mid-flight. `deadline_expired` records whether
/// the token's deadline had passed at throw time — the service maps that
/// to the "deadline exceeded" error line; a plain flag cancellation
/// (peer disconnect) is silent.
class SweepCancelled : public std::runtime_error {
 public:
  explicit SweepCancelled(bool deadline_expired)
      : std::runtime_error(deadline_expired ? "sweep cancelled: deadline expired"
                                            : "sweep cancelled"),
        deadline_expired_(deadline_expired) {}

  [[nodiscard]] bool deadline_expired() const noexcept {
    return deadline_expired_;
  }

 private:
  bool deadline_expired_;
};

}  // namespace resilience::core

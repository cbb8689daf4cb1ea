#pragma once

// Single-threaded, edge-triggered epoll event loop — the reactor the
// transport daemon runs on. One thread calls run(); it dispatches fd
// readiness to registered handlers and drains a cross-thread task queue
// woken through an eventfd, which is how sweep worker threads hand
// finished cells back to the loop for writing. Edge-triggered means a
// handler must exhaust the fd (read/write until EAGAIN) on every wake —
// the Connection layer does — so the loop performs one epoll_wait per
// batch of ready fds instead of one per ready byte.
//
// The loop also owns time (run_at: one time-ordered map of tasks, the
// earliest bounding epoll_wait) and the stop signal (interrupt: an
// atomic flag plus a write to the same wake eventfd).
//
// Registration hazards are handled explicitly: each fd registration gets
// a generation token carried in the epoll user data, so a handler that
// closes fd A (kernel may recycle the number for a fresh accept in the
// same batch) cannot have A's stale readiness delivered to the new
// registration.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "resilience/net/socket.hpp"

namespace resilience::net {

/// Readiness bits passed to handlers (mirrors EPOLLIN/EPOLLOUT plus a
/// collapsed error/hangup bit, so handlers don't include epoll headers).
struct IoEvents {
  static constexpr std::uint32_t kRead = 1u << 0;
  static constexpr std::uint32_t kWrite = 1u << 1;
  static constexpr std::uint32_t kError = 1u << 2;
};

class EventLoop {
 public:
  using IoHandler = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;
  using Clock = std::chrono::steady_clock;
  /// A run_at() task's time and a sequence number unique to the loop.
  using TimerId = std::pair<Clock::time_point, std::uint64_t>;

  /// Throws std::runtime_error when epoll/eventfd creation fails (or on
  /// non-Linux platforms).
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` edge-triggered for the given IoEvents mask. The
  /// handler runs on the loop thread. Loop thread only.
  void add_fd(int fd, std::uint32_t events, IoHandler handler);
  /// Changes the interest mask of a registered fd. Re-arming acts as a
  /// fresh edge: if the condition already holds, the handler runs on the
  /// next epoll_wait. Loop thread only.
  void modify_fd(int fd, std::uint32_t events);
  /// Deregisters `fd`; pending readiness for it in the current batch is
  /// discarded (generation-checked). Does not close the fd. Loop thread
  /// only.
  void remove_fd(int fd);

  /// Enqueues a task for the loop thread and wakes it. Safe from any
  /// thread, including the loop thread itself (the task still runs from
  /// the loop's drain point, never reentrantly).
  void post(Task task);

  /// Runs `task` on the loop thread after the fd batch of the first
  /// epoll_wait that returns once `when` has passed; due tasks run in
  /// time order, ties in the order added. run_at(Clock::now(), task) is
  /// how a handler yields to the other sockets before going on. Loop
  /// thread only (or before run()).
  TimerId run_at(Clock::time_point when, Task task);
  /// Drops a pending run_at() task; a no-op once it ran.
  void cancel(const TimerId& timer) { timers_.erase(timer); }

  /// Sets the handler interrupt() runs on the loop thread, before run().
  void on_interrupt(Task handler) { interrupt_handler_ = std::move(handler); }
  /// Async-signal-safe, any thread: the loop runs the on_interrupt
  /// handler once for every batch of interrupts it finds.
  void interrupt() noexcept;

  /// Completed epoll_waits. A handler that sees this count change knows
  /// the loop has dispatched every ready fd since it last looked.
  [[nodiscard]] std::uint64_t polls() const noexcept { return polls_; }

  /// True on the thread inside run().
  [[nodiscard]] bool in_loop_thread() const noexcept;

  /// Runs until stop(). Dispatch order per iteration: ready fds (and the
  /// interrupt handler), then the due run_at() tasks, then the
  /// posted-task queue.
  void run();
  /// Makes run() return after the current iteration. Safe from any
  /// thread (it posts).
  void stop();

 private:
  void dispatch_ready(int timeout_ms);
  [[nodiscard]] int wait_ms() const;
  void run_due_timers();
  void drain_tasks();

  struct Registration {
    std::uint32_t generation = 0;
    /// Shared so dispatch can pin the handler it is about to run: a
    /// handler that deregisters its own fd (every orderly connection
    /// close does) must not destroy the std::function currently
    /// executing on the stack.
    std::shared_ptr<IoHandler> handler;
  };

  Fd epoll_;
  Fd wake_;  ///< eventfd; readable when the task queue is nonempty
  std::unordered_map<int, Registration> registrations_;
  std::uint32_t next_generation_ = 1;
  std::uint64_t polls_ = 0;
  std::map<TimerId, Task> timers_;  ///< run_at() tasks, earliest first
  std::uint64_t next_timer_ = 1;
  Clock::time_point polled_at_{};  ///< last wait's return, timers pending
  Task interrupt_handler_;
  std::atomic<bool> interrupted_{false};
  bool stop_requested_ = false;

  std::mutex task_mutex_;
  std::vector<Task> tasks_;
  bool wake_armed_ = false;  ///< coalesces eventfd writes between drains
};

}  // namespace resilience::net

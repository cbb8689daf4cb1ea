#pragma once

// The Connection layer between the epoll loop and the request session:
// a Connection owns one client socket, its incremental JSONL reassembly
// (LineFramer) and a bounded outbound write queue.
//
// Threading contract. All socket I/O and epoll state live on the loop
// thread. The one cross-thread surface is the outbound queue: sweep
// worker threads (and the loop itself, for the answers it writes)
// append finished response lines via enqueue() (short
// mutex hold on a swap buffer + an atomic byte counter, coalescing loop
// wakeups through an atomic flag — "lock-free-ish": bounded, contention
// is one swap per drain, but honest mutexes, not a CAS ring), and the
// loop thread drains it into the socket on writability edges.
//
// Backpressure policy (slow readers):
//   * outbound > limit/2  — stop reading the connection (EPOLLIN off),
//     so a pipelining client cannot buy unbounded server memory by
//     refusing to read responses while it keeps sending requests;
//   * outbound > limit    — drop the connection (close). The enqueue
//     that crossed the limit reports it; the server closes and cancels
//     the connection's in-flight request.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "resilience/net/event_loop.hpp"
#include "resilience/net/framing.hpp"
#include "resilience/net/socket.hpp"

namespace resilience::net {

class Connection {
 public:
  /// Outcome of the loop-thread read pump.
  enum class ReadResult {
    kOk,            ///< drained to EAGAIN, connection healthy
    kClosed,        ///< peer EOF (all complete lines already delivered)
    kError,         ///< socket error — drop
    kFramingError,  ///< oversized line — framer latched, drop after reply
  };

  Connection(EventLoop& loop, Fd fd, std::size_t write_buffer_limit,
             std::size_t max_line_bytes);

  // ------------------------------------------------------- loop thread --

  /// Reads until EAGAIN, delivering complete lines to `on_line`. At peer
  /// EOF a final unterminated line (missing trailing '\n') is still
  /// delivered, matching the stdin path.
  ReadResult pump_reads(const LineFramer::LineFn& on_line);

  /// Drains the outbound queue into the socket until empty or EAGAIN and
  /// re-arms epoll interest (EPOLLOUT while blocked; EPOLLIN paused
  /// above the read-pause watermark, resumed below it). Returns false on
  /// a fatal write error.
  bool flush();

  /// Marks the connection closed (cancels future enqueues), deregisters
  /// it from the loop, and closes the socket.
  void close();

  /// External read pause (server policy: pipeline depth, drain), OR'd
  /// with the outbound watermark pause. Loop thread only.
  void set_read_hold(bool hold);

  /// Installs the wake callback enqueue() fires (coalesced) to get the
  /// loop thread to flush. Set once right after registration, before any
  /// producer can hold the connection; the callback must be safe from
  /// any thread (the server posts to the loop and looks the connection
  /// up by id, so a stale wake after close is a no-op).
  void set_wake(std::function<void()> wake) { wake_fn_ = std::move(wake); }

  [[nodiscard]] bool reading_paused() const noexcept {
    return reading_paused_;
  }
  [[nodiscard]] const LineFramer& framer() const noexcept { return framer_; }

  // -------------------------------------------------------- any thread --

  /// Appends one response line (terminator added here). Returns false —
  /// without enqueueing — once the connection is closed/overflowed, so
  /// producers see cancellation at the next cell. Crossing the byte
  /// limit latches overflow and reports false for all later calls; the
  /// already-queued bytes stay queued (the loop thread notices the
  /// latch and drops the connection). From another thread it wakes the
  /// loop at most once per drain cycle; on the loop thread it does not
  /// wake, and the caller flushes.
  bool enqueue(std::string_view line);

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool overflowed() const noexcept {
    return overflowed_.load(std::memory_order_acquire);
  }
  /// Bytes queued but not yet written to the socket.
  [[nodiscard]] std::size_t outbound_bytes() const noexcept {
    return outbound_bytes_.load(std::memory_order_acquire);
  }
  /// True when every enqueued byte has reached the socket.
  [[nodiscard]] bool drained() const noexcept {
    return outbound_bytes() == 0;
  }

 private:
  void update_interest();

  EventLoop& loop_;
  Fd fd_;
  const std::size_t write_buffer_limit_;

  // Read side (loop thread only).
  LineFramer framer_;
  bool reading_paused_ = false;
  bool read_hold_ = false;
  bool want_write_ = false;
  std::uint32_t current_interest_ = IoEvents::kRead;
  std::function<void()> wake_fn_;

  // Write side (shared).
  std::mutex write_mutex_;
  std::string inbox_;       ///< producers append here (under write_mutex_)
  std::string writing_;     ///< loop thread drains this without the lock
  std::size_t writing_offset_ = 0;
  std::atomic<std::size_t> outbound_bytes_{0};
  std::atomic<bool> wake_pending_{false};
  std::atomic<bool> closed_{false};
  std::atomic<bool> overflowed_{false};
};

}  // namespace resilience::net

#include "resilience/net/connection.hpp"

#include <utility>

namespace resilience::net {

Connection::Connection(EventLoop& loop, Fd fd, std::size_t write_buffer_limit,
                       std::size_t max_line_bytes)
    : loop_(loop),
      fd_(std::move(fd)),
      write_buffer_limit_(write_buffer_limit),
      framer_(max_line_bytes) {}

Connection::ReadResult Connection::pump_reads(
    const LineFramer::LineFn& on_line) {
  char buffer[16384];
  for (;;) {
    if (reading_paused_) {
      // Leave the remaining bytes in the kernel buffer: that is the
      // backpressure signal TCP propagates to the sender.
      return ReadResult::kOk;
    }
    std::size_t n = 0;
    switch (read_some(fd_.fd(), buffer, sizeof(buffer), &n)) {
      case IoStatus::kOk:
        if (!framer_.feed(std::string_view(buffer, n), on_line)) {
          return ReadResult::kFramingError;
        }
        // Delivering lines may have grown the outbound queue past the
        // pause watermark; re-check before reading more.
        update_interest();
        break;
      case IoStatus::kWouldBlock:
        return ReadResult::kOk;
      case IoStatus::kEof:
        if (!framer_.finish(on_line)) {
          return ReadResult::kFramingError;
        }
        return ReadResult::kClosed;
      case IoStatus::kError:
        return ReadResult::kError;
    }
  }
}

bool Connection::enqueue(std::string_view line) {
  if (closed() || overflowed()) {
    return false;
  }
  std::size_t total;
  {
    const std::lock_guard<std::mutex> lock(write_mutex_);
    inbox_.append(line);
    inbox_.push_back('\n');
    total = outbound_bytes_.fetch_add(line.size() + 1,
                                      std::memory_order_acq_rel) +
            line.size() + 1;
  }
  if (write_buffer_limit_ != 0 && total > write_buffer_limit_) {
    // Latch; the queued bytes are never sent — the loop thread drops the
    // connection when it sees the latch, and this producer's session
    // treats the false return as cancellation.
    overflowed_.store(true, std::memory_order_release);
  }
  // The loop thread flushes after its own writes; only a producer on
  // another thread needs the wake.
  if (!loop_.in_loop_thread() &&
      !wake_pending_.exchange(true, std::memory_order_acq_rel) && wake_fn_) {
    wake_fn_();
  }
  return !overflowed();
}

bool Connection::flush() {
  wake_pending_.store(false, std::memory_order_release);
  if (!fd_.valid()) {
    return false;
  }
  for (;;) {
    if (writing_offset_ == writing_.size()) {
      writing_.clear();
      writing_offset_ = 0;
      {
        const std::lock_guard<std::mutex> lock(write_mutex_);
        writing_.swap(inbox_);
      }
      if (writing_.empty()) {
        break;
      }
    }
    std::size_t n = 0;
    const IoStatus status =
        write_some(fd_.fd(), writing_.data() + writing_offset_,
                   writing_.size() - writing_offset_, &n);
    if (status == IoStatus::kOk) {
      writing_offset_ += n;
      outbound_bytes_.fetch_sub(n, std::memory_order_acq_rel);
      continue;
    }
    if (status == IoStatus::kWouldBlock) {
      want_write_ = true;
      update_interest();
      return true;
    }
    return false;
  }
  want_write_ = false;
  update_interest();
  return true;
}

void Connection::set_read_hold(bool hold) {
  read_hold_ = hold;
  update_interest();
}

void Connection::update_interest() {
  if (!fd_.valid()) {
    return;
  }
  const bool pause =
      read_hold_ || (write_buffer_limit_ != 0 &&
                     outbound_bytes() > write_buffer_limit_ / 2);
  std::uint32_t mask = pause ? 0 : IoEvents::kRead;
  if (want_write_) {
    mask |= IoEvents::kWrite;
  }
  reading_paused_ = pause;
  if (mask != current_interest_) {
    current_interest_ = mask;
    loop_.modify_fd(fd_.fd(), mask);
  }
}

void Connection::close() {
  closed_.store(true, std::memory_order_release);
  if (fd_.valid()) {
    loop_.remove_fd(fd_.fd());
    fd_.reset();
  }
}

}  // namespace resilience::net

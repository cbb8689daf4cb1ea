#include "resilience/net/event_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>
#endif

namespace resilience::net {

namespace {

/// The loop whose run() this thread is inside, if any.
thread_local const EventLoop* t_running_loop = nullptr;

}  // namespace

bool EventLoop::in_loop_thread() const noexcept {
  return t_running_loop == this;
}

EventLoop::TimerId EventLoop::run_at(Clock::time_point when, Task task) {
  const TimerId timer{when, next_timer_++};
  timers_.emplace(timer, std::move(task));
  return timer;
}

/// epoll_wait's timeout: none without a run_at() task, else the time to
/// the earliest, rounded up: a wake before it is due would find nothing
/// to run and wait again for the sub-millisecond rest, a spin.
int EventLoop::wait_ms() const {
  if (timers_.empty()) {
    return -1;
  }
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(
                      timers_.begin()->first.first - Clock::now())
                      .count();
  return static_cast<int>(std::clamp<std::int64_t>(ms, 0, INT_MAX));
}

void EventLoop::run_due_timers() {
  // One at a time: a task may cancel, or add, the ones after it.
  while (!timers_.empty() && timers_.begin()->first.first <= polled_at_) {
    const Task task = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    task();
  }
}

#if defined(__linux__)

namespace {

/// Packs (fd, generation) into the 64-bit epoll user data so stale
/// readiness survives fd-number recycling checks.
std::uint64_t pack(int fd, std::uint32_t generation) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(fd)) << 32) |
         generation;
}

std::uint32_t epoll_mask(std::uint32_t events) {
  std::uint32_t mask = EPOLLET;
  if (events & IoEvents::kRead) {
    mask |= EPOLLIN;
  }
  if (events & IoEvents::kWrite) {
    mask |= EPOLLOUT;
  }
  // EPOLLERR/EPOLLHUP are always reported; no need to request them.
  return mask;
}

/// One eventfd increment, async-signal-safe. EAGAIN means the counter
/// is already nonzero: the loop is waking anyway.
void signal_eventfd(int fd) noexcept {
  const std::uint64_t one = 1;
  while (::write(fd, &one, sizeof(one)) == -1 && errno == EINTR) {
  }
}

}  // namespace

EventLoop::EventLoop()
    : epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (!epoll_.valid()) {
    throw std::runtime_error(std::string("net: epoll_create1: ") +
                             std::strerror(errno));
  }
  if (!wake_.valid()) {
    throw std::runtime_error(std::string("net: eventfd: ") +
                             std::strerror(errno));
  }
  epoll_event event{};
  event.events = EPOLLIN | EPOLLET;
  event.data.u64 = pack(wake_.fd(), 0);
  if (::epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, wake_.fd(), &event) == -1) {
    throw std::runtime_error(std::string("net: epoll_ctl(wake): ") +
                             std::strerror(errno));
  }
}

EventLoop::~EventLoop() = default;

void EventLoop::add_fd(int fd, std::uint32_t events, IoHandler handler) {
  const std::uint32_t generation = next_generation_++;
  epoll_event event{};
  event.events = epoll_mask(events);
  event.data.u64 = pack(fd, generation);
  if (::epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, fd, &event) == -1) {
    throw std::runtime_error(std::string("net: epoll_ctl(add): ") +
                             std::strerror(errno));
  }
  registrations_[fd] = Registration{
      generation, std::make_shared<IoHandler>(std::move(handler))};
}

void EventLoop::modify_fd(int fd, std::uint32_t events) {
  const auto it = registrations_.find(fd);
  if (it == registrations_.end()) {
    return;
  }
  epoll_event event{};
  event.events = epoll_mask(events);
  event.data.u64 = pack(fd, it->second.generation);
  if (::epoll_ctl(epoll_.fd(), EPOLL_CTL_MOD, fd, &event) == -1) {
    throw std::runtime_error(std::string("net: epoll_ctl(mod): ") +
                             std::strerror(errno));
  }
}

void EventLoop::remove_fd(int fd) {
  if (registrations_.erase(fd) > 0) {
    // The fd may already be closed by the caller; EBADF/ENOENT are fine.
    (void)::epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, fd, nullptr);
  }
}

void EventLoop::post(Task task) {
  bool need_wake;
  {
    const std::lock_guard<std::mutex> lock(task_mutex_);
    tasks_.push_back(std::move(task));
    need_wake = !wake_armed_;
    wake_armed_ = true;
  }
  if (need_wake) {
    signal_eventfd(wake_.fd());
  }
}

void EventLoop::interrupt() noexcept {
  interrupted_.store(true, std::memory_order_release);
  signal_eventfd(wake_.fd());
}

void EventLoop::stop() {
  post([this] { stop_requested_ = true; });
}

void EventLoop::drain_tasks() {
  std::vector<Task> batch;
  {
    const std::lock_guard<std::mutex> lock(task_mutex_);
    batch.swap(tasks_);
    wake_armed_ = false;
  }
  for (Task& task : batch) {
    task();
  }
}

void EventLoop::dispatch_ready(int timeout_ms) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int count;
  do {
    count = ::epoll_wait(epoll_.fd(), events, kMaxEvents, timeout_ms);
  } while (count == -1 && errno == EINTR);
  if (count == -1) {
    throw std::runtime_error(std::string("net: epoll_wait: ") +
                             std::strerror(errno));
  }
  ++polls_;
  // Only what was due when the wait returned runs after this batch: a
  // task the batch adds for now waits for the next epoll_wait.
  if (!timers_.empty()) {
    polled_at_ = Clock::now();
  }
  for (int i = 0; i < count; ++i) {
    const int fd = static_cast<int>(events[i].data.u64 >> 32);
    const auto generation = static_cast<std::uint32_t>(events[i].data.u64);
    if (fd == wake_.fd()) {
      std::uint64_t value = 0;
      while (::read(wake_.fd(), &value, sizeof(value)) > 0) {
      }
      // Checked after the drain: an interrupt raised after this check
      // writes the eventfd again, so the next epoll_wait reports it.
      if (interrupted_.exchange(false, std::memory_order_acq_rel) &&
          interrupt_handler_) {
        interrupt_handler_();
      }
      continue;  // tasks drain after the fd batch
    }
    const auto it = registrations_.find(fd);
    if (it == registrations_.end() || it->second.generation != generation) {
      continue;  // removed (or fd recycled) earlier in this batch
    }
    std::uint32_t ready = 0;
    if (events[i].events & (EPOLLIN | EPOLLRDHUP)) {
      ready |= IoEvents::kRead;
    }
    if (events[i].events & EPOLLOUT) {
      ready |= IoEvents::kWrite;
    }
    if (events[i].events & (EPOLLERR | EPOLLHUP)) {
      ready |= IoEvents::kError;
    }
    // The handler may remove this or any other registration (closing a
    // connection from its own event does); later stale events in the
    // batch are skipped by the generation check above, and the local
    // shared_ptr keeps THIS handler alive through its own erase.
    const std::shared_ptr<IoHandler> handler = it->second.handler;
    (*handler)(ready);
  }
}

void EventLoop::run() {
  t_running_loop = this;
  stop_requested_ = false;
  while (!stop_requested_) {
    dispatch_ready(wait_ms());
    run_due_timers();
    drain_tasks();
  }
  t_running_loop = nullptr;
}

#else  // !__linux__

EventLoop::EventLoop() {
  throw std::runtime_error(
      "resilience/net: EventLoop requires Linux (epoll)");
}
EventLoop::~EventLoop() = default;
void EventLoop::add_fd(int, std::uint32_t, IoHandler) {}
void EventLoop::modify_fd(int, std::uint32_t) {}
void EventLoop::remove_fd(int) {}
void EventLoop::post(Task) {}
void EventLoop::interrupt() noexcept {}
void EventLoop::run() {}
void EventLoop::stop() {}
void EventLoop::dispatch_ready(int) {}
void EventLoop::drain_tasks() {}

#endif

}  // namespace resilience::net

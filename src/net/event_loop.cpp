#include "resilience/net/event_loop.hpp"

#include <cerrno>
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
    const std::uint64_t one = 1;
    ssize_t rc;
    do {
      rc = ::write(wake_.fd(), &one, sizeof(one));
    } while (rc == -1 && errno == EINTR);
    // EAGAIN means the counter is already nonzero: the loop is waking.
  }
}

void EventLoop::defer(Task task) { deferred_.push_back(std::move(task)); }

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
  for (int i = 0; i < count; ++i) {
    const int fd = static_cast<int>(events[i].data.u64 >> 32);
    const auto generation = static_cast<std::uint32_t>(events[i].data.u64);
    if (fd == wake_.fd()) {
      std::uint64_t value = 0;
      while (::read(wake_.fd(), &value, sizeof(value)) > 0) {
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
  running_ = true;
  stop_requested_ = false;
  while (!stop_requested_) {
    std::vector<Task> deferred;
    deferred.swap(deferred_);
    dispatch_ready(/*timeout_ms=*/deferred.empty() ? -1 : 0);
    for (Task& task : deferred) {
      task();
    }
    drain_tasks();
  }
  running_ = false;
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
void EventLoop::defer(Task) {}
void EventLoop::run() {}
void EventLoop::stop() {}
void EventLoop::dispatch_ready(int) {}
void EventLoop::drain_tasks() {}

#endif

}  // namespace resilience::net

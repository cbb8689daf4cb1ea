#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>

#include "metrics.hpp"

namespace perfbench {

namespace {

bool starts_with(const std::string& line, const char* prefix) {
  return line.rfind(prefix, 0) == 0;
}

/// How long a phase may take past its end to drain the responses still
/// owed: an open loop that outran a host stall works off a backlog of
/// seconds, which is slow, not wrong; only silence (stall_ms) fails.
constexpr std::int64_t kDrainNs = 30'000'000'000;
/// epoll wait per loop turn. A turn that took far longer than this means
/// the generator itself was not running (preempted, or the whole VM
/// paused): silence over that gap was not observed and is not charged to
/// the server.
constexpr int kPollMs = 50;
constexpr std::int64_t kUnobservedGapNs = 500'000'000;

bool is_cell_line(const std::string& line) {
  return starts_with(line, "{\"type\":\"cell\"");
}

/// "runs" of a simulate done line, 0 for any other line.
std::uint64_t done_runs(const std::string& line) {
  if (line.find("\"mode\":\"simulate\"") == std::string::npos) {
    return 0;
  }
  const std::size_t at = line.find("\"runs\":");
  return at == std::string::npos
             ? 0
             : std::strtoull(line.c_str() + at + 7, nullptr, 10);
}

int open_socket(std::uint16_t port, int timeout_ms, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = "connect to port " + std::to_string(port) + ": " +
             std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

bool is_terminal_line(const std::string& line) {
  return starts_with(line, "{\"type\":\"done\"") ||
         starts_with(line, "{\"type\":\"error\"") ||
         starts_with(line, "{\"type\":\"stats\"") ||
         starts_with(line, "{\"type\":\"pong\"");
}

struct Generator::Conn {
  struct Pending {
    std::size_t index = 0;
    std::int64_t due_ns = 0;   ///< intended send (open loop) or send
    std::int64_t first_cell_ns = 0;
    std::size_t cells = 0;
    std::string response;
  };
  int fd = -1;
  std::string in;
  std::string out;
  bool want_out = false;
  std::deque<Pending> pending;
  std::int64_t last_progress_ns = 0;
};

struct Generator::Loop {
  Loop(const LineFn& line_fn, const CheckFn& check_fn, std::size_t& next)
      : line(line_fn), check(check_fn), next_index(next) {}

  const LineFn& line;
  const CheckFn& check;
  std::size_t& next_index;
  bool open = false;
  std::size_t in_flight = 1;
  const std::vector<double>* offsets = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;       ///< closed loop: stop sending
  std::int64_t hard_end_ns = 0;  ///< every outstanding request fails past it
  std::size_t next_arrival = 0;
  std::size_t round_robin = 0;
  std::int64_t last_done_ns = 0;
  bool stop = false;
  PhaseResult result;
};

Generator::Generator(std::uint16_t port, std::size_t connections, int stall_ms)
    : port_(port), connection_count_(connections), stall_ms_(stall_ms) {
  // Timer wakeups on time: the default 50 us slack would show up as
  // generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
}

Generator::~Generator() {
  for (Conn* conn : conns_) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
    }
    delete conn;
  }
  if (timer_fd_ >= 0) {
    ::close(timer_fd_);
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
}

bool Generator::connect(std::string* error) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0) {
    *error = std::string("epoll/timerfd: ") + std::strerror(errno);
    return false;
  }
  epoll_event timer_event{};
  timer_event.events = EPOLLIN;
  timer_event.data.ptr = nullptr;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &timer_event);
  for (std::size_t i = 0; i < connection_count_; ++i) {
    auto* conn = new Conn();
    conns_.push_back(conn);
    conn->fd = open_socket(port_, stall_ms_, error);
    if (conn->fd < 0) {
      return false;
    }
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    epoll_event event{};
    event.events = EPOLLIN | EPOLLRDHUP;
    event.data.ptr = conn;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &event);
  }
  return true;
}

PhaseResult Generator::closed_loop(const LineFn& line, std::size_t in_flight,
                                   double seconds, const CheckFn& check,
                                   std::size_t& next_index) {
  Loop loop(line, check, next_index);
  loop.in_flight = in_flight;
  loop.start_ns = now_ns();
  loop.end_ns = loop.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  loop.hard_end_ns = loop.end_ns + kDrainNs;
  return run(loop);
}

PhaseResult Generator::open_loop(const LineFn& line,
                                 const std::vector<double>& offsets,
                                 const CheckFn& check,
                                 std::size_t& next_index) {
  Loop loop(line, check, next_index);
  loop.open = true;
  loop.offsets = &offsets;
  loop.start_ns = now_ns();
  loop.end_ns = loop.start_ns +
                (offsets.empty() ? 0
                                 : static_cast<std::int64_t>(offsets.back() * 1e9));
  loop.hard_end_ns = loop.end_ns + kDrainNs;
  return run(loop);
}

PhaseResult Generator::run(Loop& loop) {
  PhaseResult& result = loop.result;
  result.start_ns = loop.start_ns;
  auto fail_all = [&](const std::string& why) {
    if (result.failure.empty()) {
      result.failure = why;
    }
    for (Conn* conn : conns_) {
      result.failed += conn->pending.size();
      conn->pending.clear();
    }
    loop.stop = true;
  };
  auto flush = [&](Conn& conn) {
    while (!conn.out.empty()) {
      const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                               MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        fail_all(std::string("send: ") + std::strerror(errno));
        return;
      }
    }
    const bool want = !conn.out.empty();
    if (want != conn.want_out) {
      conn.want_out = want;
      epoll_event event{};
      event.events = EPOLLIN | EPOLLRDHUP | (want ? EPOLLOUT : 0u);
      event.data.ptr = &conn;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
    }
  };
  auto send = [&](Conn& conn, std::int64_t due_ns) {
    const std::size_t index = loop.next_index++;
    const std::string& text = loop.line(index);
    const std::int64_t sent = now_ns();
    if (loop.open) {
      result.lateness_ms.push_back(static_cast<double>(sent - due_ns) / 1e6);
    } else {
      due_ns = sent;
    }
    if (conn.pending.empty()) {
      conn.last_progress_ns = sent;
    }
    conn.pending.push_back(Conn::Pending{index, due_ns, 0, 0, {}});
    ++result.attempted;
    conn.out.append(text);
    conn.out.push_back('\n');
    flush(conn);
  };
  auto complete = [&](Conn& conn, const std::string& terminal, std::int64_t at) {
    Conn::Pending done = std::move(conn.pending.front());
    conn.pending.pop_front();
    std::string why = starts_with(terminal, "{\"type\":\"error\"")
                          ? "error response: " + terminal
                          : loop.check(done.index, done.response);
    loop.last_done_ns = at;
    if (!why.empty()) {
      ++result.failed;
      fail_all("request " + std::to_string(done.index) + ": " + why);
      return;
    }
    ++result.completed;
    result.runs += done_runs(terminal);
    result.latency_ms.push_back(static_cast<double>(at - done.due_ns) / 1e6);
    result.done_s.push_back(static_cast<double>(at - loop.start_ns) / 1e9);
    result.done_cells.push_back(static_cast<double>(done.cells));
    if (done.first_cell_ns != 0) {
      result.ttfc_ms.push_back(
          static_cast<double>(done.first_cell_ns - done.due_ns) / 1e6);
    }
    if (!loop.open && at < loop.end_ns) {
      send(conn, 0);
    }
  };
  auto receive = [&](Conn& conn) {
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        const std::int64_t at = now_ns();
        conn.last_progress_ns = at;
        conn.in.append(buffer, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        for (std::size_t nl; (nl = conn.in.find('\n', begin)) != std::string::npos;
             begin = nl + 1) {
          std::string text = conn.in.substr(begin, nl - begin);
          if (conn.pending.empty()) {
            fail_all("unexpected line: " + text.substr(0, 200));
            return;
          }
          Conn::Pending& head = conn.pending.front();
          head.response.append(text);
          head.response.push_back('\n');
          if (is_cell_line(text)) {
            ++head.cells;
            if (head.first_cell_ns == 0) {
              head.first_cell_ns = at;
            }
          } else if (is_terminal_line(text)) {
            complete(conn, text, at);
            if (loop.stop) {
              return;
            }
          }
        }
        conn.in.erase(0, begin);
        continue;
      }
      if (n == 0) {
        if (!conn.pending.empty()) {
          fail_all("connection closed with a response outstanding");
        }
        return;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        fail_all(std::string("recv: ") + std::strerror(errno));
      }
      return;
    }
  };
  auto arm_timer = [&](std::int64_t at_ns) {
    itimerspec spec{};
    spec.it_value.tv_sec = at_ns / 1000000000;
    spec.it_value.tv_nsec = at_ns % 1000000000;
    ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
  };

  if (!loop.open) {
    for (Conn* conn : conns_) {
      for (std::size_t k = 0; k < loop.in_flight && !loop.stop; ++k) {
        send(*conn, 0);
      }
    }
  }
  const std::int64_t stall_ns = static_cast<std::int64_t>(stall_ms_) * 1000000;
  epoll_event events[16];
  std::int64_t last_turn_ns = now_ns();
  while (!loop.stop) {
    std::int64_t now = now_ns();
    if (now - last_turn_ns > kUnobservedGapNs) {
      for (Conn* conn : conns_) {
        conn->last_progress_ns += now - last_turn_ns;
      }
    }
    last_turn_ns = now;
    if (loop.open) {
      const std::vector<double>& offsets = *loop.offsets;
      while (loop.next_arrival < offsets.size() && !loop.stop) {
        const std::int64_t due =
            loop.start_ns +
            static_cast<std::int64_t>(offsets[loop.next_arrival] * 1e9);
        if (due > now) {
          arm_timer(due);
          break;
        }
        ++loop.next_arrival;
        send(*conns_[loop.round_robin++ % conns_.size()], due);
        now = now_ns();
      }
    }
    bool outstanding = false;
    for (Conn* conn : conns_) {
      if (!conn->pending.empty() && !loop.stop) {
        outstanding = true;
        if (now - conn->last_progress_ns > stall_ns) {
          // Bytes that arrived while this turn ran are read before the
          // silence is judged.
          receive(*conn);
          if (!loop.stop && !conn->pending.empty() &&
              now_ns() - conn->last_progress_ns > stall_ns) {
            fail_all("no response bytes for " + std::to_string(stall_ms_) +
                     " ms (stalled)");
          }
        }
      }
    }
    if (loop.stop) {
      break;
    }
    const bool sending = loop.open ? loop.next_arrival < loop.offsets->size()
                                   : now < loop.end_ns;
    if (!outstanding && !sending) {
      break;
    }
    if (now > loop.hard_end_ns && outstanding) {
      fail_all("phase overran its deadline");
      break;
    }
    const int ready = ::epoll_wait(epoll_fd_, events, 16, kPollMs);
    for (int i = 0; i < ready && !loop.stop; ++i) {
      if (events[i].data.ptr == nullptr) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t ignored =
            ::read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      Conn& conn = *static_cast<Conn*>(events[i].data.ptr);
      if ((events[i].events & EPOLLOUT) != 0) {
        flush(conn);
      }
      if ((events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) !=
          0) {
        receive(conn);
      }
    }
  }
  result.elapsed_s =
      static_cast<double>(
          (loop.last_done_ns > loop.start_ns ? loop.last_done_ns : now_ns()) -
          loop.start_ns) /
      1e9;
  return result;
}

std::vector<std::string> transact(std::uint16_t port,
                                  const std::vector<std::string>& lines,
                                  int timeout_ms, std::string* error) {
  const int fd = open_socket(port, timeout_ms, error);
  if (fd < 0) {
    return {};
  }
  std::string payload;
  std::size_t expected = 0;
  for (const std::string& line : lines) {
    payload += line;
    payload += '\n';
    ++expected;
  }
  std::vector<std::string> answer;
  for (std::size_t sent = 0; sent < payload.size();) {
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string buffer;
  std::size_t terminals = 0;
  char chunk[1 << 16];
  while (terminals < expected) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      *error = n == 0 ? "connection closed before the answer"
                      : "no answer within " + std::to_string(timeout_ms) + " ms";
      ::close(fd);
      return {};
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t nl; (nl = buffer.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      answer.push_back(buffer.substr(begin, nl - begin));
      terminals += is_terminal_line(answer.back()) ? 1 : 0;
    }
    buffer.erase(0, begin);
  }
  ::close(fd);
  return answer;
}

}  // namespace perfbench

#include "resilience/net/socket.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#if defined(__linux__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace resilience::net {

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Fd::release() noexcept {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

#if defined(__linux__)

bool transport_supported() noexcept { return true; }

void Fd::reset() {
  if (fd_ >= 0) {
    int rc;
    do {
      rc = ::close(fd_);
    } while (rc == -1 && errno == EINTR);
    fd_ = -1;
  }
}

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("net: " + what + ": " + std::strerror(errno));
}

sockaddr_in resolve_ipv4(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) {
    return addr;
  }
  // Not a dotted quad: resolve (covers "localhost"). IPv4-only keeps the
  // code tiny; the daemon serves loopback/LAN sweeps, not the open web.
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &result);
  if (rc != 0 || result == nullptr) {
    throw std::runtime_error("net: cannot resolve host '" + host +
                             "': " + ::gai_strerror(rc));
  }
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return addr;
}

}  // namespace

IoStatus read_some(int fd, char* data, std::size_t size,
                   std::size_t* transferred) {
  *transferred = 0;
  for (;;) {
    const ssize_t n = ::read(fd, data, size);
    if (n > 0) {
      *transferred = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) {
      return IoStatus::kEof;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoStatus::kWouldBlock;
    }
    return IoStatus::kError;
  }
}

IoStatus write_some(int fd, const char* data, std::size_t size,
                    std::size_t* transferred) {
  *transferred = 0;
  for (;;) {
    // MSG_NOSIGNAL: a peer that closed mid-stream must surface as EPIPE,
    // not kill the daemon with SIGPIPE.
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n >= 0) {
      *transferred = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoStatus::kWouldBlock;
    }
    return IoStatus::kError;
  }
}

Fd listen_tcp(const std::string& host, std::uint16_t port, int backlog,
              std::uint16_t* bound_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    throw_errno("socket");
  }
  const int one = 1;
  if (::setsockopt(fd.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) ==
      -1) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr = resolve_ipv4(host, port);
  if (::bind(fd.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
      -1) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.fd(), backlog) == -1) {
    throw_errno("listen");
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.fd(), reinterpret_cast<sockaddr*>(&bound), &len) ==
        -1) {
      throw_errno("getsockname");
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Fd accept_connection(int listen_fd, bool* exhausted) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      return Fd(fd);
    }
    switch (errno) {
      case EINTR:
      // That one connection failed before it was accepted; the next
      // may not have (accept(2), "Error handling").
      case ECONNABORTED:
      case EPROTO:
      case ENETDOWN:
      case ENOPROTOOPT:
      case EHOSTDOWN:
      case ENONET:
      case EHOSTUNREACH:
      case EOPNOTSUPP:
      case ENETUNREACH:
        continue;
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
        if (exhausted != nullptr) {
          *exhausted = true;
        }
        return Fd();
      default:  // EAGAIN: drained; or the listener failed
        return Fd();
    }
  }
}

Fd connect_tcp(const std::string& host, std::uint16_t port, int timeout_ms) {
  // A bounded connect must run non-blocking (a blocking ::connect cannot
  // be interrupted short of SYN-retry exhaustion); the unbounded path
  // stays blocking but shares the poll + SO_ERROR completion below when
  // EINTR leaves the connect establishing in the kernel.
  const int flags =
      SOCK_STREAM | SOCK_CLOEXEC | (timeout_ms > 0 ? SOCK_NONBLOCK : 0);
  Fd fd(::socket(AF_INET, flags, 0));
  if (!fd.valid()) {
    throw_errno("socket");
  }
  sockaddr_in addr = resolve_ipv4(host, port);
  int rc =
      ::connect(fd.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc == -1 && (errno == EINTR || errno == EINPROGRESS)) {
    // POSIX: an EINTR'd (or non-blocking in-progress) connect keeps
    // establishing in the kernel, and calling connect() again yields
    // EALREADY/EISCONN, not a restart — wait for writability and read
    // the real outcome from SO_ERROR.
    pollfd ready{};
    ready.fd = fd.fd();
    ready.events = POLLOUT;
    do {
      rc = ::poll(&ready, 1, timeout_ms > 0 ? timeout_ms : -1);
    } while (rc == -1 && errno == EINTR);
    if (rc == -1) {
      throw_errno("poll(connect " + host + ":" + std::to_string(port) + ")");
    }
    if (rc == 0) {
      throw std::runtime_error("net: connect " + host + ":" +
                               std::to_string(port) + ": timed out after " +
                               std::to_string(timeout_ms) + " ms");
    }
    int error = 0;
    socklen_t len = sizeof(error);
    if (::getsockopt(fd.fd(), SOL_SOCKET, SO_ERROR, &error, &len) == -1) {
      throw_errno("getsockopt(SO_ERROR)");
    }
    if (error != 0) {
      errno = error;
      rc = -1;
    } else {
      rc = 0;
    }
  }
  if (rc == -1) {
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  if (timeout_ms > 0) {
    set_blocking(fd.fd());  // callers expect a blocking client socket
  }
  set_tcp_nodelay(fd.fd());
  return fd;
}

void set_blocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags != -1) {
    (void)::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags != -1) {
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

void set_linger_reset(int fd) {
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  (void)::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_send_buffer(int fd, int bytes) {
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
}

void shutdown_send_half(int fd) { (void)::shutdown(fd, SHUT_WR); }

void set_receive_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<long>(timeout_ms % 1000) * 1000L;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

std::vector<bool> wait_readable(const std::vector<int>& fds, int timeout_ms) {
  std::vector<pollfd> polled;
  for (const int fd : fds) {
    polled.push_back(pollfd{fd, POLLIN, 0});
  }
  int rc = 0;
  do {
    rc = ::poll(polled.data(), polled.size(), timeout_ms);
  } while (rc == -1 && errno == EINTR);
  std::vector<bool> ready;
  for (const pollfd& entry : polled) {
    // A failed poll counts as ready: the read reports the real error.
    ready.push_back(rc == -1 || entry.revents != 0);
  }
  return ready;
}

#else  // !__linux__ — keep the library linkable; the daemon is Linux-only.

bool transport_supported() noexcept { return false; }

void Fd::reset() { fd_ = -1; }

namespace {
[[noreturn]] void unsupported() {
  throw std::runtime_error(
      "resilience/net: the socket transport requires Linux (epoll)");
}
}  // namespace

IoStatus read_some(int, char*, std::size_t, std::size_t*) { unsupported(); }
IoStatus write_some(int, const char*, std::size_t, std::size_t*) {
  unsupported();
}
Fd listen_tcp(const std::string&, std::uint16_t, int, std::uint16_t*) {
  unsupported();
}
Fd accept_connection(int, bool*) { unsupported(); }
Fd connect_tcp(const std::string&, std::uint16_t, int) { unsupported(); }
void set_blocking(int) {}
void set_nonblocking(int) {}
void set_linger_reset(int) {}
void set_tcp_nodelay(int) {}
void set_send_buffer(int, int) {}
void shutdown_send_half(int) {}
void set_receive_timeout(int, int) {}
std::vector<bool> wait_readable(const std::vector<int>&, int) { unsupported(); }

#endif

}  // namespace resilience::net

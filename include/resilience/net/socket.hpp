#pragma once

// Thin, dependency-free wrappers over the handful of POSIX socket calls
// the transport needs. Everything that touches a raw syscall lives here
// (and in event_loop.cpp), so the rest of net/ is plain C++ over these
// helpers; non-Linux builds get stubs that throw, keeping the library
// linkable everywhere while the daemon itself is Linux-only (epoll).

#include <cstdint>
#include <string>
#include <vector>

namespace resilience::net {

/// True when the transport layer is functional on this platform (Linux).
[[nodiscard]] bool transport_supported() noexcept;

/// Owning file descriptor: closes on destruction, move-only. fd() is -1
/// when empty.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  /// Closes the held descriptor (EINTR-safe), leaving the object empty.
  void reset();
  /// Releases ownership without closing.
  int release() noexcept;

 private:
  int fd_ = -1;
};

/// Transient outcome of a non-blocking read/write attempt.
enum class IoStatus {
  kOk,         ///< some bytes transferred (count in the out-parameter)
  kWouldBlock, ///< EAGAIN/EWOULDBLOCK — retry on the next readiness edge
  kEof,        ///< orderly peer shutdown (reads only)
  kError,      ///< connection-fatal errno (reset, pipe, ...)
};

/// Non-blocking read/write with EINTR retry. `transferred` receives the
/// byte count on kOk and 0 otherwise.
IoStatus read_some(int fd, char* data, std::size_t size,
                   std::size_t* transferred);
IoStatus write_some(int fd, const char* data, std::size_t size,
                    std::size_t* transferred);

/// Creates a non-blocking, close-on-exec listening TCP socket bound to
/// `host:port` (SO_REUSEADDR; port 0 = kernel-assigned). Throws
/// std::runtime_error with the errno text on failure. `bound_port`
/// receives the actual port (useful with port 0).
[[nodiscard]] Fd listen_tcp(const std::string& host, std::uint16_t port,
                            int backlog, std::uint16_t* bound_port);

/// Accepts one pending connection as a non-blocking, close-on-exec fd,
/// skipping those that failed before they were accepted (ECONNABORTED,
/// EPROTO and the network errors accept(2) says to retry after). Returns
/// an empty Fd when the queue is drained, or with `*exhausted` set when
/// the process is out of descriptors or the kernel out of memory
/// (EMFILE, ENFILE, ENOBUFS, ENOMEM: the connection stays queued).
[[nodiscard]] Fd accept_connection(int listen_fd, bool* exhausted = nullptr);

/// Blocking TCP connect for the client side; throws std::runtime_error
/// on failure. TCP_NODELAY is set (request/response lines are tiny and
/// latency-bound). With `timeout_ms` > 0 the attempt is bounded: the
/// connect runs non-blocking, waits for writability up to the timeout
/// (ETIMEDOUT past it) and reads the real outcome from SO_ERROR — the
/// same readiness dance the EINTR path always needed — then returns the
/// socket restored to blocking mode. 0 keeps the OS default (which on a
/// blackholed host means minutes of SYN retries).
[[nodiscard]] Fd connect_tcp(const std::string& host, std::uint16_t port,
                             int timeout_ms = 0);

/// Restores a (SOCK_NONBLOCK-accepted) descriptor to blocking mode
/// (best-effort) — for thread-per-connection code pumping with plain
/// blocking reads.
void set_blocking(int fd);

/// The inverse (best-effort): O_NONBLOCK on, for poll-driven pumps over
/// sockets that were created blocking (e.g. a connect_tcp result).
void set_nonblocking(int fd);

/// Arms SO_LINGER{on, 0s}: the next close() aborts the connection with a
/// TCP RST instead of an orderly FIN. The fault injector uses this to
/// simulate crashed peers (the receiver sees ECONNRESET, not EOF).
void set_linger_reset(int fd);

/// Disables Nagle on an accepted server-side socket (best-effort).
void set_tcp_nodelay(int fd);

/// Half-closes the send direction (shutdown(SHUT_WR), best-effort): the
/// peer sees EOF but this end keeps reading — the nc-style client shape.
void shutdown_send_half(int fd);

/// Shrinks the kernel send buffer (best-effort; the kernel clamps to its
/// minimum). Tests use this to exercise backpressure without megabytes
/// of traffic.
void set_send_buffer(int fd, int bytes);

/// SO_RCVTIMEO on a blocking socket (best-effort): a read that waits
/// longer surfaces as IoStatus::kWouldBlock. 0 = wait forever.
void set_receive_timeout(int fd, int timeout_ms);

/// Waits up to `timeout_ms` (0: just look, negative: no bound) until a
/// read on some of `fds` would not block: bytes, EOF or an error are
/// pending. One flag per fd, all false on timeout. How a kept idle
/// connection is checked for a restarted peer or stray bytes before it
/// is reused, and how the router reads shard answers as they arrive.
[[nodiscard]] std::vector<bool> wait_readable(const std::vector<int>& fds,
                                              int timeout_ms);

}  // namespace resilience::net

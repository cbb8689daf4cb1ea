#pragma once

// Blocking JSONL client for the transport daemon — what the tests, the
// CI smoke driver and the loopback bench speak. Deliberately simple:
// synchronous connect/send/recv over one socket, with just enough
// structure for pipelining (send many request lines first, then collect
// each response in order). A "response" is every line up to and
// including the terminal line of one request: type "done", "stats",
// "error" or "pong".

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/net/framing.hpp"
#include "resilience/net/socket.hpp"

namespace resilience::net {

class Client {
 public:
  Client() = default;

  /// Connects (throws std::runtime_error on failure). A positive
  /// `connect_timeout_ms` bounds the attempt (see connect_tcp); 0 keeps
  /// the OS default, which on a blackholed host means minutes.
  void connect(const std::string& host, std::uint16_t port,
               int connect_timeout_ms = 0);
  [[nodiscard]] bool connected() const noexcept { return fd_.valid(); }
  [[nodiscard]] int fd() const noexcept { return fd_.fd(); }
  void close() { fd_.reset(); }
  /// True when the connection is open and idle: nothing received is
  /// buffered and nothing is readable (no bytes, no EOF), so no restarted
  /// peer or stray bytes wait behind a kept connection.
  [[nodiscard]] bool quiet() const;

  /// Sends one request line (terminator appended) / raw bytes verbatim
  /// (pipelining a whole request file in one write). Throws on a broken
  /// connection.
  void send_line(std::string_view line);
  void send_raw(std::string_view bytes);

  /// Half-close: no more requests, but keep reading responses — the
  /// `printf ... | nc` interaction shape. The server answers everything
  /// already sent, then closes (read_line() returns nullopt).
  void shutdown_send();

  /// Bounds every subsequent read: a response not arriving within
  /// `timeout_ms` makes read_line()/read_response() throw instead of
  /// blocking forever (0 = wait forever, the default). What harnesses
  /// use so a dead server fails their gate rather than hanging them.
  void set_receive_timeout(int timeout_ms);

  /// Next response line (terminator stripped); nullopt at server EOF.
  /// Throws on a socket error.
  [[nodiscard]] std::optional<std::string> read_line();

  /// One collected response. `complete` says explicitly whether the
  /// terminal done/stats/error/pong line arrived — callers must not
  /// re-derive it from the last line's shape (a server dying mid-line
  /// can leave a partial line that still *looks* terminal to a prefix
  /// test; the framer knows whether the stream really ended cleanly).
  struct Response {
    std::vector<std::string> lines;
    bool complete = false;
  };

  /// Collects one full response: lines up to the terminal
  /// done/stats/error/pong line, inclusive (complete = true). If the
  /// server closes first, the partial lines received so far are returned
  /// with complete = false.
  [[nodiscard]] Response read_response();

  /// One step of read_response, for a caller that polls several clients'
  /// fd()s (wait_readable) and reads each as its bytes arrive: appends
  /// the lines received so far to `response`, reading the socket once
  /// first when no line is buffered, so it blocks unless fd() polled
  /// readable. True once the response ended (complete, or cut short by
  /// the server closing). Throws like read_line.
  [[nodiscard]] bool read_response_step(Response& response);

  /// Convenience round trip: send one request, read its response.
  [[nodiscard]] Response transact(std::string_view line);

  /// One {"type":"ping"} round trip: true on a clean pong, false on any
  /// other answer or failure (never throws). It counts as an input line.
  [[nodiscard]] bool ping();

 private:
  /// Reads one chunk from the socket into pending_ (or notes EOF).
  void receive();

  Fd fd_;
  LineFramer framer_;  ///< the server's framing rules, one implementation
  std::deque<std::string> pending_;  ///< framed lines not yet returned
  bool eof_ = false;
  /// The EOF delivery ended with an unterminated tail line (server died
  /// mid-line) — that last line can never count as a clean terminal.
  bool tail_unterminated_ = false;
};

/// True when `line` terminates a response (its "type" is done, stats,
/// error or pong). Exposed for front-ends that stream rather than
/// collect.
[[nodiscard]] bool is_terminal_response_line(std::string_view line);

}  // namespace resilience::net

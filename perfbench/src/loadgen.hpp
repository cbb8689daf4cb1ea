#pragma once

// The load generator: one thread multiplexing non-blocking connections to
// one server over epoll. A closed loop keeps a fixed number of requests in
// flight per connection; an open loop sends each request at its scheduled
// time (a timerfd with 1 ns timer slack) whatever the backlog, and times
// latency from that intended send time, so a stall is charged to every
// request it delays (Tene, "How NOT to Measure Latency", 2015).
//
// Every wait is bounded: a connection with requests outstanding that
// receives nothing for `stall_ms` fails them all and ends the phase, as
// does a response that fails its check. A run can fail; it cannot hang.
// Silence counts only while the generator watches: bytes already waiting
// are read first, and time the generator itself was not running is not
// charged to the server.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Checks one complete response (every line, '\n'-terminated) to request
/// `index`; returns "" when it is correct, else the reason it is not.
using CheckFn =
    std::function<std::string(std::size_t index, const std::string& response)>;
/// Request line `index` of the stream (no terminator).
using LineFn = std::function<const std::string&(std::size_t index)>;

struct PhaseResult {
  std::vector<double> latency_ms;   ///< send (or intended send) -> terminal line
  std::vector<double> ttfc_ms;      ///< send (or intended send) -> first cell line
  std::vector<double> lateness_ms;  ///< open loop: actual - intended send
  std::vector<double> done_s;       ///< completion times from phase start
  std::vector<double> done_cells;   ///< cell lines of each completion
  std::size_t attempted = 0;        ///< requests sent
  std::size_t completed = 0;        ///< correct responses
  std::size_t failed = 0;           ///< wrong, error, stalled or cut off
  std::uint64_t runs = 0;           ///< simulate done lines' "runs"
  std::int64_t start_ns = 0;        ///< phase start, now_ns() clock
  double elapsed_s = 0.0;           ///< phase start -> last response
  std::string failure;              ///< first failure ("" = none)
};

class Generator {
 public:
  Generator(std::uint16_t port, std::size_t connections, int stall_ms);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Opens the connections; false (with `error`) when one fails.
  bool connect(std::string* error);

  /// Closed loop for `seconds`: requests next_index, next_index+1, ...
  /// `next_index` advances past every request sent.
  PhaseResult closed_loop(const LineFn& line, std::size_t in_flight,
                          double seconds, const CheckFn& check,
                          std::size_t& next_index);

  /// Open loop: request next_index+k is due `offsets[k]` seconds after
  /// the phase starts; connections take arrivals round-robin.
  PhaseResult open_loop(const LineFn& line, const std::vector<double>& offsets,
                        const CheckFn& check, std::size_t& next_index);

 private:
  struct Conn;
  struct Loop;

  PhaseResult run(Loop& loop);

  std::uint16_t port_;
  std::size_t connection_count_;
  int stall_ms_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<Conn*> conns_;
};

/// Blocking one-shot exchange used outside the timed window (ping, stats,
/// working-set fill): sends `lines` over one connection and returns every
/// response line up to the last terminal one, or "" on error/timeout
/// (`timeout_ms` bounds each read).
[[nodiscard]] std::vector<std::string> transact(
    std::uint16_t port, const std::vector<std::string>& lines, int timeout_ms,
    std::string* error);

/// True for the lines that end a response: done, error, stats, pong.
[[nodiscard]] bool is_terminal_line(const std::string& line);

}  // namespace perfbench

#pragma once

// Client-side fault tolerance over net::Client: bounded connects,
// reconnection with exponential backoff + deterministic jitter, and safe
// re-submission of requests whose connection died mid-flight.
//
// Why blind retries are SAFE against this server (and would not be
// against most): responses are deterministic functions of the request
// (bit-identical tables, canonical JSON), and SweepCache plus in-flight
// dedupe make a re-submitted grid a cache hit or a join rather than a
// second compute — so at-least-once delivery costs neither correctness
// nor (materially) compute. The one wrinkle is request IDENTITY: default
// "line-N" ids number each connection's input lines from 1, so a retry
// on a fresh connection can be answered under a different default id
// than the original. Callers that match responses to requests by id
// should send explicit "id" fields (the chaos harness does); callers
// that only care about payload equality need nothing.
//
// Each (re)connect is gated by the {"type":"ping"} health probe
// (Client::ping): a connection only counts once the server answers pong,
// so a half-dead endpoint (accepting but wedged) is treated as down.

#include <cstdint>
#include <string>
#include <string_view>

#include "resilience/net/client.hpp"
#include "resilience/net/fault.hpp"

namespace resilience::net {

struct ResilientClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Bound on each connect attempt (see connect_tcp); 0 = OS default.
  int connect_timeout_ms = 2000;
  /// Receive timeout armed on every new connection, so a server that
  /// stalls mid-response surfaces as a retryable error instead of a
  /// hang; 0 = wait forever.
  int receive_timeout_ms = 10000;
  /// Total tries per request (first attempt included). At least 1.
  /// Retry k (1-based) first waits about 10 * 2^(k-1) ms, capped at
  /// 500 ms, half of it deterministic jitter.
  int max_attempts = 8;
  /// Seed of the jitter stream — retries are as reproducible as the
  /// faults that caused them.
  std::uint64_t jitter_seed = 1;
};

/// True when `response` is complete and terminates in an admission-shed
/// error line ({"type":"error",...,"code":"overloaded"}). Writes the
/// server's retry_after_ms hint (0 when absent) through `retry_after_ms`
/// when non-null. Shared by ResilientClient's backoff and the router's
/// backpressure handling.
[[nodiscard]] bool is_overloaded_response(const Client::Response& response,
                                          std::int64_t* retry_after_ms =
                                              nullptr);

class ResilientClient {
 public:
  explicit ResilientClient(ResilientClientOptions options);

  /// One request, delivered at-least-once: sends `line`, collects the
  /// response, and on ANY transport failure (connect refused/timed out,
  /// reset, mid-response close, receive timeout, failed probe) closes,
  /// backs off and retries on a fresh connection. Returns the first
  /// COMPLETE response (see Client::Response). Throws std::runtime_error
  /// carrying the last failure once max_attempts are spent. A complete
  /// "overloaded" shed answer is retried too, after the server's
  /// retry_after_ms (at most 5 s) instead of the backoff; if every
  /// attempt is shed, the LAST shed response is returned — not thrown —
  /// so callers can distinguish backpressure from a dead endpoint.
  [[nodiscard]] Client::Response transact(std::string_view line);

  void close() { client_.close(); }

  struct Stats {
    std::uint64_t reconnects = 0;  ///< probe-gated connects after the first
    std::uint64_t retries = 0;     ///< attempts beyond each request's first
    std::uint64_t failures = 0;    ///< attempts that ended in an error
    std::uint64_t overloaded = 0;  ///< admission-shed answers received
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Connects (+ probes) if not connected; throws on failure.
  void ensure_connected();
  void backoff(int attempt);

  ResilientClientOptions options_;
  Client client_;
  FaultSchedule jitter_;
  Stats stats_;
  bool ever_connected_ = false;
};

}  // namespace resilience::net

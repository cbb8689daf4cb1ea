#pragma once

// The network front-end over SweepService: one epoll loop thread owns
// every socket; a small executor pool runs the blocking JSONL sessions
// (one per connection, at most one request executing per connection at a
// time, so pipelined requests answer strictly in request order while
// different connections compute in parallel — and identical in-flight
// grids still dedupe to one compute inside SweepService). Worker threads
// hand finished response lines back through each connection's bounded
// outbound queue; the loop drains them into the sockets on writability
// edges.
//
// Admission: the loop thread numbers each received line per connection
// and classifies it once (service::classify_line) — blank and comment
// lines end there; every other line queues as its classified request,
// which a worker later hands to the session's serve(). The loop thread
// never calls into a session and no line is parsed twice.
//
// Scheduling & overload control (PR 8): received request lines no longer
// drain FIFO into the executor. Each scenario is *priced* at admission
// (service::estimate_cost over the classified request — cache-aware
// predicted compute units) and queued per connection; a start-time fair
// queue picks the next request globally — the connection whose head
// carries the smallest virtual start tag wins, earliest queue deadline
// breaking ties — so cheap requests from other connections overtake a
// heavy client's backlog while each connection's own responses still
// answer strictly in its request order. Three shedding layers keep overload graceful:
//   * admission control — when the waiting queue already holds
//     max_queue_depth requests or max_queue_cost units, new scenario
//     requests answer a located {"type":"error","code":"overloaded",
//     "retry_after_ms":N} line (N from the EWMA queue drain rate) and
//     never queue; an oversized request with an *empty* waiting queue is
//     always admitted (it would never fit otherwise);
//   * expired-in-queue — a request whose deadline passes while queued
//     answers its located deadline error without ever occupying a
//     worker;
//   * ping/stats/invalid lines are always admitted at nominal cost —
//     observability keeps working exactly when the server is busiest.
// Every stage is measured: queue-wait / compute / write latency
// histograms plus admitted/shed counters, via overload_stats[_json]().
//
// Protocol = the stdin sweep_server protocol, byte for byte: both front
// ends classify with the one request front and answer through
// service::JsonlSession, so a request answered over TCP and the same
// request answered over stdin produce identical lines (pinned by
// test_net, test_router's cross-front test and the CI net smoke).
//
// Lifecycle: construct (binds; port 0 = ephemeral, see port()), run()
// on the serving thread, stop()/signal_stop() from anywhere — including
// a signal handler — to begin a graceful drain: stop accepting, stop
// reading, finish every request already received, flush the responses,
// then return from run(). Destroying the server (and its SweepService)
// afterwards spills the cache to --cache-dir exactly like the stdin
// server's shutdown.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "resilience/service/line_session.hpp"
#include "resilience/service/sweep_service.hpp"
#include "resilience/util/json.hpp"

namespace resilience::util {
class ThreadPool;
}

namespace resilience::net {

/// Power-of-two-bucket latency histogram in microseconds: bucket i counts
/// samples whose bit width is i (bucket 0: 0-1 us, bucket i: [2^(i-1),
/// 2^i) us), plus exact count/total/max. Percentiles are approximate —
/// the upper bound of the bucket holding the requested rank, clamped to
/// the exact max — which is plenty for an overload dashboard and keeps
/// recording O(1).
struct LatencyHistogram {
  std::array<std::uint64_t, 32> buckets{};
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
  std::uint64_t max_us = 0;

  void record(std::uint64_t us) noexcept {
    const unsigned width = static_cast<unsigned>(std::bit_width(us));
    buckets[width < buckets.size() ? width : buckets.size() - 1] += 1;
    ++count;
    total_us += us;
    if (us > max_us) {
      max_us = us;
    }
  }

  /// Upper bound (us) of the bucket containing the p-quantile sample
  /// (0 < p <= 1), never above max_us; 0 when empty.
  [[nodiscard]] std::uint64_t approx_percentile_us(double p) const noexcept {
    if (count == 0) {
      return 0;
    }
    const double rank = p * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (static_cast<double>(seen) >= rank) {
        const std::uint64_t bound = i == 0 ? 1 : (std::uint64_t{1} << i) - 1;
        return bound < max_us ? bound : max_us;
      }
    }
    return max_us;
  }
};

/// Scheduler/admission snapshot — the "transport" block of a daemon's
/// {"type":"stats"} answer (see NetServer::overload_stats_json).
struct OverloadStats {
  std::uint64_t admitted = 0;       ///< scenario requests admitted
  std::uint64_t shed_overload = 0;  ///< rejected at admission (retriable)
  std::uint64_t shed_expired = 0;   ///< deadline expired while queued
  double queued_cost = 0.0;         ///< current waiting cost units
  std::size_t queued_depth = 0;     ///< current waiting scenario requests
  double drain_rate_units_per_ms = 0.0;  ///< EWMA completion rate
  std::int64_t retry_after_ms = 0;  ///< hint a shed answered right now gets
  LatencyHistogram queue_wait;      ///< admission -> worker dispatch
  LatencyHistogram compute;         ///< worker dispatch -> response done
  LatencyHistogram write;           ///< response done -> socket drained
};

struct NetServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned; read back via port()
  int backlog = 128;
  /// Accepted connections beyond this are answered with one error line
  /// and closed (0 = unlimited).
  std::size_t max_connections = 256;
  /// Outbound queue bound per connection: reading pauses above half of
  /// it (backpressure), crossing it drops the connection (0 = unlimited,
  /// dangerous with slow clients).
  std::size_t write_buffer_limit = 16u << 20;
  /// Longest accepted request line (0 = unlimited). Oversized lines get
  /// a located error line and the connection is dropped (no resync).
  std::size_t max_line_bytes = 4u << 20;
  /// Received-but-unprocessed request lines per connection before the
  /// server stops reading that socket (pipelining depth; 0 = unlimited).
  std::size_t max_pipeline_depth = 256;
  /// Threads executing request sessions (0 = one per hardware thread,
  /// capped at 8). Distinct from the sweep pool: sessions block on
  /// SweepService::submit, which fans out on service.sweep.pool.
  std::size_t request_workers = 0;
  /// Graceful-drain deadline: connections still busy this long after
  /// stop() are force-closed (0 = wait forever).
  int drain_timeout_ms = 30000;
  /// SO_SNDBUF for accepted sockets (0 = kernel default). Tests and the
  /// bench shrink it to exercise backpressure without megabytes of
  /// traffic.
  int send_buffer_bytes = 0;
  /// Deadline applied to requests that carry no "deadline_ms" of their
  /// own (0 = unbounded). A guard against runaway grids hogging workers;
  /// see JsonlSessionOptions::default_deadline_ms. A request's deadline
  /// additionally bounds its QUEUE wait: expiring while queued answers
  /// the located deadline error without occupying a worker (the compute
  /// budget itself still starts when execution starts, as before).
  int default_deadline_ms = 0;
  /// Admission budget in predicted compute units over all *waiting*
  /// (queued, not executing) scenario requests; 0 = unlimited. A scenario
  /// request that would push the waiting total past the budget is shed
  /// with a retriable "overloaded" error — unless the waiting queue is
  /// empty, so a single request larger than the whole budget is still
  /// servable.
  double max_queue_cost = 0.0;
  /// Companion depth bound: waiting scenario requests beyond this are
  /// shed regardless of cost; 0 = unlimited.
  std::size_t max_queue_depth = 0;
  /// Hard cap on a simulate request's sim.max_runs (0 = uncapped); see
  /// JsonlSessionOptions::sim_max_runs. Over-cap requests answer one
  /// located error line before any compute.
  std::uint64_t sim_max_runs = 0;
  service::ServiceOptions service;
  /// Builds the protocol session serving each accepted connection. Null
  /// (the default) builds a service::JsonlSession over the server-owned
  /// SweepService — the sweep daemon. sweep_router installs a factory
  /// producing net::RouterSession instead; the transport (pipelining,
  /// backpressure, graceful drain) is identical either way. The factory
  /// receives the connection's emit callback and cancel flag: sessions
  /// must forward response lines through `emit` and stop producing once
  /// the flag reads true (the client is gone). The server wires its
  /// scheduler snapshot into every session it creates, as the stats
  /// answers' "transport" block (LineSession::set_transport_stats).
  using SessionFactory = std::function<std::unique_ptr<service::LineSession>(
      service::LineSession::LineFn emit,
      std::shared_ptr<std::atomic<bool>> cancel)>;
  SessionFactory session_factory;
};

class NetServer {
 public:
  /// Binds and listens immediately (throws std::runtime_error on bind
  /// failure or on non-Linux platforms).
  explicit NetServer(NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Serves until a graceful drain completes. Call from the thread that
  /// owns the server (tests run it on a std::thread).
  void run();

  /// Begins the graceful drain (idempotent, any thread).
  void stop();
  /// Async-signal-safe stop for SIGINT/SIGTERM handlers: one write(2) to
  /// an eventfd, nothing else.
  void signal_stop() noexcept;

  [[nodiscard]] std::uint16_t port() const noexcept;
  [[nodiscard]] service::SweepService& service() noexcept;
  [[nodiscard]] const NetServerOptions& options() const noexcept;

  /// Transport counters (monotonic; for tests, the bench and the log).
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_over_limit = 0;
    std::uint64_t dropped_slow = 0;     ///< write-buffer overflow drops
    std::uint64_t dropped_framing = 0;  ///< oversized-line drops
    std::uint64_t dropped_error = 0;    ///< socket errors / resets
    std::uint64_t requests_started = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Scheduler/admission snapshot (thread-safe; callable from executor
  /// threads — the stats request handler does).
  [[nodiscard]] OverloadStats overload_stats() const;
  /// The same snapshot as the canonical "transport" JSON block:
  /// {"scheduler":{counters...},"latency_us":{"queue_wait":{...},
  /// "compute":{...},"write":{...}}}.
  [[nodiscard]] util::JsonValue overload_stats_json() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace resilience::net

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
// and classifies it once (service::classify_line resolves, signs and
// chains a scenario) — blank and comment lines end there; every other
// line queues as its classified request for a worker to hand to the
// session's serve(). No line is parsed or resolved twice.
//
// Answers from memory: a head scenario request of at most
// kMaxInlineCells cells whose table sits in the cache's memory tier
// needs no compute, so the loop answers it itself
// (service::JsonlSession::serve_resident, SweepService's replay-only
// rung) and writes the whole response with one flush: no worker
// hand-off, no wake. A miss there emits and counts nothing and the
// request goes to a worker as any other. The loop answers at most one
// such request per connection per epoll round, so a deep pipeline of
// hits cannot starve the other sockets. Servers built with a
// session_factory (the router) never answer on the loop.
//
// Scheduling & overload control: every line is priced at admission
// (service::estimate_cost: cache-aware predicted compute units) and
// queued per connection; a net::FairScheduler (scheduler.hpp) sheds what
// the waiting budget cannot take (a retriable "overloaded" error line)
// and picks the next request by start-time fair queueing, so cheap
// requests from other connections overtake a heavy client's backlog,
// while each connection still answers in its request order. A request
// whose deadline passes while queued answers its deadline error without
// occupying a worker. Answers from memory are admitted and charged the
// same way; they only skip the wait for a worker.
//
// Time and the stop signal belong to the event loop: queue deadlines,
// the drain deadline and the accept retry are EventLoop::run_at tasks,
// and stop() raises EventLoop::interrupt. A connection the server cannot
// accept for want of descriptors (or kernel memory) stays queued in the
// kernel, and the server accepts again 10 ms later, until the drain
// closes the listener.
//
// Protocol = the stdin sweep_server protocol, byte for byte: both front
// ends classify with the one request front and answer through
// service::JsonlSession, so a request answered over TCP and the same
// request answered over stdin produce identical lines (pinned by
// test_net, test_router's cross-front test and the CI net smoke).
//
// Lifecycle: construct (binds; port 0 = ephemeral, see port()), run()
// on the serving thread, stop() from anywhere — including a signal
// handler — to begin a graceful drain: stop accepting, stop
// reading, finish every request already received, flush the responses,
// then return from run(). Destroying the server (and its SweepService)
// afterwards spills the cache to --cache-dir exactly like the stdin
// server's shutdown.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "resilience/net/scheduler.hpp"
#include "resilience/service/line_session.hpp"
#include "resilience/service/sweep_service.hpp"

namespace resilience::util {
class ThreadPool;
}

namespace resilience::net {

/// Largest table (points x families x sim sub-cells) the event loop
/// replays itself. A replay costs about 1.3 us per cell line, writer and
/// outbound copy (1.35 us on the 96-cell catalog, 1.22 us on a 240-cell
/// grid; one core of a 4-core x86 VM), so one answer holds the loop for
/// at most ~0.35 ms before its socket write, while the paper's 96-cell
/// catalogs (4 platforms x 4 node counts x 6 families) qualify. Bigger
/// tables replay on a worker.
inline constexpr std::size_t kMaxInlineCells = 256;

struct NetServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned; read back via port()
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

  /// Begins the graceful drain (idempotent, any thread). Async-signal-
  /// safe, for SIGINT/SIGTERM handlers: EventLoop::interrupt.
  void stop() noexcept;

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
    /// Requests that began executing, on a worker or on the loop (sheds,
    /// queue expiries and framing errors never execute).
    std::uint64_t requests_started = 0;
    /// ...of which the loop answered itself (OverloadStats).
    std::uint64_t served_inline = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Scheduler/admission snapshot (thread-safe); its JSON form is the
  /// "transport" block of every stats answer.
  [[nodiscard]] OverloadStats overload_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace resilience::net

#include "resilience/net/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "resilience/net/connection.hpp"
#include "resilience/net/event_loop.hpp"
#include "resilience/service/cost_model.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/util/thread_pool.hpp"

namespace resilience::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kListenBacklog = 128;  ///< listen(2): completed, unaccepted

/// The wait before accepting again once out of descriptors: the pending
/// connection stays queued, and an edge-triggered listener is silent.
constexpr std::chrono::milliseconds kAcceptRetry{10};

std::size_t resolve_workers(std::size_t requested) {
  if (requested > 0) {
    return requested;
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 2, 8);
}

}  // namespace

struct NetServer::Impl {
  /// One client connection: the socket-side state (net::Connection), the
  /// protocol session, and the pipelining backlog of classified request
  /// lines. The backlog preserves request order; `executing` guarantees
  /// at most one in-flight session call per connection, so responses go
  /// out strictly in request order even though different connections run
  /// on different executor threads.
  struct Conn {
    std::shared_ptr<Connection> socket;
    std::shared_ptr<std::atomic<bool>> cancel;
    std::unique_ptr<service::LineSession> session;
    /// The session, when it is the server's own JsonlSession over a
    /// caching service: the loop answers memory-tier hits through it.
    service::JsonlSession* replayer = nullptr;
    /// loop.polls() at this connection's last answer from memory.
    std::uint64_t replay_poll = 0;
    /// One received line, classified once at admission (admit_line).
    struct Item {
      service::RequestLine request;  ///< what a worker serves
      /// Read-pause accounting: the line's size plus, for a queued
      /// scenario, the bytes its resolved points and chains hold.
      std::size_t bytes = 0;
      /// Pre-formatted answer the loop thread sends itself (a framing
      /// error or an admission shed); such an item never reaches a worker.
      std::string answer;
      /// An admitted scenario small enough for the loop to replay: it
      /// tries the memory tier once, at the head of the backlog.
      bool replayable = false;
      FairScheduler::Ticket ticket;  ///< charge, tags and queue deadline
      /// The run_at() task that dispatches when the queue deadline
      /// passes; cancelled once the item leaves the backlog.
      EventLoop::TimerId expiry{};
    };
    std::deque<Item> backlog;
    std::size_t backlog_bytes = 0;  ///< request text queued, not executing
    bool executing = false;
    bool input_closed = false;  ///< peer EOF / framing error / draining
    bool read_hold = false;     ///< paused for pipeline depth or drain
    std::uint64_t lines_received = 0;  ///< numbers default "line-N" ids
    FairScheduler::Flow flow;  ///< fair-queue tags, the running request
    bool write_pending = false;  ///< measuring done -> socket drained
    Clock::time_point write_start{};
  };
  using ConnPtr = std::shared_ptr<Conn>;

  explicit Impl(NetServerOptions opts)
      : options(std::move(opts)),
        service(options.service),
        scheduler(options.max_queue_cost, options.max_queue_depth) {
    listener = listen_tcp(options.host, options.port, kListenBacklog, &port);
    loop.on_interrupt([this] { begin_drain(); });
    loop.add_fd(listener.fd(), IoEvents::kRead,
                [this](std::uint32_t) { on_accept(); });
    worker_count = resolve_workers(options.request_workers);
    executor = std::make_unique<util::ThreadPool>(worker_count);
  }

  // ------------------------------------------------------------ accept --

  void on_accept() {
    for (;;) {
      bool exhausted = false;
      Fd fd = accept_connection(listener.fd(), &exhausted);
      if (!fd.valid()) {
        if (exhausted) {
          // The latest failed attempt schedules the next; the drain
          // cancels it when it closes the listener.
          loop.cancel(accept_retry);
          accept_retry = loop.run_at(Clock::now() + kAcceptRetry,
                                     [this] { on_accept(); });
        }
        return;  // queue drained (or the listener failed)
      }
      if (options.max_connections != 0 &&
          connections.size() >= options.max_connections) {
        rejected_over_limit.fetch_add(1, std::memory_order_relaxed);
        // Best-effort courtesy reply; the socket closes either way.
        const std::string line =
            service::error_line(
                "", "",
                "connection limit reached (" +
                    std::to_string(options.max_connections) + ")") +
            "\n";
        std::size_t n = 0;
        (void)write_some(fd.fd(), line.data(), line.size(), &n);
        continue;
      }
      accepted.fetch_add(1, std::memory_order_relaxed);
      set_tcp_nodelay(fd.fd());
      if (options.send_buffer_bytes > 0) {
        set_send_buffer(fd.fd(), options.send_buffer_bytes);
      }
      const int raw_fd = fd.fd();
      const std::uint64_t id = next_id++;

      auto conn = std::make_shared<Conn>();
      conn->flow.id = id;
      conn->cancel = std::make_shared<std::atomic<bool>>(false);
      conn->socket = std::make_shared<Connection>(
          loop, std::move(fd), options.write_buffer_limit,
          options.max_line_bytes);
      // The session emit path runs on executor threads (and on the loop
      // for answers from memory): enqueue into the bounded
      // per-connection queue; a refused enqueue (closed or overflowed)
      // flips the cancel token so the session stops producing for a
      // client that is gone.
      const auto socket = conn->socket;
      const auto cancel = conn->cancel;
      service::LineSession::LineFn emit =
          [socket, cancel](std::string&& line, bool) {
            if (!socket->enqueue(line)) {
              cancel->store(true, std::memory_order_release);
            }
          };
      if (options.session_factory) {
        conn->session = options.session_factory(std::move(emit), cancel);
      } else {
        service::JsonlSession::Options session_options;
        session_options.default_deadline_ms = options.default_deadline_ms;
        session_options.sim_max_runs = options.sim_max_runs;
        auto session = std::make_unique<service::JsonlSession>(
            service, std::move(emit), session_options, cancel);
        if (options.service.cache_capacity > 0) {
          conn->replayer = session.get();
        }
        conn->session = std::move(session);
      }
      // Every daemon's stats answers carry its scheduler snapshot; the
      // stdin path never sets this, so its bytes are unchanged.
      conn->session->set_transport_stats(
          [this] { return scheduler.stats_json(); });
      conn->socket->set_wake([this, id] {
        loop.post([this, id] { on_wake(id); });
      });
      loop.add_fd(raw_fd, IoEvents::kRead,
                  [this, id](std::uint32_t events) { on_event(id, events); });
      connections.emplace(id, std::move(conn));
    }
  }

  // ---------------------------------------------------------- fd events --

  ConnPtr find(std::uint64_t id) {
    const auto it = connections.find(id);
    return it == connections.end() ? nullptr : it->second;
  }

  /// The open connections, copied: closing one mid-iteration (a flush
  /// failure, the drain) mutates `connections`.
  [[nodiscard]] std::vector<ConnPtr> snapshot() const {
    std::vector<ConnPtr> open;
    open.reserve(connections.size());
    for (const auto& [id, conn] : connections) {
      open.push_back(conn);
    }
    return open;
  }

  void on_event(std::uint64_t id, std::uint32_t events) {
    const ConnPtr conn = find(id);
    if (conn == nullptr) {
      return;
    }
    if (events & IoEvents::kError) {
      drop(conn, dropped_error);
      return;
    }
    if ((events & IoEvents::kWrite) && !flush_conn(conn)) {
      return;
    }
    if (events & IoEvents::kRead) {
      pump(conn);
    } else if (events & IoEvents::kWrite) {
      // A pure writability edge can be the moment the last response byte
      // drains on an input-closed connection (e.g. an nc client that
      // half-closed and is waiting for our EOF) — close it now.
      maybe_finish(conn);
    }
  }

  void on_wake(std::uint64_t id) {
    const ConnPtr conn = find(id);
    if (conn == nullptr) {
      return;
    }
    if (flush_conn(conn)) {
      maybe_finish(conn);
    }
  }

  /// Reads whatever the socket has (unless input already ended), then
  /// advances the request pipeline. Safe to call in any connection state
  /// — the trailing schedule()/maybe_finish() always run, so a caller
  /// can never strand a backlog behind an input_closed early-out.
  void pump(const ConnPtr& conn) {
    if (conn->socket->closed()) {
      return;
    }
    if (!conn->input_closed) {
      pump_socket(conn);
      if (conn->socket->closed()) {
        return;  // dropped (read error / slow-client overflow)
      }
    }
    dispatch_all();
    maybe_finish(conn);
  }

  void pump_socket(const ConnPtr& conn) {
    const auto on_line = [&](std::string_view line) {
      admit_line(conn, line);
      if (!conn->read_hold && backlog_over_watermark(conn)) {
        conn->read_hold = true;
        conn->socket->set_read_hold(true);
      }
    };
    switch (conn->socket->pump_reads(on_line)) {
      case Connection::ReadResult::kOk:
        break;
      case Connection::ReadResult::kClosed:
        conn->input_closed = true;
        break;
      case Connection::ReadResult::kError:
        drop(conn, dropped_error);
        return;
      case Connection::ReadResult::kFramingError: {
        // The error response must come after the responses of requests
        // already pipelined ahead of it, so it rides the backlog as a
        // deferred item instead of jumping the queue. No resync is
        // possible after an unterminated monster line: input ends here.
        dropped_framing.fetch_add(1, std::memory_order_relaxed);
        const LineFramer& framer = conn->socket->framer();
        Conn::Item item;
        item.answer = service::error_line(
            "line-" + std::to_string(framer.error_line()), "",
            framer.error_message());
        conn->backlog.push_back(std::move(item));
        conn->input_closed = true;
        break;
      }
    }
    if (conn->socket->overflowed()) {
      drop(conn, dropped_slow);
      return;
    }
  }

  // ---------------------------------------------------------- requests --

  /// Read-pause watermarks for the request side, mirroring the response
  /// side's byte bound: the backlog is capped by count AND by bytes
  /// (half the write-buffer limit), so a client pipelining
  /// near-max-line-bytes requests cannot buy depth x line-size of server
  /// memory.
  [[nodiscard]] bool backlog_over_watermark(const ConnPtr& conn) const {
    return (options.max_pipeline_depth != 0 &&
            conn->backlog.size() >= options.max_pipeline_depth) ||
           (options.write_buffer_limit != 0 &&
            conn->backlog_bytes >= options.write_buffer_limit / 2);
  }

  [[nodiscard]] bool backlog_under_resume_watermark(const ConnPtr& conn) const {
    return (options.max_pipeline_depth == 0 ||
            conn->backlog.size() <= options.max_pipeline_depth / 2) &&
           (options.write_buffer_limit == 0 ||
            conn->backlog_bytes <= options.write_buffer_limit / 4);
  }

  // -------------------------------------------------------- admission --

  /// Classifies one received line — the only parse it ever gets — then
  /// prices it and either queues it (with its fair-queue start tag) or
  /// pre-formats its shed answer. Runs on the loop thread; the parse is
  /// the admission fee — the transport cannot place a line it has not
  /// classified. Blank and comment lines only advance the numbering.
  void admit_line(const ConnPtr& conn, std::string_view line) {
    service::RequestLine request =
        service::classify_line(line, ++conn->lines_received);
    if (request.kind == service::RequestLine::Kind::kSkip) {
      return;
    }
    Conn::Item item;
    item.bytes = line.size();
    const Clock::time_point now = Clock::now();
    if (request.kind != service::RequestLine::Kind::kScenario) {
      item.ticket = scheduler.admit_line(conn->flow, now);
    } else {
      const service::CostEstimate estimate =
          service::estimate_cost(request.scenario, &service);
      const int deadline_ms = request.scenario.request.deadline_ms > 0
                                  ? request.scenario.request.deadline_ms
                                  : options.default_deadline_ms;
      const std::optional<FairScheduler::Ticket> ticket =
          scheduler.admit_scenario(conn->flow, estimate.units, deadline_ms,
                                   now);
      if (!ticket) {
        item.answer = service::overloaded_line(
            request.scenario.request.id, scheduler.stats().retry_after_ms);
      } else {
        item.ticket = *ticket;
        item.replayable =
            conn->replayer != nullptr && estimate.cells <= kMaxInlineCells;
        // Parked until a worker takes it: its resolved points count
        // toward the read-pause bound with its text.
        item.bytes += request.scenario.resolved_bytes();
        if (item.ticket.has_deadline()) {
          // Expired heads answer when the deadline passes, not on the
          // next socket event. Items behind an in-flight request still
          // wait their turn: per-connection response order is absolute.
          item.expiry = loop.run_at(item.ticket.deadline(),
                                    [this] { dispatch_all(); });
        }
      }
    }
    item.request = std::move(request);
    conn->backlog_bytes += item.bytes;
    conn->backlog.push_back(std::move(item));
  }

  // --------------------------------------------------------- dispatch --

  /// Answers every head item of `conn` that needs no worker — deferred
  /// framing errors, admission sheds, queue-deadline expiries, and
  /// replayable requests whose table is in the memory tier — until the
  /// head needs a worker (true) or waits for none: the backlog emptied,
  /// or the head may be a hit but the connection already had its one
  /// answer from memory this epoll round. Only legal while the
  /// connection is not executing: inline answers would otherwise
  /// interleave with the in-flight request's response stream.
  bool advance_conn(const ConnPtr& conn) {
    while (!conn->executing && !conn->socket->closed() &&
           !conn->backlog.empty()) {
      Conn::Item& head = conn->backlog.front();
      if (head.ticket.has_deadline() &&
          scheduler.expire(head.ticket, Clock::now())) {
        // Expired while queued: answer the located deadline error right
        // here — the request never touches a worker.
        head.answer = service::error_line(
            head.request.scenario.request.id, "deadline_ms",
            "deadline of " + std::to_string(head.ticket.deadline_ms) +
                " ms expired while the request was queued");
      }
      if (!head.answer.empty()) {
        conn->socket->enqueue(pop_head(conn).answer);
      } else if (!head.replayable) {
        return true;  // runnable head: needs a worker slot
      } else if (conn->replay_poll == loop.polls()) {
        // Its one answer from memory this round is out: the other
        // sockets get their turn before this connection's next.
        resume_after_poll();
        return false;
      } else if (!replay_head(conn)) {
        head.replayable = false;  // not in memory: a worker serves it
        return true;
      }
      if (!flush_conn(conn)) {
        return false;  // the connection died here
      }
    }
    // The backlog may have emptied here, on another connection's event:
    // an input-closed connection closes now, not on a later event.
    maybe_finish(conn);
    return false;
  }

  /// Answers the head from the memory tier on the loop thread, with
  /// a worker's bytes and bookkeeping; false (nothing emitted, nothing
  /// counted) when its table is not there. The caller flushes: the
  /// whole response leaves in one write, with no wake.
  bool replay_head(const ConnPtr& conn) {
    const auto start = Clock::now();
    if (!conn->replayer->serve_resident(
            conn->backlog.front().request.scenario)) {
      return false;
    }
    begin_request(conn, pop_head(conn), start);
    end_request(conn, Clock::now());
    conn->replay_poll = loop.polls();
    scheduler.count_served_inline();
    return true;
  }

  /// Re-runs the dispatch pass once the loop has polled again (one
  /// deferred pass however many connections wait for it).
  void resume_after_poll() {
    if (!resume_pending) {
      resume_pending = true;
      loop.run_at(Clock::now(), [this] {
        resume_pending = false;
        dispatch_all();
      });
    }
  }

  /// Removes and returns the head item, releasing its bytes from the
  /// read-pause accounting and its queue-deadline timer. The pause lifts
  /// here, where bytes leave the backlog — to a worker or as an inline
  /// answer (shed, queue expiry, answer from memory) — once it is under
  /// the resume watermark; epoll then reports a socket that is already
  /// readable.
  Conn::Item pop_head(const ConnPtr& conn) {
    conn->backlog_bytes -= conn->backlog.front().bytes;
    Conn::Item item = std::move(conn->backlog.front());
    conn->backlog.pop_front();
    loop.cancel(item.expiry);
    if (conn->read_hold && !draining && !conn->input_closed &&
        backlog_under_resume_watermark(conn)) {
      conn->read_hold = false;
      conn->socket->set_read_hold(false);
    }
    return item;
  }

  /// The global dispatch pass: advances every connection's inline items,
  /// then fills free worker slots with the fairest runnable heads
  /// (FairScheduler::before). Re-entrant calls (via flush_conn -> pump)
  /// fold into the outer pass.
  void dispatch_all() {
    if (in_dispatch) {
      dispatch_again = true;
      return;
    }
    in_dispatch = true;
    do {
      dispatch_again = false;
      dispatch_pass();
    } while (dispatch_again);
    in_dispatch = false;
  }

  void dispatch_pass() {
    for (;;) {
      ConnPtr best;
      for (const ConnPtr& conn : snapshot()) {
        if (advance_conn(conn) &&
            (best == nullptr ||
             FairScheduler::before(conn->backlog.front().ticket,
                                   best->backlog.front().ticket))) {
          best = conn;
        }
      }
      if (best == nullptr || active_requests >= worker_count) {
        return;
      }
      start_item(best);
    }
  }

  void start_item(const ConnPtr& conn) {
    Conn::Item item = pop_head(conn);
    begin_request(conn, item, Clock::now());
    ++active_requests;
    const ConnPtr held = conn;
    executor->submit([this, held, request = std::move(item.request)]() mutable {
      held->session->serve(std::move(request));
      loop.post([this, held] { on_request_done(held); });
    });
  }

  /// A request starting at `now`, on a worker or on the loop.
  void begin_request(const ConnPtr& conn, const Conn::Item& item,
                     Clock::time_point now) {
    scheduler.start(conn->flow, item.ticket, now);
    conn->executing = true;
    requests_started.fetch_add(1, std::memory_order_relaxed);
  }

  void on_request_done(const ConnPtr& conn) {
    if (active_requests > 0) {
      --active_requests;
    }
    end_request(conn, Clock::now());
    if (!conn->socket->closed()) {
      if (flush_conn(conn)) {
        // pump() reads only when input is open and unpaused, and always
        // advances the pipeline — including the deferred framing-error
        // item of an input_closed connection.
        pump(conn);
      }
    } else {
      dispatch_all();  // this connection died mid-request; others wait
    }
    check_drain();
  }

  /// Ends the executing request of `conn` at `now`, which starts its
  /// write stage.
  void end_request(const ConnPtr& conn, Clock::time_point now) {
    conn->executing = false;
    scheduler.finish(conn->flow, now);
    conn->write_pending = true;
    conn->write_start = now;
  }

  // ------------------------------------------------------- write drain --

  /// Flushes and applies the drop policies; false when the connection
  /// died here.
  bool flush_conn(const ConnPtr& conn) {
    if (conn->socket->closed()) {
      return false;
    }
    const bool paused_before = conn->socket->reading_paused();
    if (!conn->socket->flush()) {
      drop(conn, dropped_error);
      return false;
    }
    if (conn->socket->overflowed()) {
      drop(conn, dropped_slow);
      return false;
    }
    if (conn->write_pending && conn->socket->drained()) {
      // The response that finished last on this connection has fully
      // reached the kernel: close the write-stage measurement.
      conn->write_pending = false;
      scheduler.record_write(conn->write_start, Clock::now());
    }
    if (paused_before && !conn->socket->reading_paused() &&
        !conn->input_closed) {
      pump(conn);
    }
    return true;
  }

  // ----------------------------------------------------------- closing --

  void drop(const ConnPtr& conn, std::atomic<std::uint64_t>& counter) {
    if (!conn->socket->closed()) {
      counter.fetch_add(1, std::memory_order_relaxed);
    }
    close_conn(conn);
  }

  void close_conn(const ConnPtr& conn) {
    if (conn->socket->closed()) {
      return;
    }
    conn->cancel->store(true, std::memory_order_release);
    conn->socket->close();
    // Queued admissions die with the connection: refund their charge, or
    // the waiting budget would leak and eventually shed everything.
    for (const Conn::Item& item : conn->backlog) {
      scheduler.withdraw(item.ticket);
      loop.cancel(item.expiry);
    }
    conn->backlog.clear();
    conn->backlog_bytes = 0;
    connections.erase(conn->flow.id);
    check_drain();
  }

  /// Orderly close once a connection has nothing left to do: input has
  /// ended (EOF, framing error or drain), no request is executing or
  /// queued, and every response byte reached the socket.
  void maybe_finish(const ConnPtr& conn) {
    if ((conn->input_closed || draining) && !conn->executing &&
        conn->backlog.empty() && !conn->socket->closed() &&
        conn->socket->drained()) {
      close_conn(conn);
    }
  }

  // ------------------------------------------------------------- drain --

  void begin_drain() {
    if (draining) {
      return;
    }
    draining = true;
    loop.remove_fd(listener.fd());
    listener.reset();
    loop.cancel(accept_retry);
    const std::vector<ConnPtr> open = snapshot();
    for (const ConnPtr& conn : open) {
      conn->input_closed = true;  // already-received requests still run
      conn->socket->set_read_hold(true);
    }
    dispatch_all();
    for (const ConnPtr& conn : open) {
      maybe_finish(conn);
    }
    if (options.drain_timeout_ms > 0) {
      const auto deadline = std::chrono::milliseconds(options.drain_timeout_ms);
      loop.run_at(Clock::now() + deadline, [this] {
        std::fprintf(stderr,
                     "net: drain deadline (%d ms) reached with %zu "
                     "connection(s) busy; force-closing\n",
                     options.drain_timeout_ms, connections.size());
        for (const ConnPtr& conn : snapshot()) {
          close_conn(conn);
        }
        loop.stop();
      });
    }
    check_drain();
  }

  void check_drain() {
    if (draining && connections.empty() && active_requests == 0) {
      loop.stop();
    }
  }

  void run() {
    loop.run();
    // Join the executor: jobs already running finish (their completion
    // posts land in the stopped loop's queue, never run — harmless:
    // their connections are closed and their tables are cached).
    executor.reset();
  }

  NetServerOptions options;
  service::SweepService service;
  FairScheduler scheduler;
  EventLoop loop;
  Fd listener;  ///< closed when the drain begins
  std::uint16_t port = 0;  ///< the bound port, known after the close too
  EventLoop::TimerId accept_retry{};  ///< the pending accept retry, if any
  std::unique_ptr<util::ThreadPool> executor;
  std::unordered_map<std::uint64_t, ConnPtr> connections;
  std::uint64_t next_id = 1;
  std::size_t active_requests = 0;
  std::size_t worker_count = 1;
  bool draining = false;
  bool in_dispatch = false;
  bool dispatch_again = false;
  bool resume_pending = false;  ///< a dispatch pass waits for the next poll

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected_over_limit{0};
  std::atomic<std::uint64_t> dropped_slow{0};
  std::atomic<std::uint64_t> dropped_framing{0};
  std::atomic<std::uint64_t> dropped_error{0};
  std::atomic<std::uint64_t> requests_started{0};
};

NetServer::NetServer(NetServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

NetServer::~NetServer() = default;

void NetServer::run() { impl_->run(); }

void NetServer::stop() noexcept { impl_->loop.interrupt(); }

std::uint16_t NetServer::port() const noexcept { return impl_->port; }

service::SweepService& NetServer::service() noexcept {
  return impl_->service;
}

const NetServerOptions& NetServer::options() const noexcept {
  return impl_->options;
}

OverloadStats NetServer::overload_stats() const {
  return impl_->scheduler.stats();
}

NetServer::Stats NetServer::stats() const {
  Stats stats;
  stats.accepted = impl_->accepted.load(std::memory_order_relaxed);
  stats.rejected_over_limit =
      impl_->rejected_over_limit.load(std::memory_order_relaxed);
  stats.dropped_slow = impl_->dropped_slow.load(std::memory_order_relaxed);
  stats.dropped_framing =
      impl_->dropped_framing.load(std::memory_order_relaxed);
  stats.dropped_error = impl_->dropped_error.load(std::memory_order_relaxed);
  stats.requests_started =
      impl_->requests_started.load(std::memory_order_relaxed);
  stats.served_inline = impl_->scheduler.stats().served_inline;
  return stats;
}

}  // namespace resilience::net

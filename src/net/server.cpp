#include "resilience/net/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "resilience/net/connection.hpp"
#include "resilience/net/event_loop.hpp"
#include "resilience/service/cost_model.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/util/thread_pool.hpp"

#if defined(__linux__)
#include <cerrno>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>
#endif

namespace resilience::net {

namespace {

using Clock = std::chrono::steady_clock;

std::size_t resolve_workers(std::size_t requested) {
  if (requested > 0) {
    return requested;
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 2, 8);
}

/// Fair-share charge for request lines that are not scenario requests
/// (ping, stats, malformed JSON): they answer in microseconds, are never
/// shed, and must barely advance their connection's finish tag.
constexpr double kNonScenarioCost = 1.0 / 64.0;
/// Floor for a scenario charge so fully-warm requests still advance the
/// virtual clock.
constexpr double kMinScenarioCost = 1.0 / 1024.0;

std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
  if (to <= from) {
    return 0;
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

util::JsonValue histogram_json(const LatencyHistogram& histogram) {
  util::JsonValue out = util::JsonValue::object();
  out.set("count", histogram.count);
  out.set("total_us", histogram.total_us);
  out.set("max_us", histogram.max_us);
  out.set("p50_us", histogram.approx_percentile_us(0.5));
  out.set("p99_us", histogram.approx_percentile_us(0.99));
  return out;
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
    std::uint64_t id = 0;
    std::shared_ptr<Connection> socket;
    std::shared_ptr<std::atomic<bool>> cancel;
    std::unique_ptr<service::LineSession> session;
    /// One received line, classified once at admission (admit_line).
    struct Item {
      service::RequestLine request;  ///< what a worker serves
      std::size_t bytes = 0;  ///< received line size (read-pause accounting)
      /// Pre-formatted answer the loop thread sends itself (a framing
      /// error or an admission shed); such an item never reaches a worker.
      std::string answer;
      double cost = 0.0;       ///< predicted compute units (charge)
      double start_tag = 0.0;  ///< fair-queue virtual start time
      int deadline_ms = 0;     ///< resolved deadline (0 = none)
      bool has_queue_deadline = false;
      Clock::time_point enqueued{};
      Clock::time_point queue_deadline{};

      /// An admitted scenario request (charged to the waiting budget).
      [[nodiscard]] bool scenario() const noexcept {
        return request.kind == service::RequestLine::Kind::kScenario;
      }
    };
    std::deque<Item> backlog;
    std::size_t backlog_bytes = 0;  ///< request text queued, not executing
    bool executing = false;
    bool input_closed = false;  ///< peer EOF / framing error / draining
    bool read_hold = false;     ///< paused for pipeline depth or drain
    // ---- scheduler state ----
    std::uint64_t lines_received = 0;  ///< numbers default "line-N" ids
    double finish_tag = 0.0;    ///< virtual finish time of last admission
    double executing_cost = 0.0;  ///< charge of the executing scenario, else 0
    Clock::time_point exec_start{};
    bool write_pending = false;  ///< measuring done -> socket drained
    Clock::time_point write_start{};
  };
  using ConnPtr = std::shared_ptr<Conn>;

  explicit Impl(NetServerOptions opts)
      : options(std::move(opts)),
        service(options.service),
        listener(options.host, options.port, options.backlog) {
#if defined(__linux__)
    stop_event = Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!stop_event.valid()) {
      throw std::runtime_error("net: eventfd(stop) failed");
    }
    loop.add_fd(stop_event.fd(), IoEvents::kRead, [this](std::uint32_t) {
      std::uint64_t value = 0;
      while (::read(stop_event.fd(), &value, sizeof(value)) > 0) {
      }
      begin_drain();
    });
#endif
    loop.add_fd(listener.fd(), IoEvents::kRead,
                [this](std::uint32_t) { on_accept(); });
    worker_count = resolve_workers(options.request_workers);
    executor = std::make_unique<util::ThreadPool>(worker_count);
  }

  // ------------------------------------------------------------ accept --

  void on_accept() {
    for (;;) {
      Fd fd = accept_connection(listener.fd());
      if (!fd.valid()) {
        return;  // queue drained (or the connection evaporated)
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
      conn->id = id;
      conn->cancel = std::make_shared<std::atomic<bool>>(false);
      conn->socket = std::make_shared<Connection>(
          loop, std::move(fd), id, options.write_buffer_limit,
          options.max_line_bytes);
      // The session emit path runs on executor threads: enqueue into the
      // bounded per-connection queue; a refused enqueue (closed or
      // overflowed) flips the cancel token so the session stops
      // producing for a client that is gone.
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
        session_options.stream = true;
        session_options.collect = false;
        session_options.default_deadline_ms = options.default_deadline_ms;
        session_options.sim_max_runs = options.sim_max_runs;
        conn->session = std::make_unique<service::JsonlSession>(
            service, std::move(emit), session_options, cancel);
      }
      // Every daemon's stats answers carry its scheduler snapshot; the
      // stdin path never sets this, so its bytes are unchanged.
      conn->session->set_transport_stats([this] {
        return overload_stats_json();
      });
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
    item.enqueued = Clock::now();
    const bool scenario =
        request.kind == service::RequestLine::Kind::kScenario;
    item.cost =
        scenario ? std::max(service::estimate_cost(request.request, &service)
                                .units,
                            kMinScenarioCost)
                 : kNonScenarioCost;
    if (scenario && should_shed(item.cost)) {
      std::int64_t retry_after = 0;
      {
        const std::lock_guard<std::mutex> lock(ostats_mutex);
        ++ostats.shed_overload;
        retry_after = retry_after_ms_locked();
      }
      item.answer = service::overloaded_line(request.request.id, retry_after);
    } else {
      // Admitted: charge the waiting budget and stamp the fair-queue
      // tag. Start-time fair queueing: the tag is where the global
      // virtual clock will be once every byte this connection admitted
      // before has had its fair share — so one connection's deep
      // backlog pushes its OWN later requests back, never another
      // connection's.
      item.start_tag = std::max(virtual_time, conn->finish_tag);
      conn->finish_tag = item.start_tag + item.cost;
      if (scenario) {
        {
          const std::lock_guard<std::mutex> lock(ostats_mutex);
          ++ostats.admitted;
          ostats.queued_cost += item.cost;
          ++ostats.queued_depth;
        }
        item.deadline_ms = request.request.deadline_ms > 0
                               ? request.request.deadline_ms
                               : options.default_deadline_ms;
        if (item.deadline_ms > 0) {
          item.has_queue_deadline = true;
          item.queue_deadline =
              item.enqueued + std::chrono::milliseconds(item.deadline_ms);
          arm_sched_timer(item.queue_deadline);
        }
      }
      item.request = std::move(request);
    }
    conn->backlog_bytes += item.bytes;
    conn->backlog.push_back(std::move(item));
  }

  [[nodiscard]] bool should_shed(double cost) const {
    if (options.max_queue_depth != 0 &&
        ostats.queued_depth >= options.max_queue_depth) {
      return true;
    }
    // The non-empty-queue condition keeps oversized singletons servable:
    // a request bigger than the whole budget admits when nothing else
    // waits (shedding it forever would make the budget a size limit, not
    // an overload control).
    return options.max_queue_cost > 0.0 && ostats.queued_depth > 0 &&
           ostats.queued_cost + cost > options.max_queue_cost;
  }

  /// Retry hint from the EWMA drain rate: how long until the work ahead
  /// of a newly shed request (waiting + executing units) has drained.
  /// Requires ostats_mutex.
  [[nodiscard]] std::int64_t retry_after_ms_locked() const {
    const double backlog_units = ostats.queued_cost + executing_units;
    std::int64_t hint = 1000;  // no completions yet: a round second
    if (ostats.drain_rate_units_per_ms > 1e-9) {
      hint = static_cast<std::int64_t>(
          std::llround(backlog_units / ostats.drain_rate_units_per_ms));
    }
    return std::clamp<std::int64_t>(hint, 1, 60000);
  }

  void discharge(const Conn::Item& item) {
    const std::lock_guard<std::mutex> lock(ostats_mutex);
    ostats.queued_cost = std::max(0.0, ostats.queued_cost - item.cost);
    if (ostats.queued_depth > 0) {
      --ostats.queued_depth;
    }
  }

  // -------------------------------------------------------- scheduler --

  /// Answers every head item of `conn` that needs no worker — deferred
  /// framing errors, admission sheds, and queue-deadline expiries — until
  /// the head is a runnable request (or the backlog empties). Only legal
  /// while the connection is not executing: inline answers would
  /// otherwise interleave with the in-flight request's response stream.
  void advance_conn(const ConnPtr& conn) {
    while (!conn->executing && !conn->socket->closed() &&
           !conn->backlog.empty()) {
      Conn::Item& head = conn->backlog.front();
      if (head.has_queue_deadline && Clock::now() >= head.queue_deadline) {
        // Expired while queued: answer the located deadline error right
        // here — the request never touches a worker.
        discharge(head);
        {
          const std::lock_guard<std::mutex> lock(ostats_mutex);
          ++ostats.shed_expired;
        }
        head.answer = service::error_line(
            head.request.request.id, "deadline_ms",
            "deadline of " + std::to_string(head.deadline_ms) +
                " ms expired while the request was queued");
      }
      if (head.answer.empty()) {
        return;  // runnable head: needs a worker slot
      }
      conn->socket->enqueue(pop_head(conn).answer);
      if (!flush_conn(conn)) {
        return;  // the connection died here
      }
    }
  }

  /// Removes and returns the head item, releasing its bytes from the
  /// read-pause accounting.
  Conn::Item pop_head(const ConnPtr& conn) {
    conn->backlog_bytes -= conn->backlog.front().bytes;
    Conn::Item item = std::move(conn->backlog.front());
    conn->backlog.pop_front();
    return item;
  }

  /// The global dispatch pass: advances every connection's inline items,
  /// then fills free worker slots with the fairest runnable heads —
  /// smallest virtual start tag first, earliest queue deadline breaking
  /// ties, connection id as the final deterministic tie-break. Re-entrant
  /// calls (via flush_conn -> pump) fold into the outer pass.
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
      // Snapshot: advance_conn can close connections (flush failures),
      // which mutates `connections` mid-iteration.
      std::vector<ConnPtr> snapshot;
      snapshot.reserve(connections.size());
      for (const auto& [id, conn] : connections) {
        snapshot.push_back(conn);
      }
      ConnPtr best;
      for (const ConnPtr& conn : snapshot) {
        advance_conn(conn);
        if (conn->executing || conn->socket->closed() ||
            conn->backlog.empty()) {
          continue;
        }
        if (best == nullptr || head_before(conn, best)) {
          best = conn;
        }
      }
      if (best == nullptr || active_requests >= worker_count) {
        return;
      }
      start_item(best);
    }
  }

  [[nodiscard]] static bool head_before(const ConnPtr& a, const ConnPtr& b) {
    const Conn::Item& ha = a->backlog.front();
    const Conn::Item& hb = b->backlog.front();
    if (ha.start_tag != hb.start_tag) {
      return ha.start_tag < hb.start_tag;
    }
    if (ha.has_queue_deadline != hb.has_queue_deadline) {
      return ha.has_queue_deadline;  // a stated deadline outranks none
    }
    if (ha.has_queue_deadline && ha.queue_deadline != hb.queue_deadline) {
      return ha.queue_deadline < hb.queue_deadline;
    }
    return a->id < b->id;
  }

  void start_item(const ConnPtr& conn) {
    Conn::Item item = pop_head(conn);
    const auto now = Clock::now();
    virtual_time = std::max(virtual_time, item.start_tag);
    if (item.scenario()) {
      discharge(item);
    }
    {
      const std::lock_guard<std::mutex> lock(ostats_mutex);
      ostats.queue_wait.record(elapsed_us(item.enqueued, now));
      if (item.scenario()) {
        executing_units += item.cost;
      }
    }
    conn->executing = true;
    conn->executing_cost = item.scenario() ? item.cost : 0.0;
    conn->exec_start = now;
    ++active_requests;
    requests_started.fetch_add(1, std::memory_order_relaxed);
    const ConnPtr held = conn;
    executor->submit([this, held, request = std::move(item.request)]() mutable {
      held->session->serve(std::move(request));
      loop.post([this, held] { on_request_done(held); });
    });
  }

  void on_request_done(const ConnPtr& conn) {
    const auto now = Clock::now();
    conn->executing = false;
    if (active_requests > 0) {
      --active_requests;
    }
    {
      const std::lock_guard<std::mutex> lock(ostats_mutex);
      ostats.compute.record(elapsed_us(conn->exec_start, now));
      if (conn->executing_cost > 0.0) {
        executing_units = std::max(0.0, executing_units - conn->executing_cost);
        // EWMA drain rate in units/ms, sampled per completion over the
        // wall time since the previous one (first sample: this request's
        // own compute time). Overload arithmetic only — never results.
        const Clock::time_point since =
            last_completion == Clock::time_point{} ? conn->exec_start
                                                   : last_completion;
        const double dt_ms = std::max(
            static_cast<double>(elapsed_us(since, now)) / 1000.0, 0.01);
        const double instant = conn->executing_cost / dt_ms;
        ostats.drain_rate_units_per_ms =
            ostats.drain_rate_units_per_ms <= 0.0
                ? instant
                : 0.2 * instant + 0.8 * ostats.drain_rate_units_per_ms;
        last_completion = now;
      }
    }
    conn->executing_cost = 0.0;
    conn->write_pending = true;
    conn->write_start = now;
    if (!conn->socket->closed()) {
      if (flush_conn(conn)) {
        if (conn->read_hold && !draining && !conn->input_closed &&
            backlog_under_resume_watermark(conn)) {
          conn->read_hold = false;
          conn->socket->set_read_hold(false);
        }
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

  // ------------------------------------------------- queue-expiry timer --

  /// One timer covers the earliest queue deadline among admitted items:
  /// when it fires, expired heads answer promptly instead of waiting for
  /// the next socket event. Items behind an in-flight request still wait
  /// their turn — per-connection response order is absolute.
  void arm_sched_timer(Clock::time_point deadline) {
#if defined(__linux__)
    if (sched_timer_armed && sched_timer_deadline <= deadline) {
      return;
    }
    if (!sched_timer.valid()) {
      sched_timer =
          Fd(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
      if (!sched_timer.valid()) {
        return;  // best-effort: expiry then happens on the next event
      }
      loop.add_fd(sched_timer.fd(), IoEvents::kRead, [this](std::uint32_t) {
        std::uint64_t expirations = 0;
        while (::read(sched_timer.fd(), &expirations, sizeof(expirations)) >
               0) {
        }
        sched_timer_armed = false;
        on_sched_timer();
      });
    }
    const auto delta = deadline - Clock::now();
    const auto ns = std::max<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(delta).count(),
        1000000);  // >= 1 ms; 0 would disarm the timer
    itimerspec spec{};
    spec.it_value.tv_sec = ns / 1000000000;
    spec.it_value.tv_nsec = static_cast<long>(ns % 1000000000);
    if (::timerfd_settime(sched_timer.fd(), 0, &spec, nullptr) == 0) {
      sched_timer_armed = true;
      sched_timer_deadline = deadline;
    }
#else
    (void)deadline;
#endif
  }

  void on_sched_timer() {
    dispatch_all();
    // Re-arm for the earliest deadline still queued.
    Clock::time_point earliest{};
    bool found = false;
    for (const auto& [id, conn] : connections) {
      for (const Conn::Item& item : conn->backlog) {
        if (item.has_queue_deadline &&
            (!found || item.queue_deadline < earliest)) {
          earliest = item.queue_deadline;
          found = true;
        }
      }
    }
    if (found) {
      arm_sched_timer(earliest);
    }
  }

  [[nodiscard]] OverloadStats overload_stats() const {
    const std::lock_guard<std::mutex> lock(ostats_mutex);
    OverloadStats snapshot = ostats;
    snapshot.retry_after_ms = retry_after_ms_locked();
    return snapshot;
  }

  util::JsonValue overload_stats_json() const {
    const OverloadStats snapshot = overload_stats();
    util::JsonValue scheduler = util::JsonValue::object();
    scheduler.set("admitted", snapshot.admitted);
    scheduler.set("shed_overload", snapshot.shed_overload);
    scheduler.set("shed_expired", snapshot.shed_expired);
    scheduler.set("queued_cost", snapshot.queued_cost);
    scheduler.set("queued_depth", snapshot.queued_depth);
    scheduler.set("drain_rate_units_per_ms",
                  snapshot.drain_rate_units_per_ms);
    scheduler.set("retry_after_ms", snapshot.retry_after_ms);
    util::JsonValue latency = util::JsonValue::object();
    latency.set("queue_wait", histogram_json(snapshot.queue_wait));
    latency.set("compute", histogram_json(snapshot.compute));
    latency.set("write", histogram_json(snapshot.write));
    util::JsonValue out = util::JsonValue::object();
    out.set("scheduler", std::move(scheduler));
    out.set("latency_us", std::move(latency));
    return out;
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
      const std::lock_guard<std::mutex> lock(ostats_mutex);
      ostats.write.record(elapsed_us(conn->write_start, Clock::now()));
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
      if (item.scenario()) {
        discharge(item);
      }
    }
    conn->backlog.clear();
    conn->backlog_bytes = 0;
    connections.erase(conn->id);
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
    listener.close();
    std::vector<ConnPtr> snapshot;
    snapshot.reserve(connections.size());
    for (const auto& [id, conn] : connections) {
      snapshot.push_back(conn);
    }
    for (const ConnPtr& conn : snapshot) {
      conn->input_closed = true;  // already-received requests still run
      conn->socket->set_read_hold(true);
    }
    dispatch_all();
    for (const ConnPtr& conn : snapshot) {
      maybe_finish(conn);
    }
    arm_drain_timer();
    check_drain();
  }

  void arm_drain_timer() {
#if defined(__linux__)
    if (options.drain_timeout_ms <= 0) {
      return;
    }
    drain_timer = Fd(::timerfd_create(CLOCK_MONOTONIC,
                                      TFD_NONBLOCK | TFD_CLOEXEC));
    if (!drain_timer.valid()) {
      return;  // best-effort: drain just has no deadline
    }
    itimerspec spec{};
    spec.it_value.tv_sec = options.drain_timeout_ms / 1000;
    spec.it_value.tv_nsec =
        static_cast<long>(options.drain_timeout_ms % 1000) * 1000000L;
    if (::timerfd_settime(drain_timer.fd(), 0, &spec, nullptr) == -1) {
      drain_timer.reset();
      return;
    }
    loop.add_fd(drain_timer.fd(), IoEvents::kRead, [this](std::uint32_t) {
      std::fprintf(stderr,
                   "net: drain deadline (%d ms) reached with %zu connection(s) "
                   "busy; force-closing\n",
                   options.drain_timeout_ms, connections.size());
      std::vector<ConnPtr> snapshot;
      for (const auto& [id, conn] : connections) {
        snapshot.push_back(conn);
      }
      for (const ConnPtr& conn : snapshot) {
        close_conn(conn);
      }
      loop.stop();
    });
#endif
  }

  void check_drain() {
    if (draining && connections.empty() && active_requests == 0) {
      loop.stop();
    }
  }

  void signal_stop() noexcept {
#if defined(__linux__)
    const std::uint64_t one = 1;
    ssize_t rc;
    do {
      rc = ::write(stop_event.fd(), &one, sizeof(one));
    } while (rc == -1 && errno == EINTR);
#endif
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
  EventLoop loop;
  Listener listener;
  Fd stop_event;
  Fd drain_timer;
  std::unique_ptr<util::ThreadPool> executor;
  std::unordered_map<std::uint64_t, ConnPtr> connections;
  std::uint64_t next_id = 1;
  std::size_t active_requests = 0;
  std::size_t worker_count = 1;
  bool draining = false;

  // Scheduler state. Everything below lives on the loop thread; the
  // ostats block is additionally read by overload_stats() from executor
  // threads (the stats handler) and tests, hence its mutex.
  double virtual_time = 0.0;
  bool in_dispatch = false;
  bool dispatch_again = false;
  Fd sched_timer;
  bool sched_timer_armed = false;
  Clock::time_point sched_timer_deadline{};
  double executing_units = 0.0;  ///< cost of requests on workers right now
  Clock::time_point last_completion{};
  mutable std::mutex ostats_mutex;
  OverloadStats ostats;

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

void NetServer::stop() { impl_->signal_stop(); }

void NetServer::signal_stop() noexcept { impl_->signal_stop(); }

std::uint16_t NetServer::port() const noexcept {
  return impl_->listener.port();
}

service::SweepService& NetServer::service() noexcept {
  return impl_->service;
}

const NetServerOptions& NetServer::options() const noexcept {
  return impl_->options;
}

OverloadStats NetServer::overload_stats() const {
  return impl_->overload_stats();
}

util::JsonValue NetServer::overload_stats_json() const {
  return impl_->overload_stats_json();
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
  return stats;
}

}  // namespace resilience::net

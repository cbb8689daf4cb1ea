#include "resilience/net/fault.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <poll.h>
#endif

namespace resilience::net {

// ---------------------------------------------------------------------------
// FaultSchedule / FaultInjector — pure deterministic logic, every platform.

std::uint64_t FaultSchedule::next() noexcept {
  // splitmix64: tiny, statistically fine for fault scheduling, and —
  // unlike std::mt19937 — trivially stable across standard libraries, so
  // a seed reproduces the same chaos run on every toolchain.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t FaultSchedule::chunk_len(std::size_t available,
                                     std::size_t max_chunk) noexcept {
  const std::size_t cap =
      max_chunk == 0 ? available : (available < max_chunk ? available
                                                          : max_chunk);
  if (cap <= 1) {
    return 1;
  }
  return 1 + static_cast<std::size_t>(next() % cap);
}

bool FaultSchedule::one_in(std::uint64_t n) noexcept {
  if (n == 0) {
    return false;
  }
  return next() % n == 0;
}

int FaultSchedule::pick_ms(int max_ms) noexcept {
  if (max_ms <= 0) {
    return 0;
  }
  return static_cast<int>(next() %
                          (static_cast<std::uint64_t>(max_ms) + 1));
}

std::uint64_t FaultSchedule::mix(std::uint64_t a, std::uint64_t b) noexcept {
  FaultSchedule combined(a ^ (b * 0x9e3779b97f4a7c15ULL));
  return combined.next();
}

bool FaultInjector::take_budget() noexcept {
  if (shared_budget_ != nullptr) {
    // Claim one unit unless the pool is dry; CAS loop so concurrent
    // connections never overspend.
    std::size_t budget = shared_budget_->load(std::memory_order_relaxed);
    while (budget > 0) {
      if (shared_budget_->compare_exchange_weak(budget, budget - 1,
                                                std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }
  if (local_budget_ == 0) {
    return false;
  }
  --local_budget_;
  return true;
}

// ---------------------------------------------------------------------------
// ChaosProxy — Linux-only like the rest of the transport.

ChaosProxy::ChaosProxy(ChaosProxyOptions options)
    : options_(std::move(options)) {
  kill_budget_.store(options_.profile.kill_budget, std::memory_order_relaxed);
}

ChaosProxy::~ChaosProxy() { stop(); }

ChaosProxy::Stats ChaosProxy::stats() const {
  Stats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.kills = kills_.load(std::memory_order_relaxed);
  stats.stalls = stalls_.load(std::memory_order_relaxed);
  stats.chunks = chunks_.load(std::memory_order_relaxed);
  stats.forwarded_bytes = forwarded_bytes_.load(std::memory_order_relaxed);
  stats.kill_budget_left = kill_budget_.load(std::memory_order_relaxed);
  return stats;
}

#if defined(__linux__)

void ChaosProxy::start() {
  if (started_) {
    throw std::logic_error("ChaosProxy: already started");
  }
  listener_ =
      listen_tcp(options_.listen_host, options_.listen_port, /*backlog=*/64,
                 &port_);
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ChaosProxy::stop() {
  if (!started_) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  listener_.reset();
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(threads_mutex_);
    threads.swap(connection_threads_);
  }
  for (std::thread& thread : threads) {
    thread.join();  // each observes stopping_ within one poll tick
  }
  started_ = false;
}

void ChaosProxy::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd waiting{};
    waiting.fd = listener_.fd();
    waiting.events = POLLIN;
    const int rc = ::poll(&waiting, 1, /*timeout=*/100);
    if (rc <= 0) {
      continue;  // tick: re-check stopping_ (EINTR folds in here too)
    }
    Fd client = accept_connection(listener_.fd());
    if (!client.valid()) {
      continue;
    }
    const std::uint64_t index =
        connections_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(threads_mutex_);
    connection_threads_.emplace_back(
        [this, conn = std::move(client), index]() mutable {
          serve_connection(std::move(conn), index);
        });
  }
}

void ChaosProxy::serve_connection(Fd client, std::uint64_t connection_index) {
  Fd upstream;
  try {
    upstream = connect_tcp(options_.upstream_host, options_.upstream_port,
                           options_.upstream_connect_timeout_ms);
  } catch (const std::exception&) {
    return;  // client sees a plain close; a resilient client retries
  }
  // Both ends non-blocking (the accepted fd already is): the pump below
  // speculatively reads/writes each tick and relies on kWouldBlock, so a
  // quiet peer must never wedge the thread in a blocking read.
  set_nonblocking(upstream.fd());

  // One injector per direction: both decision streams are functions of
  // (proxy seed, connection index, direction) alone, so a chaos run is
  // replayable from its seed no matter how the peers interleave.
  const std::uint64_t conn_seed =
      FaultSchedule::mix(options_.seed, connection_index);

  struct Flow {
    int from;
    int to;
    FaultInjector injector;
    std::string pending;      ///< read but not yet forwarded
    bool input_open = true;   ///< `from` has not EOF'd
    bool half_closed = false; ///< EOF relayed to `to` after draining
  };
  Flow flows[2] = {
      {client.fd(), upstream.fd(),
       FaultInjector(options_.profile, FaultSchedule::mix(conn_seed, 1),
                     &kill_budget_),
       {}, true, false},
      {upstream.fd(), client.fd(),
       FaultInjector(options_.profile, FaultSchedule::mix(conn_seed, 2),
                     &kill_budget_),
       {}, true, false},
  };
  // Backpressure cap on buffered bytes per direction: past it we stop
  // reading until the (possibly stalling) forward side drains.
  constexpr std::size_t kMaxPending = 1 << 20;

  // Drains as much of the pending buffer as the kernel accepts, one
  // fault-scheduled chunk at a time; false = the connection dies now.
  const auto forward_step = [&](Flow& flow) -> bool {
    while (!flow.pending.empty() &&
           !stopping_.load(std::memory_order_acquire)) {
      const int stall = flow.injector.stall_ms();
      if (stall > 0) {
        stalls_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(stall));
      }
      if (flow.injector.should_kill()) {
        kills_.fetch_add(1, std::memory_order_relaxed);
        // Abort rather than close: the client must see ECONNRESET (a
        // crashed server), not a tidy EOF.
        set_linger_reset(client.fd());
        return false;
      }
      const std::size_t len =
          flow.injector.next_chunk_len(flow.pending.size());
      std::size_t n = 0;
      const IoStatus status = write_some(flow.to, flow.pending.data(), len, &n);
      if (status == IoStatus::kError) {
        return false;
      }
      if (status == IoStatus::kWouldBlock) {
        break;  // kernel buffer full; retry on the next tick
      }
      if (n > 0) {
        flow.pending.erase(0, n);
        chunks_.fetch_add(1, std::memory_order_relaxed);
        forwarded_bytes_.fetch_add(n, std::memory_order_relaxed);
      }
    }
    return true;
  };

  const auto read_step = [&](Flow& flow) -> bool {
    char buf[16384];
    std::size_t n = 0;
    switch (read_some(flow.from, buf, sizeof(buf), &n)) {
      case IoStatus::kOk:
        flow.pending.append(buf, n);
        return true;
      case IoStatus::kWouldBlock:
        return true;
      case IoStatus::kEof:
        flow.input_open = false;
        return true;
      case IoStatus::kError:
        return false;
    }
    return false;
  };

  while (!stopping_.load(std::memory_order_acquire)) {
    // Poll readability on the two `from` ends; writability is handled
    // optimistically — write_some on a socket with buffer space succeeds
    // immediately, and a kWouldBlock just leaves the bytes pending for
    // the next (short) tick. Chunks are tiny, so that retry is rare.
    pollfd waiting[2]{};
    bool any_interest = false;
    for (int i = 0; i < 2; ++i) {
      Flow& flow = flows[i];
      waiting[i].fd = -1;  // poll ignores negative fds
      if (flow.input_open && flow.pending.size() < kMaxPending) {
        waiting[i].fd = flow.from;
        waiting[i].events = POLLIN;
        any_interest = true;
      }
      if (!flow.pending.empty()) {
        any_interest = true;  // drain via the tick even with reads parked
      }
    }
    if (!any_interest) {
      break;  // both directions EOF'd and drained
    }
    const bool pending_writes =
        !flows[0].pending.empty() || !flows[1].pending.empty();
    (void)::poll(waiting, 2, pending_writes ? 5 : 50);

    bool dead = false;
    for (Flow& flow : flows) {
      if (flow.input_open && !read_step(flow)) {
        dead = true;
        break;
      }
      if (!forward_step(flow)) {
        dead = true;
        break;
      }
      if (!flow.input_open && flow.pending.empty() && !flow.half_closed) {
        shutdown_send_half(flow.to);  // relay the EOF once drained
        flow.half_closed = true;
      }
    }
    if (dead) {
      return;  // fds close on scope exit (RST if armed)
    }
    if (flows[0].half_closed && flows[1].half_closed) {
      return;  // orderly shutdown both ways
    }
  }
}

#else  // !__linux__

void ChaosProxy::start() {
  throw std::runtime_error(
      "resilience/net: the chaos proxy requires Linux (like the transport)");
}
void ChaosProxy::stop() {}
void ChaosProxy::accept_loop() {}
void ChaosProxy::serve_connection(Fd, std::uint64_t) {}

#endif

}  // namespace resilience::net

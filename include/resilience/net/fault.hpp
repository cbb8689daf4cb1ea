#pragma once

// Seeded, deterministic fault injection for the JSONL transport — the
// chaos half of the serving stack's robustness story. Three layers:
//
//   * FaultSchedule — a splitmix64 decision stream. Same seed, same
//     draws, so every torn read, stall and kill in a chaos run is
//     reproducible from one integer.
//   * FaultInjector — a FaultProfile bound to a schedule: per-chunk
//     decisions (how many bytes to pass, whether to stall, whether to
//     kill the connection) with a kill budget so a retrying client is
//     guaranteed eventual progress.
//   * ChaosProxy — a TCP proxy applying an injector per connection:
//     splits both directions at arbitrary byte boundaries, delays
//     chunks, and kills connections mid-line with a TCP RST (an
//     SO_LINGER{1,0} close: peers see ECONNRESET). Usable in-process
//     by tests and as the sweep_chaosd binary for CI smoke runs.
//
// The injector sits BETWEEN the peers, so neither side's code is
// instrumented: the daemon under test is the production daemon, and the
// resilient client earns its retries against real socket errors.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "resilience/net/socket.hpp"

namespace resilience::net {

/// Deterministic draw stream (splitmix64). Cheap to copy; copies evolve
/// independently from the same state.
class FaultSchedule {
 public:
  explicit FaultSchedule(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit draw.
  std::uint64_t next() noexcept;

  /// Chunk length in [1, min(available, max_chunk)] — how many bytes of
  /// a pending buffer to pass through in one step. available must be > 0.
  std::size_t chunk_len(std::size_t available, std::size_t max_chunk) noexcept;

  /// True with probability ~1/n (never for n == 0).
  bool one_in(std::uint64_t n) noexcept;

  /// Uniform delay in [0, max_ms].
  int pick_ms(int max_ms) noexcept;

  /// Stable combination of two seeds (proxy seed x connection index, ...).
  [[nodiscard]] static std::uint64_t mix(std::uint64_t a,
                                         std::uint64_t b) noexcept;

 private:
  std::uint64_t state_;
};

/// What faults to inject, and how often. Frequencies are per chunk (a
/// chunk being at most max_chunk_bytes), so smaller chunks mean more
/// fault opportunities per byte.
struct FaultProfile {
  /// Reads/writes are re-chunked to at most this many bytes (1 = byte at
  /// a time). The byte-boundary torture knob.
  std::size_t max_chunk_bytes = 512;
  /// ~1 in N chunks sleeps before forwarding (0 = never).
  std::uint64_t stall_every = 64;
  int stall_max_ms = 5;  ///< stall duration drawn from [0, this]
  /// ~1 in N chunks kills the connection (0 = never), subject to the
  /// kill budget below.
  std::uint64_t kill_every = 256;
  /// Total kills allowed (shared across a proxy's connections): once
  /// spent, the network is "repaired" and a client that keeps retrying
  /// is guaranteed to finish.
  std::size_t kill_budget = 6;
};

/// A profile bound to a deterministic schedule: the per-chunk decision
/// maker a pump loop consults. Not thread-safe — one injector per
/// pumping thread; the optional shared kill budget is the one
/// cross-thread touch point (atomic).
class FaultInjector {
 public:
  /// `shared_kill_budget` (may be null) overrides the profile's local
  /// budget so several connections spend from one pool.
  FaultInjector(const FaultProfile& profile, std::uint64_t seed,
                std::atomic<std::size_t>* shared_kill_budget = nullptr)
      : profile_(profile),
        schedule_(seed),
        shared_budget_(shared_kill_budget),
        local_budget_(profile.kill_budget) {}

  [[nodiscard]] const FaultProfile& profile() const noexcept {
    return profile_;
  }

  /// Bytes to forward in the next step (see FaultSchedule::chunk_len).
  std::size_t next_chunk_len(std::size_t available) noexcept {
    return schedule_.chunk_len(available, profile_.max_chunk_bytes);
  }

  /// Milliseconds to stall before this chunk; 0 = don't.
  int stall_ms() noexcept {
    if (profile_.stall_every == 0 || !schedule_.one_in(profile_.stall_every)) {
      return 0;
    }
    return schedule_.pick_ms(profile_.stall_max_ms);
  }

  /// True when this chunk should kill the connection. Draws first, THEN
  /// spends budget — so the decision stream stays aligned across runs
  /// whether or not budget remained.
  bool should_kill() noexcept {
    if (profile_.kill_every == 0 || !schedule_.one_in(profile_.kill_every)) {
      return false;
    }
    return take_budget();
  }

 private:
  bool take_budget() noexcept;

  FaultProfile profile_;
  FaultSchedule schedule_;
  std::atomic<std::size_t>* shared_budget_;
  std::size_t local_budget_;
};

struct ChaosProxyOptions {
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;  ///< 0 = kernel-assigned (see port())
  std::string upstream_host = "127.0.0.1";
  std::uint16_t upstream_port = 0;
  std::uint64_t seed = 1;
  FaultProfile profile;
  int upstream_connect_timeout_ms = 5000;
};

/// The in-between process: accepts JSONL clients, connects upstream per
/// connection, and pumps both directions through a per-connection
/// FaultInjector (sub-seed = mix(seed, connection index), one injector
/// per direction so both decision streams are independent and
/// reproducible). One thread per connection, poll-driven over both fds.
/// start() binds and begins accepting; stop() (idempotent, also run by
/// the destructor) tears everything down and joins.
class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosProxyOptions options);
  ~ChaosProxy();
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  void start();
  void stop();

  /// Bound listen port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  struct Stats {
    std::uint64_t connections = 0;      ///< accepted client connections
    std::uint64_t kills = 0;            ///< connections killed mid-flight
    std::uint64_t stalls = 0;           ///< chunks delayed
    std::uint64_t chunks = 0;           ///< chunks forwarded
    std::uint64_t forwarded_bytes = 0;  ///< bytes through, both directions
    std::size_t kill_budget_left = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  void accept_loop();
  void serve_connection(Fd client, std::uint64_t connection_index);

  ChaosProxyOptions options_;
  Fd listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread accept_thread_;
  std::mutex threads_mutex_;
  std::vector<std::thread> connection_threads_;

  std::atomic<std::size_t> kill_budget_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> kills_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> forwarded_bytes_{0};
};

}  // namespace resilience::net

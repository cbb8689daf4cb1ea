#pragma once

// Admission control and the start-time fair queue of the network daemon
// (NetServer). A FairScheduler owns no socket, thread or clock: every
// call that needs the time takes `now`. Only the event-loop thread calls
// it, except for the snapshot (stats, stats_json), which any thread may
// take under the mutex.
//
// Each connection is a Flow. An admitted line gets a Ticket: its charge
// in predicted compute units and a start tag = max(virtual time, the
// flow's finish tag), so one connection's deep backlog pushes back only
// its own later requests. A scenario's charge stays in the waiting
// budget until it starts, expires in the queue or is withdrawn with its
// connection.

#include <array>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>

#include "resilience/util/json.hpp"

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
/// {"type":"stats"} answer (see FairScheduler::stats_json).
struct OverloadStats {
  std::uint64_t admitted = 0;       ///< scenario requests admitted
  std::uint64_t shed_overload = 0;  ///< rejected at admission (retriable)
  std::uint64_t shed_expired = 0;   ///< deadline expired while queued
  /// Answered on the loop thread, never on a worker: memory-tier hits
  /// (and sim.max_runs refusals, which need no compute either).
  std::uint64_t served_inline = 0;
  double queued_cost = 0.0;         ///< current waiting cost units
  std::size_t queued_depth = 0;     ///< current waiting scenario requests
  double drain_rate_units_per_ms = 0.0;  ///< EWMA completion rate
  std::int64_t retry_after_ms = 0;  ///< hint a shed answered right now gets
  /// The three stages also sample the requests the loop answers itself
  /// (there, dispatch is the loop starting the answer).
  LatencyHistogram queue_wait;      ///< admission -> worker dispatch
  LatencyHistogram compute;         ///< worker dispatch -> response done
  LatencyHistogram write;           ///< response done -> socket drained
};

class FairScheduler {
 public:
  using Clock = std::chrono::steady_clock;

  /// Charge of a line that is not a scenario (ping, stats, malformed
  /// JSON): it answers in microseconds, is never shed, and must barely
  /// advance its connection's finish tag.
  static constexpr double kNonScenarioCost = 1.0 / 64.0;
  /// Floor of a scenario's charge, so fully-warm requests still advance
  /// the virtual clock.
  static constexpr double kMinScenarioCost = 1.0 / 1024.0;

  /// One connection: its finish tag and its running request.
  struct Flow {
    std::uint64_t id = 0;  ///< the head order's last tie-break
    double finish_tag = 0.0;
    double running_cost = 0.0;  ///< charge of its running scenario, else 0
    Clock::time_point started{};
  };

  struct Ticket {
    std::uint64_t flow = 0;
    double cost = 0.0;
    double start_tag = 0.0;
    bool scenario = false;  ///< charged to the waiting budget
    int deadline_ms = 0;    ///< queue deadline after `enqueued`; 0 = none
    Clock::time_point enqueued{};

    [[nodiscard]] bool has_deadline() const noexcept {
      return deadline_ms > 0;
    }
    [[nodiscard]] Clock::time_point deadline() const noexcept {
      return enqueued + std::chrono::milliseconds(deadline_ms);
    }
  };

  /// Budgets over the waiting (queued, not running) scenarios; 0 =
  /// unlimited (NetServerOptions::max_queue_cost and max_queue_depth).
  FairScheduler(double max_queue_cost, std::size_t max_queue_depth);

  /// Admits a line that is not a scenario.
  Ticket admit_line(Flow& flow, Clock::time_point now) {
    return stamp(flow, kNonScenarioCost, now);
  }
  /// Admits a scenario priced at `units` that may wait `deadline_ms` (0
  /// = no limit), or sheds it (nullopt, counted, no tag stamped) by the
  /// rules of NetServerOptions::max_queue_cost and max_queue_depth.
  std::optional<Ticket> admit_scenario(Flow& flow, double units,
                                       int deadline_ms, Clock::time_point now);

  /// Head order: the smaller start tag, then a stated queue deadline
  /// before none, then the earlier deadline, then the lower flow id.
  [[nodiscard]] static bool before(const Ticket& a, const Ticket& b);

  /// `ticket` starts running for `flow` (on a worker or on the loop).
  void start(Flow& flow, const Ticket& ticket, Clock::time_point now);
  /// The flow's running request finished.
  void finish(Flow& flow, Clock::time_point now);
  void count_served_inline();
  /// A response done at `done` reached the socket at `now`.
  void record_write(Clock::time_point done, Clock::time_point now);

  /// Refunds a queued scenario whose deadline has passed by `now`, and
  /// counts it in shed_expired; false, changing nothing, otherwise.
  bool expire(const Ticket& ticket, Clock::time_point now);
  /// Refunds a queued ticket whose connection closed.
  void withdraw(const Ticket& ticket);

  /// The counters and histograms, with retry_after_ms: the waiting and
  /// executing units over the drain rate (1000 before any completion),
  /// clamped to [1, 60000].
  [[nodiscard]] OverloadStats stats() const;
  /// stats() as the "transport" JSON block of a stats answer.
  [[nodiscard]] util::JsonValue stats_json() const;

 private:
  Ticket stamp(Flow& flow, double cost, Clock::time_point now);
  void discharge(const Ticket& ticket);  // requires mutex_

  const double max_queue_cost_;
  const std::size_t max_queue_depth_;
  double virtual_time_ = 0.0;
  Clock::time_point last_completion_{};
  /// Guards what the snapshot reads. Only the loop thread writes it.
  mutable std::mutex mutex_;
  OverloadStats stats_;
  double executing_units_ = 0.0;
};

}  // namespace resilience::net

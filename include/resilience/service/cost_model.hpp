#pragma once

// Request cost estimation for admission control and fair scheduling: a
// predicted compute cost, in *units*, for a scenario request BEFORE it
// touches a worker. One unit is one cold numerically-optimized cell — the
// dominant term of a sweep — so a request's units are roughly proportional
// to its worker-occupancy time, which is exactly the currency a fair
// queue and a queue-cost budget need.
//
// The estimate is cache-aware: it consults the service's SweepCache
// through the non-mutating contains()/has_seeds() probes (no LRU
// promotion, no counter bumps, no disk IO), so a warm identity hit
// estimates ~cells/1024 (pure replay) and a chain with seed-tier
// coverage estimates cells/8 (warm-started search) instead of full cost.
// First-order-only requests (numeric_optimum=false) cost cells/16: the
// closed-form column is orders of magnitude cheaper than the (n, m, W)
// search.
//
// Estimates are heuristics, not promises — they steer scheduling and
// shedding, never results. They are exposed in the done-line "stats"
// block (per-request opt-in) so operators can audit them against the
// latencies the transport histograms record.

#include <cstddef>
#include <string_view>

#include "resilience/service/scenario_request.hpp"

namespace resilience::service {

class SweepService;

/// Per-cell weights of the cost model (units).
inline constexpr double kCostColdCell = 1.0;
/// First-order-only cells skip the numeric (n, m, W) search entirely.
inline constexpr double kCostFirstOrderCell = 1.0 / 16.0;
/// Cells of a chain with seed-tier coverage warm-start (or outright
/// reuse) instead of cold-searching.
inline constexpr double kCostSeededCell = 1.0 / 8.0;
/// Identity cache hit: the whole table replays from memory/disk.
inline constexpr double kCostReplayCell = 1.0 / 1024.0;
/// Simulate-mode cells are priced by their run budget: one unit per this
/// many (run x pattern) draws — calibrated so a default sim cell
/// (1000 runs x 100 patterns) costs about one cold analytic cell. Cells
/// that early-stop under target_ci cost less than estimated; admission
/// control only needs an upper bound.
inline constexpr double kCostSimDrawsPerUnit = 100000.0;

/// Predicted cost of one scenario request.
struct CostEstimate {
  double units = 0.0;        ///< predicted compute units (see weights above)
  std::size_t cells = 0;     ///< grid cells ((points x families))
  std::size_t chains = 0;    ///< grid chains (scheduling/reuse granularity)
  std::size_t seeded_chains = 0;  ///< chains the seed tier covers
  bool identity_hit = false;      ///< exact table cached (memory or disk)
};

/// Estimates `request` against `service`'s cache state from the fields
/// resolved at classification (signature, chains); never throws.
/// `service` may be null — e.g. a transport hosting a custom session with
/// no local service — in which case every request estimates cold (no
/// cache probes).
[[nodiscard]] CostEstimate estimate_cost(const ResolvedRequest& request,
                                         const SweepService* service);

/// Prices one raw input line: classify_line() plus estimate_cost(), a
/// forward for callers holding only the line's bytes (the benchmark
/// package's tracer); the daemon prices the request it already
/// classified. Lines that do not classify as scenario requests (pings,
/// stats, blanks, invalid lines) report scenario=false — they answer in
/// microseconds, so schedulers give them a nominal cost and always admit
/// them (observability must keep working under overload). The third
/// argument is unused: deadlines are read from the classified request.
struct LineCost {
  bool scenario = false;  ///< classified as a valid scenario request
  CostEstimate estimate;  ///< meaningful only when scenario
};

[[nodiscard]] LineCost estimate_line_cost(std::string_view line,
                                          const SweepService* service,
                                          int default_deadline_ms);

}  // namespace resilience::service

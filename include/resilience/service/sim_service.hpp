#pragma once

// Simulation-backed scenario service: serves "mode": "simulate" requests
// by running CI-bounded adaptive Monte Carlo (sim/adaptive.hpp) over the
// request's resolved grid, one campaign per (point, family, weibull_shape,
// faulty_ops) cell. Cells are computed — and streamed — SEQUENTIALLY in
// canonical table order while each cell's runs fan out across the shared
// executor pool, so the response stream is byte-identical at any pool
// size by construction (parallelism lives inside a cell, never across the
// emission order). Per-cell RNG streams are content-addressed
// (sim_cell_seed), so a router shard computing a slice of the grid emits
// the same cell bytes the whole grid would.
//
// Reuse: two tiers, through the SweepCache the analytic path uses — one
// LRU whose capacity counts the tables of both modes, one disk tier
// ('<hex>.sim.json' spills), one verified loader:
//   1. identity hit — the same sim signature was computed before
//      (memory or the cache_dir disk tier) and the cached table passes
//      the shared collision guard (table_matches_grid, plus SimParams
//      equality); cells replay in table order.
//   2. compute      — cold: run the campaigns, publish the table.
// No in-flight join and no seed tier for simulate results (scope:
// campaigns are budget-bounded, so duplicated concurrent computes cost a
// bounded amount; cross-request partial reuse of Monte Carlo runs has no
// analytic analogue of "bit-equal points").
//
// Cancellation/deadlines: the submit token is polled between run batches
// of every campaign (sim/adaptive.hpp check_cancel) — batches are the sim
// path's cell-granularity analogue — and a fired token unwinds with
// core::SweepCancelled; no partial table is published.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "resilience/core/cancel.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/service/sweep_cache.hpp"

namespace resilience::util {
class ThreadPool;  // campaigns only carry a pointer; see thread_pool.hpp
}

namespace resilience::service {

/// Outcome of one simulate submission.
struct SimSubmitResult {
  std::shared_ptr<const SimTable> table;
  core::GridSignature signature;
  bool cache_hit = false;  ///< served from the sim table cache
  bool disk_hit = false;   ///< the hit was lazily reloaded from disk
};

/// Receives every finished cell exactly once, in canonical table order
/// (live on a compute, replayed on a cache hit).
using SimCellFn = std::function<void(const SimCell&)>;

class SimService {
 public:
  /// `cache` is the table cache shared with the analytic path (may be
  /// null: no caching);
  /// `pool` is the executor every campaign fans out on (null = global
  /// pool). Neither is owned; both must outlive the service.
  SimService(SweepCache* cache, util::ThreadPool* pool);

  /// Serves a parsed "mode": "simulate" request; throws
  /// std::invalid_argument if request.simulate is false and
  /// core::SweepCancelled when `cancel` fires mid-campaign. Safe to call
  /// from multiple threads (but not from inside a pool task).
  SimSubmitResult submit(const ScenarioRequest& request,
                         const SimCellFn& sink = nullptr,
                         core::CancelToken cancel = {});

  /// The signature submit(request) will use.
  [[nodiscard]] core::GridSignature signature_for(
      const ScenarioRequest& request) const;

  // Monotonic counters (the stats.sim block).
  [[nodiscard]] std::uint64_t submits() const noexcept {
    return submits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t disk_hits() const noexcept {
    return disk_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cells_computed() const noexcept {
    return cells_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t runs_executed() const noexcept {
    return runs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t early_stops() const noexcept {
    return early_stops_.load(std::memory_order_relaxed);
  }
  /// runs_executed over accumulated compute wall time; 0 before the
  /// first compute finishes.
  [[nodiscard]] double runs_per_second() const noexcept;

 private:
  std::shared_ptr<const SimTable> compute(const ScenarioRequest& request,
                                          const SimCellFn& sink,
                                          const core::CancelToken& cancel);

  SweepCache* cache_;
  util::ThreadPool* pool_;
  std::atomic<std::uint64_t> submits_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> cells_{0};
  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> early_stops_{0};
  std::atomic<std::uint64_t> compute_micros_{0};
};

}  // namespace resilience::service

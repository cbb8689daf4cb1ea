#pragma once

// The serving front-end over the sweep engine: submit scenario batches,
// get shared immutable tables back, and optionally stream cells as they
// resolve. Four layers of reuse, checked in this order:
//
//   1. cache hit    — the table was computed before (same GridSignature),
//                     in memory or spilled to the cache_dir disk tier;
//                     cells replay from the cached table in table order.
//   2. in-flight    — another submission of the same signature is being
//      join           computed right now; this call waits for it instead
//                     of computing a duplicate, then replays cells.
//   3. seeded       — this call is the compute leader, and cached tables
//      compute        share chains (same platform + cost override + family
//                     + result-affecting options) with the new grid: the
//                     runner reuses bit-equal points outright and
//                     warm-starts the genuinely new ones from the nearest
//                     cached optima (request flag `reuse_seeds`, on by
//                     default).
//   4. compute      — cold leader: runs the SweepRunner (streaming cells
//                     live as chains finish them), publishes the table to
//                     the cache, and wakes joiners.
//
// Whatever path serves a request, the delivered cell set and the returned
// table are bit-identical — reuse is an optimization, never a relaxation.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "resilience/core/sweep.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/sweep_cache.hpp"

namespace resilience::service {

class SimService;  // sim_service.hpp; owned via pointer

struct ServiceOptions {
  /// Execution options for cache misses. The pool/warm-start/seed fields
  /// do not enter the grid signature (they cannot change results).
  core::SweepOptions sweep;
  /// LRU capacity in tables; 0 disables caching (every submit computes).
  std::size_t cache_capacity = 64;
  /// Spill directory for evicted/shutdown cache entries (empty = no disk
  /// tier); see SweepCache.
  std::string cache_dir;
  /// Master switch for cross-grid seed reuse on cache misses; a request
  /// can additionally opt out per submission (ScenarioRequest::reuse_seeds).
  bool reuse_seeds = true;
};

/// Counter snapshot of a service and its cache — the observability
/// surface the JSONL protocol exposes (a "stats" request, or the opt-in
/// per-request `stats` flag on the done line), so a daemon's reuse
/// behavior is visible without a debugger. Counters are monotonic over
/// the service's lifetime; under concurrent submissions a snapshot is
/// internally consistent only counter by counter (each is read
/// atomically, the set is not one transaction).
struct ServiceStats {
  // Submission outcomes (SweepService).
  std::uint64_t submits = 0;
  std::uint64_t cache_hits = 0;         ///< served from the table cache
  std::uint64_t disk_hits = 0;          ///< ...of which lazily reloaded
  std::uint64_t joined_in_flight = 0;   ///< deduped onto a concurrent leader
  std::uint64_t tables_computed = 0;    ///< misses that led a compute
  std::uint64_t seeded_computes = 0;    ///< computes that consumed seeds
  std::uint64_t deadline_timeouts = 0;  ///< submits aborted by a deadline
  // Cache tiers (SweepCache; lookup granularity, not submissions).
  std::uint64_t cache_lookup_hits = 0;
  std::uint64_t cache_lookup_misses = 0;
  std::uint64_t seed_hits = 0;    ///< seeds_for() calls that found seeds
  std::uint64_t disk_loads = 0;   ///< spill files served after verification
  std::uint64_t disk_rejects = 0; ///< spill files rejected (corrupt/foreign)
  std::size_t cache_size = 0;
  std::size_t cache_capacity = 0;
  // Simulate mode (SimService).
  std::uint64_t sim_submits = 0;
  std::uint64_t sim_cache_hits = 0;   ///< served from the sim table cache
  std::uint64_t sim_disk_hits = 0;    ///< ...of which lazily reloaded
  std::uint64_t sim_cells = 0;        ///< cells computed (not replayed)
  std::uint64_t sim_runs = 0;         ///< Monte Carlo runs executed
  std::uint64_t sim_early_stops = 0;  ///< cells stopped by target_ci
  /// Aggregate Monte Carlo throughput over every computed cell
  /// (sim_runs / compute wall time); 0 until the first compute.
  double sim_runs_per_second = 0.0;
  // Analytic engine work (core::EngineCounters over every compute).
  std::uint64_t engine_lattice_cells = 0;  ///< (n, m) shapes W-searched
  std::uint64_t engine_w_probes = 0;       ///< exact-model H(W) evaluations
  std::uint64_t engine_full_bracket_fallbacks = 0;  ///< pinned-edge re-runs
};

/// Outcome of one submission.
struct SubmitResult {
  std::shared_ptr<const core::SweepTable> table;
  core::GridSignature signature;
  bool cache_hit = false;         ///< served from the table cache
  bool disk_hit = false;          ///< the hit was lazily reloaded from disk
  bool joined_in_flight = false;  ///< deduped onto a concurrent submission
  /// The compute consumed at least one cross-grid seed (diagnostics only:
  /// the table is bit-identical with or without seeds).
  bool seeded = false;
};

class SweepService {
 public:
  explicit SweepService(ServiceOptions options = {});
  ~SweepService();

  /// Serves a parsed request; request.numeric_optimum overrides the
  /// service-level sweep option (and participates in the signature). When
  /// `sink` is non-null every cell of the result is delivered exactly
  /// once: live from the runner on a compute, replayed in table order on
  /// a cache hit or in-flight join. submit() is safe to call from
  /// multiple threads (but not from inside a pool task).
  ///
  /// `cancel` is polled at cell granularity on every path (compute and
  /// replay); when it fires, submit throws core::SweepCancelled and no
  /// partial table is published or returned. A submission whose compute
  /// leader gets cancelled by a DIFFERENT caller's token does not fail:
  /// the joiner transparently retries (re-checking the cache, possibly
  /// becoming the new leader under its own token).
  SubmitResult submit(const ScenarioRequest& request,
                      core::CellSink* sink = nullptr,
                      core::CancelToken cancel = {});

  /// Grid-level variant using the service's sweep options as-is.
  SubmitResult submit(const core::ScenarioGrid& grid,
                      core::CellSink* sink = nullptr,
                      core::CancelToken cancel = {});

  /// The signature submit(request) will use (the request's
  /// numeric_optimum applied over the service sweep options). Lets
  /// front-ends build per-request sinks before submitting.
  [[nodiscard]] core::GridSignature signature_for(
      const ScenarioRequest& request) const;

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] SweepCache& cache() noexcept { return cache_; }
  [[nodiscard]] const SweepCache& cache() const noexcept { return cache_; }
  /// The simulate-mode companion: shares this service's cache and
  /// executor pool, serves "mode": "simulate" requests (see
  /// sim_service.hpp). Its counters fold into stats() as the sim block.
  [[nodiscard]] SimService& sim() noexcept { return *sim_; }
  [[nodiscard]] const SimService& sim() const noexcept { return *sim_; }
  /// Number of tables actually computed (cache misses that led compute);
  /// lets tests assert that concurrent identical submissions deduped.
  [[nodiscard]] std::uint64_t tables_computed() const noexcept {
    return tables_computed_.load(std::memory_order_relaxed);
  }

  /// Snapshot of every service/cache counter (see ServiceStats).
  [[nodiscard]] ServiceStats stats() const;

 private:
  using TablePtr = std::shared_ptr<const core::SweepTable>;

  SubmitResult submit_impl(const core::ScenarioGrid& grid,
                           const core::SweepOptions& sweep,
                           core::CellSink* sink, bool reuse_seeds,
                           const core::CancelToken& cancel);

  ServiceOptions options_;
  SweepCache cache_;
  std::unique_ptr<SimService> sim_;  // after cache_: shares it, so it must
                                     // be destroyed first
  std::mutex in_flight_mutex_;
  std::unordered_map<std::uint64_t, std::shared_future<TablePtr>> in_flight_;
  std::atomic<std::uint64_t> tables_computed_{0};
  std::atomic<std::uint64_t> submits_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> joins_{0};
  std::atomic<std::uint64_t> seeded_computes_{0};
  std::atomic<std::uint64_t> deadline_timeouts_{0};
  core::EngineCounters engine_;  // every compute's optimizer counts here
};

}  // namespace resilience::service

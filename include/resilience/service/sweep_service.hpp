#pragma once

// The serving front-end over both engines: submit scenario batches, get
// shared immutable tables back, and optionally stream cells as they
// resolve. submit() runs the analytic sweep engine, simulate() the Monte
// Carlo compute step (sim_service.hpp); both climb one reuse ladder:
//
//   1. cache hit    — the table was computed before (same signature), in
//                     memory or spilled to the cache_dir disk tier; cells
//                     replay from it in table order.
//   2. in-flight    — another submission of the same signature is being
//      join           computed right now; this call waits for it instead
//                     of computing a duplicate, then replays cells.
//   3. compute      — this call leads: it runs the mode's compute step
//                     (streaming cells live), publishes the table to the
//                     cache, and wakes joiners. An analytic leader also
//                     consults the seed tier: cached tables sharing chains
//                     (same platform + cost override + family +
//                     result-affecting options) let the runner reuse
//                     bit-equal points outright and warm-start the new
//                     ones from the nearest cached optima (request flag
//                     `reuse_seeds`, on by default).
//
// The event loop climbs a shorter ladder (Rungs::kReplayOnly): a
// memory-tier hit that passes the collision guard replays as rung 1
// does; anything else is a miss that delivers and counts nothing, with
// no spill load, no join and no compute, and the caller hands the
// request to a worker, which climbs the whole ladder.
//
// A hit or join must pass the collision guard (the table OF this
// request's resolved grid, mode and header: simulate's is its SimParams);
// one that fails is recomputed for this call alone and never published.
// The identity lookup and the in-flight registration share one lock and
// a leader publishes before it leaves the in-flight map, so identical
// concurrent submissions compute exactly once. Whatever path serves a
// request, the delivered cell set and the returned table are
// bit-identical — reuse is an optimization, never a relaxation.

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "resilience/core/sweep.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/service/sweep_cache.hpp"

namespace resilience::service {

/// How a service runs; nothing here can change a result: every request
/// runs under its own ResolvedRequest::sweep, so daemons and shards sign
/// a request alike.
struct ServiceOptions {
  struct {
    /// Pool the sweep chains and the simulate campaigns fan out across
    /// (nullptr = the global pool).
    util::ThreadPool* pool = nullptr;
  } sweep;
  /// LRU capacity in tables, analytic and simulate together; 0 disables
  /// caching (every submit computes).
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
  // Submission outcomes: analytic submits, except joined_in_flight and
  // deadline_timeouts, which count both modes.
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
  // Simulate submits and Monte Carlo work.
  std::uint64_t sim_submits = 0;
  std::uint64_t sim_cache_hits = 0;   ///< served from the table cache
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

/// Outcome of one submission; `Table` is core::SweepTable (submit) or
/// SimTable (simulate).
template <class Table>
struct BasicSubmitResult {
  std::shared_ptr<const Table> table;
  core::GridSignature signature;
  bool cache_hit = false;         ///< served from the table cache
  bool disk_hit = false;          ///< the hit was lazily reloaded from disk
  bool joined_in_flight = false;  ///< deduped onto a concurrent submission
  /// The compute consumed at least one cross-grid seed (analytic only;
  /// diagnostics: the table is bit-identical with or without seeds).
  bool seeded = false;
};
using SubmitResult = BasicSubmitResult<core::SweepTable>;
using SimSubmitResult = BasicSubmitResult<SimTable>;

/// Receives every finished simulate cell exactly once, in canonical table
/// order (live on a compute, replayed on a cache hit or join).
using SimCellFn = std::function<void(const SimCell&)>;

/// The rungs of the reuse ladder one call may climb (top of this file).
enum class Rungs {
  kAll,
  /// Only a memory-tier hit that passes the collision guard, replayed
  /// and counted as a cache hit. On anything else the result's table is
  /// null, and no cell was delivered and no counter moved.
  kReplayOnly,
};

class SweepService {
 public:
  explicit SweepService(ServiceOptions options = {});

  /// Serves a resolved analytic request under request.sweep and
  /// request.signature. Throws std::invalid_argument on a "mode":
  /// "simulate" request. When `sink` is non-null every cell of the result
  /// is delivered exactly once: live from the runner on a compute,
  /// replayed in table order on a cache hit or in-flight join. submit()
  /// is safe to call from multiple threads (but not from inside a pool
  /// task).
  ///
  /// `cancel` is polled at cell granularity on every path (compute and
  /// replay) and while waiting on a leader; when it fires, submit throws
  /// core::SweepCancelled and no partial table is published or returned.
  /// A submission whose compute leader gets cancelled by a DIFFERENT
  /// caller's token does not fail: the joiner transparently retries
  /// (re-checking the cache, possibly becoming the new leader under its
  /// own token).
  ///
  /// `rungs` kReplayOnly climbs only the replay of a memory-resident
  /// table (see Rungs); the result's table is null on a miss.
  SubmitResult submit(const ResolvedRequest& request,
                      core::CellSink* sink = nullptr,
                      core::CancelToken cancel = {},
                      Rungs rungs = Rungs::kAll);

  /// Serves a resolved "mode": "simulate" request through the same
  /// ladder, with the same cancellation, thread-safety and `rungs`
  /// contract as submit(); throws std::invalid_argument on an analytic
  /// request.
  SimSubmitResult simulate(const ResolvedRequest& request,
                           const SimCellFn& sink = nullptr,
                           core::CancelToken cancel = {},
                           Rungs rungs = Rungs::kAll);

  /// Forwards for callers holding an unresolved request or a bare grid
  /// (tests, benchmarks); the serving paths pass the resolved request.
  SubmitResult submit(const ScenarioRequest& request,
                      core::CellSink* sink = nullptr,
                      core::CancelToken cancel = {}) {
    return submit(resolve_request(request), sink, std::move(cancel));
  }
  SubmitResult submit(const core::ScenarioGrid& grid,
                      core::CellSink* sink = nullptr,
                      core::CancelToken cancel = {}) {
    ScenarioRequest request;
    request.grid = grid;
    return submit(request, sink, std::move(cancel));
  }
  SimSubmitResult simulate(const ScenarioRequest& request,
                           const SimCellFn& sink = nullptr,
                           core::CancelToken cancel = {}) {
    return simulate(resolve_request(request), sink, std::move(cancel));
  }
  [[nodiscard]] core::GridSignature signature_for(
      const ScenarioRequest& request) const {
    return resolve_request(request).signature;
  }

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] SweepCache& cache() noexcept { return cache_; }
  [[nodiscard]] const SweepCache& cache() const noexcept { return cache_; }

  /// Snapshot of every service/cache counter (see ServiceStats).
  [[nodiscard]] ServiceStats stats() const;

  /// Forwards for the benchmark package's tracer, which still calls
  /// service.sim().submit and .signature_for; nothing in this project
  /// does. ROADMAP 7(c) deletes them once 7(b) has moved the tracer.
  struct SimView {
    SweepService& service;
    SimSubmitResult submit(const ScenarioRequest& request,
                           const SimCellFn& sink = nullptr) {
      return service.simulate(request, sink);
    }
    [[nodiscard]] core::GridSignature signature_for(
        const ScenarioRequest& request) const {
      return service.signature_for(request);
    }
  };
  [[nodiscard]] SimView sim() noexcept { return SimView{*this}; }

 private:
  /// Per-mode submission counters.
  struct ModeCounters {
    std::atomic<std::uint64_t> submits{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> disk_hits{0};
  };

  /// The one reuse ladder (top of this file) for `request`'s table.
  /// Per mode: `header` is its table's header, `compute(lead)` the
  /// compute step (lead is false for an unpublished collision recompute)
  /// and `deliver` a replay's per-cell sink.
  template <class Table, class Compute, class Deliver>
  BasicSubmitResult<Table> climb(const ResolvedRequest& request,
                                 const decltype(Table::header)& header,
                                 ModeCounters& counters,
                                 const Compute& compute,
                                 const Deliver& deliver,
                                 const core::CancelToken& cancel);

  /// The replay-only rung (Rungs::kReplayOnly) over the same per-mode
  /// arguments.
  template <class Table, class Deliver>
  BasicSubmitResult<Table> replay_resident(
      const ResolvedRequest& request, const decltype(Table::header)& header,
      ModeCounters& counters, const Deliver& deliver,
      const core::CancelToken& cancel);

  ServiceOptions options_;
  SweepCache cache_;
  /// Tables being computed, by signature; the lookup and the registration
  /// happen under this lock (lock order: this, then the cache's).
  std::mutex in_flight_mutex_;
  std::unordered_map<std::uint64_t, std::shared_future<SweepCache::Table>>
      in_flight_;
  ModeCounters analytic_;
  ModeCounters simulate_;
  std::atomic<std::uint64_t> joins_{0};
  std::atomic<std::uint64_t> deadline_timeouts_{0};
  std::atomic<std::uint64_t> tables_computed_{0};
  std::atomic<std::uint64_t> seeded_computes_{0};
  core::EngineCounters engine_;  // every compute's optimizer counts here
  // Monte Carlo work over every simulate compute.
  std::atomic<std::uint64_t> sim_cells_{0};
  std::atomic<std::uint64_t> sim_runs_{0};
  std::atomic<std::uint64_t> sim_early_stops_{0};
  std::atomic<std::uint64_t> sim_compute_micros_{0};
};

}  // namespace resilience::service

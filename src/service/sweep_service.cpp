#include "resilience/service/sweep_service.hpp"

#include <atomic>
#include <utility>
#include <vector>

#include "resilience/service/sim_service.hpp"

namespace resilience::service {

namespace {

/// Cache hits and joins deliver the already-finished table's cells in
/// point-major table order (a valid instance of the "delivery order may
/// vary" contract — contents are bit-identical to the live stream's).
/// Polls the token per cell like the runner does, so even a replay honors
/// deadlines/disconnects (in practice replays are memory-speed and finish
/// long before a sane deadline).
void replay(const core::SweepTable& table, core::CellSink* sink,
            const core::CancelToken& cancel) {
  if (sink == nullptr) {
    return;
  }
  for (const core::SweepCell& cell : table.cells) {
    if (cancel.cancelled()) {
      throw core::SweepCancelled(cancel.deadline_expired());
    }
    sink->on_cell(cell);
  }
}

/// The SeedSource the runner consults on a seeded compute: per-chain
/// lookups against the cache's seed index (memory + verified disk).
/// Thread-safe — chains query it concurrently from the pool.
class CacheSeedSource final : public core::SeedSource {
 public:
  CacheSeedSource(SweepCache& cache, const core::SweepOptions& options)
      : cache_(cache), options_(options) {}

  std::vector<core::ChainSeed> seeds_for(
      const core::GridChain& chain) override {
    std::vector<core::ChainSeed> seeds = cache_.seeds_for(chain.key, options_);
    if (!seeds.empty()) {
      supplied_.fetch_add(1, std::memory_order_relaxed);
    }
    return seeds;
  }

  /// Number of chains that received at least one seed.
  [[nodiscard]] std::uint64_t supplied() const noexcept {
    return supplied_.load(std::memory_order_relaxed);
  }

 private:
  SweepCache& cache_;
  const core::SweepOptions& options_;
  std::atomic<std::uint64_t> supplied_{0};
};

}  // namespace

SweepService::SweepService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_dir),
      sim_(std::make_unique<SimService>(&cache_, options_.sweep.pool)) {}

SweepService::~SweepService() = default;

SubmitResult SweepService::submit(const ScenarioRequest& request,
                                  core::CellSink* sink,
                                  core::CancelToken cancel) {
  core::SweepOptions sweep = options_.sweep;
  sweep.numeric_optimum = request.numeric_optimum;
  return submit_impl(request.grid, sweep, sink, request.reuse_seeds, cancel);
}

SubmitResult SweepService::submit(const core::ScenarioGrid& grid,
                                  core::CellSink* sink,
                                  core::CancelToken cancel) {
  return submit_impl(grid, options_.sweep, sink, /*reuse_seeds=*/true, cancel);
}

core::GridSignature SweepService::signature_for(
    const ScenarioRequest& request) const {
  core::SweepOptions sweep = options_.sweep;
  sweep.numeric_optimum = request.numeric_optimum;
  return core::grid_signature(request.grid, sweep);
}

ServiceStats SweepService::stats() const {
  ServiceStats stats;
  stats.submits = submits_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  stats.joined_in_flight = joins_.load(std::memory_order_relaxed);
  stats.tables_computed = tables_computed_.load(std::memory_order_relaxed);
  stats.seeded_computes = seeded_computes_.load(std::memory_order_relaxed);
  stats.deadline_timeouts = deadline_timeouts_.load(std::memory_order_relaxed);
  stats.cache_lookup_hits = cache_.hits();
  stats.cache_lookup_misses = cache_.misses();
  stats.seed_hits = cache_.seed_hits();
  stats.disk_loads = cache_.disk_loads();
  stats.disk_rejects = cache_.disk_rejects();
  stats.cache_size = cache_.size();
  stats.cache_capacity = cache_.capacity();
  stats.sim_submits = sim_->submits();
  stats.sim_cache_hits = sim_->cache_hits();
  stats.sim_disk_hits = sim_->disk_hits();
  stats.sim_cells = sim_->cells_computed();
  stats.sim_runs = sim_->runs_executed();
  stats.sim_early_stops = sim_->early_stops();
  stats.sim_runs_per_second = sim_->runs_per_second();
  stats.engine_lattice_cells =
      engine_.lattice_cells.load(std::memory_order_relaxed);
  stats.engine_w_probes = engine_.w_probes.load(std::memory_order_relaxed);
  stats.engine_full_bracket_fallbacks =
      engine_.full_bracket_fallbacks.load(std::memory_order_relaxed);
  return stats;
}

SubmitResult SweepService::submit_impl(const core::ScenarioGrid& grid,
                                       const core::SweepOptions& sweep,
                                       core::CellSink* sink, bool reuse_seeds,
                                       const core::CancelToken& cancel) {
  try {
    submits_.fetch_add(1, std::memory_order_relaxed);
    // One resolve serves validation, the signature and collision checks.
    const std::vector<core::ScenarioPoint> points = core::resolve_points(grid);
    const std::vector<core::PatternKind> kinds = grid.resolved_kinds();
    const core::GridSignature signature =
        core::grid_signature(points, kinds, sweep);

    // Cross-grid seeding only helps numeric sweeps; the sweep options the
    // seed source verifies disk loads against must be the signature's (no
    // seed_source field set, so the key/signature derivations agree).
    const bool seeds_enabled =
        reuse_seeds && options_.reuse_seeds && sweep.numeric_optimum;
    CacheSeedSource seed_source(cache_, sweep);

    const auto compute = [&](bool with_seeds) -> TablePtr {
      core::SweepOptions run_options = sweep;
      // Explicitly null on cold computes: a caller may have parked their own
      // seed source on ServiceOptions.sweep, and reuse_seeds=false (or a
      // collision recompute) must mean genuinely cold.
      run_options.seed_source = with_seeds ? &seed_source : nullptr;
      run_options.cancel = cancel;
      run_options.optimizer.counters = &engine_;
      const core::SweepRunner runner(run_options);
      return sink != nullptr ? std::make_shared<const core::SweepTable>(
                                   runner.run(grid, *sink))
                             : std::make_shared<const core::SweepTable>(
                                   runner.run(grid));
    };

    // The reuse ladder retries from the top when a compute LEADER this
    // call was following gets cancelled by its own client's token — the
    // failure is the leader's, not ours; by the next iteration the table
    // may be cached (another leader won) or this call becomes the leader
    // under its own token. Our own cancellation always exits via throw.
    for (;;) {
      if (cancel.cancelled()) {
        throw core::SweepCancelled(cancel.deadline_expired());
      }

      bool disk_hit = false;
      if (TablePtr table = cache_.find(signature, sweep, &disk_hit)) {
        if (!table_matches_grid(*table, points, kinds)) {
          // Signature collision: compute this grid directly, bypassing the
          // cache (two colliding grids cannot share the signature-keyed
          // slot).
          TablePtr fresh = compute(/*with_seeds=*/false);
          tables_computed_.fetch_add(1, std::memory_order_relaxed);
          return {std::move(fresh), signature, /*cache_hit=*/false,
                  /*disk_hit=*/false, /*joined_in_flight=*/false,
                  /*seeded=*/false};
        }
        replay(*table, sink, cancel);
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        if (disk_hit) {
          disk_hits_.fetch_add(1, std::memory_order_relaxed);
        }
        return {std::move(table), signature, /*cache_hit=*/true, disk_hit,
                /*joined_in_flight=*/false, /*seeded=*/false};
      }

      // Miss: either join a concurrent computation of the same signature
      // or become its leader. The promise lives on the heap so the leader
      // can fulfill it after dropping the lock.
      std::shared_ptr<std::promise<TablePtr>> promise;
      std::shared_future<TablePtr> future;
      {
        const std::lock_guard<std::mutex> lock(in_flight_mutex_);
        const auto it = in_flight_.find(signature.value);
        if (it != in_flight_.end()) {
          future = it->second;
        } else {
          promise = std::make_shared<std::promise<TablePtr>>();
          future = promise->get_future().share();
          in_flight_.emplace(signature.value, future);
        }
      }

      if (promise == nullptr) {  // follower: wait, then replay
        TablePtr table;
        try {
          table = future.get();  // rethrows the leader's failure
        } catch (const core::SweepCancelled&) {
          continue;  // the LEADER was cancelled, not us — retry the ladder
        }
        if (!table_matches_grid(*table, points, kinds)) {
          TablePtr fresh = compute(/*with_seeds=*/false);  // in-flight collision
          tables_computed_.fetch_add(1, std::memory_order_relaxed);
          return {std::move(fresh), signature, /*cache_hit=*/false,
                  /*disk_hit=*/false, /*joined_in_flight=*/false,
                  /*seeded=*/false};
        }
        replay(*table, sink, cancel);
        joins_.fetch_add(1, std::memory_order_relaxed);
        return {std::move(table), signature, /*cache_hit=*/false,
                /*disk_hit=*/false, /*joined_in_flight=*/true,
                /*seeded=*/false};
      }

      TablePtr table;
      try {
        table = compute(seeds_enabled);
      } catch (...) {
        promise->set_exception(std::current_exception());
        const std::lock_guard<std::mutex> lock(in_flight_mutex_);
        in_flight_.erase(signature.value);
        throw;
      }
      tables_computed_.fetch_add(1, std::memory_order_relaxed);
      const bool seeded = seed_source.supplied() > 0;
      if (seeded) {
        seeded_computes_.fetch_add(1, std::memory_order_relaxed);
      }

      // Publish to the cache — chains indexed so future related grids can
      // seed from this table — before waking joiners/erasing the in-flight
      // entry, so a submission arriving at any interleaving finds the
      // table through one of the reuse paths.
      cache_.insert(signature, table, core::grid_chains(grid, sweep));
      promise->set_value(table);
      {
        const std::lock_guard<std::mutex> lock(in_flight_mutex_);
        in_flight_.erase(signature.value);
      }
      return {std::move(table), signature, /*cache_hit=*/false,
              /*disk_hit=*/false, /*joined_in_flight=*/false, seeded};
    }
  } catch (const core::SweepCancelled& cancelled) {
    if (cancelled.deadline_expired()) {
      deadline_timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    throw;
  }
}

}  // namespace resilience::service

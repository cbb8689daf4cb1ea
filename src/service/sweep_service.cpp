#include "resilience/service/sweep_service.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "resilience/service/sim_service.hpp"

namespace resilience::service {

namespace {

/// How often a joiner waiting on a leader re-checks its own token.
constexpr std::chrono::milliseconds kJoinPoll{1};

void throw_if_cancelled(const core::CancelToken& cancel) {
  if (cancel.cancelled()) {
    throw core::SweepCancelled(cancel.deadline_expired());
  }
}

/// The collision guard: `table` is the table OF `request`'s resolved grid
/// and of its mode's `header`.
template <class Table>
bool serves(const Table& table, const ResolvedRequest& request,
            const decltype(Table::header)& header) {
  return table_matches_grid(table, request.points, request.kinds) &&
         headers_bit_identical(table.header, header);
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
      cache_(options_.cache_capacity, options_.cache_dir) {}

SubmitResult SweepService::submit(const ResolvedRequest& request,
                                  core::CellSink* sink,
                                  core::CancelToken cancel, Rungs rungs) {
  if (request.request.simulate) {
    throw std::invalid_argument("SweepService::submit: a simulate request");
  }
  const auto deliver = [sink](const core::SweepCell& cell) {
    if (sink != nullptr) {
      sink->on_cell(cell);
    }
  };
  if (rungs == Rungs::kReplayOnly) {
    return replay_resident<core::SweepTable>(request, {}, analytic_, deliver,
                                             cancel);
  }
  // Cross-grid seeding only helps numeric sweeps; the seed source
  // verifies disk loads under the request's own sweep options.
  const bool seeds_enabled = request.request.reuse_seeds &&
                             options_.reuse_seeds &&
                             request.sweep.numeric_optimum;
  CacheSeedSource seed_source(cache_, request.sweep);
  const auto compute = [&](bool lead) {
    core::SweepOptions run_options = request.sweep;
    run_options.pool = options_.sweep.pool;
    // A collision recompute (lead false) or reuse_seeds=false runs cold.
    run_options.seed_source = lead && seeds_enabled ? &seed_source : nullptr;
    run_options.cancel = cancel;
    run_options.optimizer.counters = &engine_;
    const core::SweepRunner runner(run_options);
    const core::ScenarioGrid& grid = request.request.grid;
    auto table = std::make_shared<const core::SweepTable>(
        sink != nullptr ? runner.run(grid, *sink) : runner.run(grid));
    tables_computed_.fetch_add(1, std::memory_order_relaxed);
    return table;
  };
  SubmitResult result = climb<core::SweepTable>(request, {}, analytic_,
                                                compute, deliver, cancel);
  // Only this call's own leading compute consults the seed source.
  result.seeded = seed_source.supplied() > 0;
  if (result.seeded) {
    seeded_computes_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

SimSubmitResult SweepService::simulate(const ResolvedRequest& request,
                                       const SimCellFn& sink,
                                       core::CancelToken cancel,
                                       Rungs rungs) {
  if (!request.request.simulate) {
    throw std::invalid_argument("SweepService::simulate: an analytic request");
  }
  const auto deliver = [&sink](const SimCell& cell) {
    if (sink) {
      sink(cell);
    }
  };
  if (rungs == Rungs::kReplayOnly) {
    return replay_resident<SimTable>(request, request.request.sim, simulate_,
                                     deliver, cancel);
  }
  const auto compute = [&](bool /*lead*/) {
    const auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const SimTable> table =
        compute_sim_table(request.points, request.kinds, request.request.sim,
                          options_.sweep.pool, sink, cancel);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    std::uint64_t runs = 0;
    std::uint64_t early_stops = 0;
    for (const SimCell& cell : table->cells) {
      runs += cell.runs;
      early_stops += cell.early_stopped ? 1 : 0;
    }
    sim_cells_.fetch_add(table->cells.size(), std::memory_order_relaxed);
    sim_runs_.fetch_add(runs, std::memory_order_relaxed);
    sim_early_stops_.fetch_add(early_stops, std::memory_order_relaxed);
    sim_compute_micros_.fetch_add(static_cast<std::uint64_t>(elapsed.count()),
                                  std::memory_order_relaxed);
    return table;
  };
  return climb<SimTable>(request, request.request.sim, simulate_, compute,
                         deliver, cancel);
}

ServiceStats SweepService::stats() const {
  const auto load = [](const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  ServiceStats stats;
  stats.submits = load(analytic_.submits);
  stats.cache_hits = load(analytic_.cache_hits);
  stats.disk_hits = load(analytic_.disk_hits);
  stats.joined_in_flight = load(joins_);
  stats.tables_computed = load(tables_computed_);
  stats.seeded_computes = load(seeded_computes_);
  stats.deadline_timeouts = load(deadline_timeouts_);
  stats.cache_lookup_hits = cache_.hits();
  stats.cache_lookup_misses = cache_.misses();
  stats.seed_hits = cache_.seed_hits();
  stats.disk_loads = cache_.disk_loads();
  stats.disk_rejects = cache_.disk_rejects();
  stats.cache_size = cache_.size();
  stats.cache_capacity = cache_.capacity();
  stats.sim_submits = load(simulate_.submits);
  stats.sim_cache_hits = load(simulate_.cache_hits);
  stats.sim_disk_hits = load(simulate_.disk_hits);
  stats.sim_cells = load(sim_cells_);
  stats.sim_runs = load(sim_runs_);
  stats.sim_early_stops = load(sim_early_stops_);
  const std::uint64_t micros = load(sim_compute_micros_);
  stats.sim_runs_per_second =
      micros == 0 ? 0.0
                  : static_cast<double>(stats.sim_runs) /
                        (static_cast<double>(micros) * 1e-6);
  stats.engine_lattice_cells = load(engine_.lattice_cells);
  stats.engine_w_probes = load(engine_.w_probes);
  stats.engine_full_bracket_fallbacks = load(engine_.full_bracket_fallbacks);
  return stats;
}

template <class Table, class Compute, class Deliver>
BasicSubmitResult<Table> SweepService::climb(
    const ResolvedRequest& request, const decltype(Table::header)& header,
    ModeCounters& counters, const Compute& compute, const Deliver& deliver,
    const core::CancelToken& cancel) {
  using TablePtr = std::shared_ptr<const Table>;
  const core::GridSignature signature = request.signature;
  counters.submits.fetch_add(1, std::memory_order_relaxed);
  try {
    // The ladder retries from the top when a compute LEADER this call
    // was following gets cancelled by its own client's token — the
    // failure is the leader's, not ours; by the next iteration the table
    // may be cached (another leader won) or this call becomes the leader
    // under its own token. Our own cancellation always exits via throw.
    for (;;) {
      throw_if_cancelled(cancel);

      // Identity lookup and in-flight registration under one lock. A
      // leader publishes to the cache before it erases its entry, so a
      // miss here always finds a running computation to join: identical
      // submissions compute once under any interleaving.
      bool disk_hit = false;
      TablePtr table;
      std::shared_ptr<std::promise<SweepCache::Table>> promise;
      std::shared_future<SweepCache::Table> future;
      {
        const std::lock_guard<std::mutex> lock(in_flight_mutex_);
        table = cache_.find<Table>(signature, request.sweep, &disk_hit);
        if (table == nullptr) {
          const auto it = in_flight_.find(signature.value);
          if (it != in_flight_.end()) {
            future = it->second;
          } else {
            promise = std::make_shared<std::promise<SweepCache::Table>>();
            future = promise->get_future().share();
            in_flight_.emplace(signature.value, future);
          }
        }
      }

      BasicSubmitResult<Table> result;
      result.signature = signature;
      if (promise != nullptr) {  // leader: compute, publish, wake joiners
        std::exception_ptr failure;
        try {
          result.table = compute(/*lead=*/true);
          // The seed tier indexes analytic tables by their chains.
          cache_.insert(signature, result.table,
                        std::is_same_v<Table, core::SweepTable>
                            ? request.chains
                            : std::vector<core::GridChain>());
        } catch (...) {
          failure = std::current_exception();
        }
        {
          const std::lock_guard<std::mutex> lock(in_flight_mutex_);
          in_flight_.erase(signature.value);
        }
        if (failure != nullptr) {
          promise->set_exception(failure);
          std::rethrow_exception(failure);
        }
        promise->set_value(result.table);
        return result;
      }

      const bool joined = table == nullptr;
      if (joined) {
        // Wait for the leader, polling our own token: a joiner's deadline
        // or disconnect fires even while its leader has none.
        while (future.wait_for(kJoinPoll) != std::future_status::ready) {
          throw_if_cancelled(cancel);
        }
        try {
          const SweepCache::Table leader = future.get();
          const TablePtr* typed = std::get_if<TablePtr>(&leader);
          table = typed != nullptr ? *typed : nullptr;
        } catch (const core::SweepCancelled&) {
          continue;  // the LEADER was cancelled, not us — retry the ladder
        }
      }
      if (table == nullptr || !serves(*table, request, header)) {
        // Signature collision (a colliding grid or header, or the other
        // mode's table): compute this request directly and publish
        // nothing — two colliding requests cannot share the
        // signature-keyed slot.
        result.table = compute(/*lead=*/false);
        return result;
      }
      for (const auto& cell : table->cells) {
        throw_if_cancelled(cancel);
        deliver(cell);
      }
      (joined ? joins_ : counters.cache_hits)
          .fetch_add(1, std::memory_order_relaxed);
      if (disk_hit) {
        counters.disk_hits.fetch_add(1, std::memory_order_relaxed);
      }
      result.table = std::move(table);
      result.cache_hit = !joined;
      result.disk_hit = disk_hit;
      result.joined_in_flight = joined;
      return result;
    }
  } catch (const core::SweepCancelled& cancelled) {
    if (cancelled.deadline_expired()) {
      deadline_timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    throw;
  }
}

template <class Table, class Deliver>
BasicSubmitResult<Table> SweepService::replay_resident(
    const ResolvedRequest& request, const decltype(Table::header)& header,
    ModeCounters& counters, const Deliver& deliver,
    const core::CancelToken& cancel) {
  BasicSubmitResult<Table> result;
  result.signature = request.signature;
  std::shared_ptr<const Table> table =
      cache_.find_resident<Table>(request.signature);
  if (table == nullptr || !serves(*table, request, header)) {
    return result;  // a miss: nothing delivered, nothing counted
  }
  // From here on, the counts climb() makes for a memory hit.
  counters.submits.fetch_add(1, std::memory_order_relaxed);
  cache_.count_hit(request.signature);
  try {
    for (const auto& cell : table->cells) {
      throw_if_cancelled(cancel);
      deliver(cell);
    }
  } catch (const core::SweepCancelled& cancelled) {
    if (cancelled.deadline_expired()) {
      deadline_timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    throw;
  }
  counters.cache_hits.fetch_add(1, std::memory_order_relaxed);
  result.table = std::move(table);
  result.cache_hit = true;
  return result;
}

}  // namespace resilience::service

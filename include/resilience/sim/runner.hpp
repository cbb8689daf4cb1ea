#pragma once

// Parallel Monte Carlo driver: fans independent simulation runs out over
// the thread pool, one RNG sub-stream per run (xoshiro jump-ahead), and
// aggregates per-run metrics into cross-run statistics.
//
// Each run's error model comes from a model maker bound at compile time:
// a callable taking the run's RNG sub-stream and returning a concrete
// model by value, called concurrently from pool workers.

#include <cstdint>
#include <vector>

#include "resilience/core/params.hpp"
#include "resilience/core/pattern.hpp"
#include "resilience/sim/engine.hpp"
#include "resilience/sim/metrics.hpp"
#include "resilience/sim/renewal.hpp"
#include "resilience/util/thread_pool.hpp"

namespace resilience::sim {

struct MonteCarloConfig {
  std::uint64_t runs = 1000;          ///< independent runs
  std::uint64_t patterns_per_run = 1000;  ///< patterns per run
  std::uint64_t seed = 0x5eedULL;     ///< base seed; run i uses sub-stream i
  /// Global index of the first run: run i of this campaign uses sub-stream
  /// first_run + i. Lets adaptive batching grow a campaign incrementally —
  /// batch [0,64) then [64,128) draws the same streams a single [0,128)
  /// campaign would — without replaying earlier runs.
  std::uint64_t first_run = 0;
  util::ThreadPool* pool = nullptr;   ///< defaults to the global pool
};

/// Result of a Monte Carlo campaign.
struct MonteCarloResult {
  AggregateMetrics aggregate;   ///< cross-run statistics
  RunMetrics totals;            ///< event totals over all runs
  std::uint64_t runs = 0;

  /// Mean simulated overhead (the quantity compared to H* throughout
  /// Section 6).
  [[nodiscard]] double mean_overhead() const { return aggregate.overhead.mean(); }
  /// 95% confidence half-width of the mean overhead.
  [[nodiscard]] double overhead_ci() const {
    return aggregate.overhead.ci_halfwidth();
  }
};

/// The default model maker: the Poisson fast path at the campaign's rates.
struct PoissonArrivals {
  core::ErrorRates rates;

  [[nodiscard]] PoissonArrivalModel operator()(util::Xoshiro256 rng) const {
    return PoissonArrivalModel(rates, rng);
  }
};

/// Runs the campaign with one model per run from `make_model`;
/// deterministic for a fixed (seed, runs, patterns, maker) even across
/// thread counts, because streams are indexed by run, not by thread.
template <typename MakeModel>
[[nodiscard]] MonteCarloResult run_monte_carlo(const core::PatternSpec& pattern,
                                               const core::ModelParams& params,
                                               const MonteCarloConfig& config,
                                               const MakeModel& make_model) {
  params.validate();
  util::ThreadPool& pool = config.pool ? *config.pool : util::global_pool();

  // Per-run metrics are collected positionally, then folded sequentially so
  // the aggregate is independent of scheduling order.
  std::vector<RunMetrics> per_run(config.runs);

  // Runs are batched per ticket range so each worker derives its RNG
  // sub-streams incrementally: one jump per run after the initial seek
  // instead of `run_index` jumps per run. Streams stay indexed by run, so
  // the campaign is bit-identical across thread counts and grains.
  pool.parallel_for_ranges(config.runs, [&](std::size_t begin, std::size_t end) {
    util::Xoshiro256 stream_rng =
        util::Xoshiro256::stream(config.seed, config.first_run + begin);
    for (std::size_t run_index = begin; run_index < end; ++run_index) {
      auto errors = make_model(stream_rng);
      stream_rng.jump();
      per_run[run_index] =
          simulate_patterns(pattern, params, errors, config.patterns_per_run);
    }
  });

  MonteCarloResult result;
  result.runs = config.runs;
  for (const auto& run : per_run) {
    result.aggregate.add_run(run);
    result.totals.merge(run);
  }
  return result;
}

/// The same campaign on the Poisson fast path.
[[nodiscard]] inline MonteCarloResult run_monte_carlo(
    const core::PatternSpec& pattern, const core::ModelParams& params,
    const MonteCarloConfig& config = {}) {
  return run_monte_carlo(pattern, params, config, PoissonArrivals{params.rates});
}

}  // namespace resilience::sim

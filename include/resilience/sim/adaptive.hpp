#pragma once

// CI-bounded adaptive Monte Carlo: grows a campaign in deterministic
// batches until the relative 95% confidence interval of the mean overhead
// drops below a target (or a hard run cap is hit). Determinism contract:
// the batch schedule is a pure function of (min_runs, max_runs) — batch
// boundaries double from min_runs — and every run draws the RNG
// sub-stream indexed by its GLOBAL run number (MonteCarloConfig::
// first_run), so run i computes identical bits whether it executed in the
// first batch or the fifth, on 1 thread or 8. Raising max_runs can only
// append runs past the old cap (it truncates nothing but the final
// batch), so a cell that stops on target_ci below both caps is
// bit-identical under either — the "a misleading max_runs can cap but
// never change" property the service's byte-identity gate relies on.
//
// check_cancel is polled between batches and, inside runs, on every
// 4096th arrival a model draws (ArrivalModel::poll_with), so a deadline or
// a disconnect interrupts even a run stuck in an error storm.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>

#include "resilience/sim/runner.hpp"

namespace resilience::sim {

struct AdaptiveConfig {
  std::uint64_t seed = 0x5eedULL;
  /// Relative CI target: stop once ci_halfwidth / |mean overhead| falls
  /// below this (evaluated at batch boundaries, never mid-batch). 0
  /// disables the test — the campaign always runs to max_runs.
  double target_ci = 0.0;
  std::uint64_t max_runs = 1000;  ///< hard cap; always >= min_runs
  std::uint64_t min_runs = 64;    ///< first batch; no stopping before this
  std::uint64_t patterns_per_run = 100;
  util::ThreadPool* pool = nullptr;
  /// Polled between batches and inside runs (see above), concurrently
  /// from pool workers; throw to abandon the campaign (the service passes
  /// a lambda that throws SweepCancelled on deadline/disconnect).
  std::function<void()> check_cancel;
};

struct AdaptiveResult {
  AggregateMetrics aggregate;  ///< cross-run statistics over all batches
  RunMetrics totals;           ///< event totals over all batches
  std::uint64_t runs = 0;      ///< runs actually executed
  bool early_stopped = false;  ///< target_ci met before max_runs

  [[nodiscard]] double mean_overhead() const {
    return aggregate.overhead.mean();
  }
  [[nodiscard]] double overhead_ci() const {
    return aggregate.overhead.ci_halfwidth();
  }
};

/// Runs batches of run_monte_carlo with `make_model`'s models until the
/// stopping rule fires. Bit-identical across pool sizes for fixed (seed,
/// target_ci, max_runs, min_runs, patterns_per_run, maker). The maker must
/// build arrival-driven models, which take the check (poll_with).
template <typename MakeModel>
[[nodiscard]] AdaptiveResult run_adaptive_monte_carlo(
    const core::PatternSpec& pattern, const core::ModelParams& params,
    const AdaptiveConfig& config, const MakeModel& make_model) {
  if (config.max_runs == 0) {
    throw std::invalid_argument("run_adaptive_monte_carlo: max_runs == 0");
  }
  const std::uint64_t min_runs =
      std::min(std::max<std::uint64_t>(1, config.min_runs), config.max_runs);
  const auto polled = [&](util::Xoshiro256 rng) {
    auto errors = make_model(rng);
    errors.poll_with(config.check_cancel);
    return errors;
  };

  AdaptiveResult result;
  while (result.runs < config.max_runs) {
    if (config.check_cancel) {
      config.check_cancel();
    }
    // Doubling schedule: 64, 64, 128, 256, ... (cumulative 64, 128, 256,
    // 512, ...). Boundaries depend only on min_runs, so max_runs can
    // truncate the FINAL batch but never move an earlier boundary.
    const std::uint64_t planned = result.runs == 0 ? min_runs : result.runs;
    const std::uint64_t batch =
        std::min(planned, config.max_runs - result.runs);

    MonteCarloConfig mc;
    mc.runs = batch;
    mc.patterns_per_run = config.patterns_per_run;
    mc.seed = config.seed;
    mc.first_run = result.runs;  // global run indexing: batches continue
    mc.pool = config.pool;
    const MonteCarloResult step = run_monte_carlo(pattern, params, mc, polled);

    // Sequential fold in schedule order: Chan's merge is deterministic for
    // a fixed batch sequence, so the aggregate is pool-size independent.
    result.aggregate.merge(step.aggregate);
    result.totals.merge(step.totals);
    result.runs += step.runs;

    if (config.target_ci > 0.0 && result.runs >= min_runs) {
      const double mean = std::fabs(result.aggregate.overhead.mean());
      const double half = result.aggregate.overhead.ci_halfwidth();
      // Guard the denominator: a zero-overhead cell stops on an absolute
      // test instead of dividing by zero.
      const double relative = half / std::max(mean, 1e-300);
      if (relative <= config.target_ci) {
        result.early_stopped = result.runs < config.max_runs;
        return result;
      }
    }
  }
  return result;
}

/// The same campaign on the Poisson fast path.
[[nodiscard]] inline AdaptiveResult run_adaptive_monte_carlo(
    const core::PatternSpec& pattern, const core::ModelParams& params,
    const AdaptiveConfig& config) {
  return run_adaptive_monte_carlo(pattern, params, config,
                                  PoissonArrivals{params.rates});
}

}  // namespace resilience::sim

// Tests for the parallel Monte Carlo runner.

#include "resilience/sim/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "resilience/core/first_order.hpp"
#include "resilience/core/platform.hpp"
#include "resilience/sim/adaptive.hpp"
#include "resilience/sim/renewal.hpp"

namespace rs = resilience::sim;
namespace rc = resilience::core;
namespace ru = resilience::util;

namespace {

rc::ModelParams hera_params() { return rc::hera().model_params(); }

}  // namespace

TEST(Runner, DeterministicAcrossThreadCounts) {
  // Runs are keyed to RNG sub-streams by index, so the aggregate must be
  // bit-identical whether executed on 1, 2 or 8 threads, whatever ticket
  // ranges the pool hands out.
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 20000.0, 2, 2, 0.8);

  rs::MonteCarloConfig config;
  config.runs = 16;
  config.patterns_per_run = 20;
  config.seed = 99;

  ru::ThreadPool one(1);
  config.pool = &one;
  const auto serial = rs::run_monte_carlo(pattern, params, config);

  for (const std::size_t threads : {2u, 8u}) {
    ru::ThreadPool pool(threads);
    config.pool = &pool;
    const auto parallel = rs::run_monte_carlo(pattern, params, config);
    EXPECT_DOUBLE_EQ(serial.mean_overhead(), parallel.mean_overhead())
        << threads << " threads";
    EXPECT_EQ(serial.totals.disk_recoveries, parallel.totals.disk_recoveries);
    EXPECT_EQ(serial.totals.silent_errors, parallel.totals.silent_errors);
    EXPECT_DOUBLE_EQ(serial.totals.elapsed_seconds,
                     parallel.totals.elapsed_seconds);
  }
}

TEST(Runner, ReferenceSamplerViaFactoryStaysConsistentWithFastPath) {
  // The default campaign uses the arrival-driven fast path; binding the
  // per-operation reference sampler through a model maker must land on the
  // same mean overhead within the Monte Carlo confidence interval.
  const auto params = rc::hera().scaled_to(1u << 14).model_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 20000.0, 2, 2, 0.8);
  rs::MonteCarloConfig config;
  config.runs = 64;
  config.patterns_per_run = 50;
  config.seed = 7;

  const auto fast = rs::run_monte_carlo(pattern, params, config);
  const auto reference =
      rs::run_monte_carlo(pattern, params, config, [&](ru::Xoshiro256 rng) {
        return rs::ErrorModel(params.rates, rng);
      });

  const double ci = fast.overhead_ci() + reference.overhead_ci();
  EXPECT_NEAR(fast.mean_overhead(), reference.mean_overhead(), 2.0 * ci);
}

TEST(Runner, ObserverThreadedByPointerSeesEveryRun) {
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 10000.0, 1, 1, 1.0);
  std::atomic<std::uint64_t> completions{0};
  const rs::EventObserver observer = [&](rs::Event event, double) {
    if (event == rs::Event::kPatternCompleted) {
      completions.fetch_add(1, std::memory_order_relaxed);
    }
  };
  rs::MonteCarloConfig config;
  config.runs = 8;
  config.patterns_per_run = 5;
  config.observer = &observer;
  const auto result = rs::run_monte_carlo(pattern, params, config);
  EXPECT_EQ(completions.load(), result.totals.patterns_completed);
  EXPECT_EQ(completions.load(), 40u);
}

TEST(Runner, SeedChangesResults) {
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 20000.0, 1, 1, 1.0);
  rs::MonteCarloConfig config;
  config.runs = 8;
  config.patterns_per_run = 20;
  config.seed = 1;
  const auto a = rs::run_monte_carlo(pattern, params, config);
  config.seed = 2;
  const auto b = rs::run_monte_carlo(pattern, params, config);
  EXPECT_NE(a.totals.elapsed_seconds, b.totals.elapsed_seconds);
}

TEST(Runner, ConfidenceShrinksWithMoreRuns) {
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 20000.0, 1, 1, 1.0);
  rs::MonteCarloConfig small;
  small.runs = 10;
  small.patterns_per_run = 20;
  rs::MonteCarloConfig large = small;
  large.runs = 160;
  const auto few = rs::run_monte_carlo(pattern, params, small);
  const auto many = rs::run_monte_carlo(pattern, params, large);
  EXPECT_GT(few.overhead_ci(), many.overhead_ci());
  EXPECT_EQ(many.runs, 160u);
}

TEST(Runner, TotalsAggregateAllRuns) {
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 10000.0, 1, 1, 1.0);
  rs::MonteCarloConfig config;
  config.runs = 12;
  config.patterns_per_run = 25;
  const auto result = rs::run_monte_carlo(pattern, params, config);
  EXPECT_EQ(result.totals.patterns_completed, 12u * 25u);
  EXPECT_DOUBLE_EQ(result.totals.useful_work_seconds, 12.0 * 25.0 * 10000.0);
  // Every completed pattern commits exactly one disk checkpoint.
  EXPECT_GE(result.totals.disk_checkpoints, result.totals.patterns_completed);
}

namespace {

/// A strike storm: operations see the fail-stop rate scaled by 1000, so
/// every disk recovery of Hera@4096's PD pattern retries many times.
struct StormCell {
  rc::ModelParams params = rc::hera().scaled_to(4096).model_params();
  rc::PatternSpec pattern = rc::solve_first_order(rc::PatternKind::kD, params)
                                .to_pattern(params.costs.recall);

  [[nodiscard]] rs::RenewalErrorModel operator()(ru::Xoshiro256 rng) const {
    return rs::make_renewal_model(params.rates,
                                  rs::FailureDistribution::kExponential, 1.0,
                                  rng, 1000.0);
  }
};

}  // namespace

TEST(Runner, CancelCheckIsPolledInsideRuns) {
  // The campaign's check runs between batches AND from inside runs (every
  // 4096th arrival drawn), so it is called more often than there are
  // batches; a cell that finishes keeps the bits of an unpolled campaign.
  const StormCell storm;
  rs::AdaptiveConfig config;
  config.seed = 5;
  config.min_runs = 4;
  config.max_runs = 8;  // two batches: 4 + 4
  config.patterns_per_run = 20;
  const auto unpolled =
      rs::run_adaptive_monte_carlo(storm.pattern, storm.params, config, storm);

  std::atomic<std::uint64_t> checks{0};
  config.check_cancel = [&checks] {
    checks.fetch_add(1, std::memory_order_relaxed);
  };
  const auto polled =
      rs::run_adaptive_monte_carlo(storm.pattern, storm.params, config, storm);
  EXPECT_EQ(polled.runs, 8u);
  EXPECT_GT(checks.load(), 2u);
  EXPECT_EQ(polled.mean_overhead(), unpolled.mean_overhead());
  EXPECT_EQ(polled.totals.fail_stop_errors, unpolled.totals.fail_stop_errors);
  EXPECT_EQ(polled.totals.elapsed_seconds, unpolled.totals.elapsed_seconds);
}

TEST(Runner, ThrowingCheckAbandonsARunMidFlight) {
  // One batch of one run: the between-batch poll is the first call, so a
  // second call can only come from inside the run. Throwing there
  // abandons the campaign, on the renewal and the Poisson kernel alike.
  // Each run draws tens of thousands of arrivals, yet would finish within
  // milliseconds if nothing polled it.
  const StormCell storm;
  rs::AdaptiveConfig config;
  config.min_runs = 1;
  config.max_runs = 1;
  config.patterns_per_run = 5;
  std::atomic<int> calls{0};
  config.check_cancel = [&calls] {
    if (calls.fetch_add(1) == 1) {
      throw std::runtime_error("cancelled inside the run");
    }
  };
  EXPECT_THROW((void)rs::run_adaptive_monte_carlo(storm.pattern, storm.params,
                                                  config, storm),
               std::runtime_error);
  EXPECT_EQ(calls.load(), 2);

  rc::ModelParams poisson = storm.params;
  poisson.rates.fail_stop *= 200.0;
  calls = 0;
  EXPECT_THROW((void)rs::run_adaptive_monte_carlo(storm.pattern, poisson, config),
               std::runtime_error);
  EXPECT_EQ(calls.load(), 2);
}

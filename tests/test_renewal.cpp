// Tests for the renewal-process (non-Poisson) error model.

#include "resilience/sim/renewal.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "resilience/core/first_order.hpp"
#include "resilience/core/platform.hpp"
#include "resilience/sim/engine.hpp"
#include "resilience/sim/runner.hpp"
#include "resilience/util/stats.hpp"

namespace rs = resilience::sim;
namespace rc = resilience::core;
namespace ru = resilience::util;

namespace {

/// Sample mean of `n` inter-arrivals from a configuration.
double sample_mean(const rs::RenewalConfig& config, std::uint64_t seed, int n) {
  const rs::Interarrival interarrival(config);
  ru::Xoshiro256 rng(seed);
  ru::RunningStats stats;
  for (int i = 0; i < n; ++i) {
    stats.add(interarrival(rng));
  }
  return stats.mean();
}

}  // namespace

TEST(RenewalConfig, Validation) {
  // A law validates its configuration once, when it is built.
  rs::RenewalConfig config;
  config.mtbf = -1.0;
  EXPECT_THROW(rs::Interarrival{config}, std::invalid_argument);
  config.mtbf = 100.0;
  config.distribution = rs::FailureDistribution::kWeibull;
  config.shape = 0.0;
  EXPECT_THROW(rs::Interarrival{config}, std::invalid_argument);
  config.shape = 0.7;
  EXPECT_NO_THROW(rs::Interarrival{config});
}

class InterarrivalMeanTest
    : public ::testing::TestWithParam<std::tuple<rs::FailureDistribution, double>> {};

TEST_P(InterarrivalMeanTest, MeanEqualsMtbfForEveryDistribution) {
  // The whole point of the parameterization: distributions are compared at
  // equal failure pressure (identical mean inter-arrival time).
  const auto [distribution, shape] = GetParam();
  rs::RenewalConfig config;
  config.distribution = distribution;
  config.mtbf = 5000.0;
  config.shape = shape;
  const double mean = sample_mean(config, 11, 400000);
  EXPECT_NEAR(mean, 5000.0, 5000.0 * 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsTimesShapes, InterarrivalMeanTest,
    ::testing::Values(
        std::make_tuple(rs::FailureDistribution::kExponential, 1.0),
        std::make_tuple(rs::FailureDistribution::kWeibull, 0.5),
        std::make_tuple(rs::FailureDistribution::kWeibull, 0.7),
        std::make_tuple(rs::FailureDistribution::kWeibull, 1.5),
        std::make_tuple(rs::FailureDistribution::kLogNormal, 0.5),
        std::make_tuple(rs::FailureDistribution::kLogNormal, 1.0)));

TEST(Interarrival, WeibullShapeOneIsExponential) {
  // k = 1 Weibull is the exponential distribution: compare the variance
  // (mean^2 for exponential).
  rs::RenewalConfig config;
  config.distribution = rs::FailureDistribution::kWeibull;
  config.mtbf = 100.0;
  config.shape = 1.0;
  const rs::Interarrival interarrival(config);
  ru::Xoshiro256 rng(5);
  ru::RunningStats stats;
  for (int i = 0; i < 400000; ++i) {
    stats.add(interarrival(rng));
  }
  EXPECT_NEAR(stats.mean(), 100.0, 1.5);
  EXPECT_NEAR(stats.stddev(), 100.0, 3.0);
}

TEST(Interarrival, SubOneShapeIsBurstier) {
  // Weibull with shape < 1 has a larger coefficient of variation than the
  // exponential: more short gaps (bursts) balanced by rare long gaps.
  const auto cv = [](double shape) {
    rs::RenewalConfig config;
    config.distribution = rs::FailureDistribution::kWeibull;
    config.mtbf = 100.0;
    config.shape = shape;
    const rs::Interarrival interarrival(config);
    ru::Xoshiro256 rng(7);
    ru::RunningStats stats;
    for (int i = 0; i < 200000; ++i) {
      stats.add(interarrival(rng));
    }
    return stats.stddev() / stats.mean();
  };
  EXPECT_GT(cv(0.5), 1.3);   // exponential has CV = 1
  EXPECT_LT(cv(1.5), 0.85);  // wear-out shape is more regular
}

TEST(Interarrival, DisabledSourceIsInfinite) {
  rs::RenewalConfig config;
  config.mtbf = 0.0;
  ru::Xoshiro256 rng(9);
  const ru::Xoshiro256 before = rng;
  EXPECT_TRUE(std::isinf(rs::Interarrival(config)(rng)));
  EXPECT_EQ(rng(), ru::Xoshiro256(before)());  // no draw
}

TEST(RenewalModel, ExponentialMatchesPoissonStrikeFrequency) {
  const double lambda = 1e-3;
  rs::RenewalConfig fail;
  fail.mtbf = 1.0 / lambda;
  rs::RenewalConfig silent;
  silent.mtbf = 0.0;
  rs::RenewalErrorModel renewal(fail, silent, ru::Xoshiro256(13));

  const double window = 400.0;
  int strikes = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    strikes += renewal.sample_fail_stop(window).struck ? 1 : 0;
  }
  // For a renewal process observed over contiguous windows, the long-run
  // strike frequency per window approaches the Poisson value.
  const double expected = 1.0 - std::exp(-lambda * window);
  EXPECT_NEAR(static_cast<double>(strikes) / kSamples, expected, 0.01);
}

TEST(RenewalModel, CountdownCarriesAcrossOperations) {
  // With an (artificial) deterministic-ish long MTBF, short operations must
  // accumulate: the model cannot "forget" elapsed exposure.
  rs::RenewalConfig fail;
  fail.distribution = rs::FailureDistribution::kWeibull;
  fail.mtbf = 1000.0;
  fail.shape = 8.0;  // strongly concentrated near the mean
  rs::RenewalConfig silent;
  silent.mtbf = 0.0;
  rs::RenewalErrorModel renewal(fail, silent, ru::Xoshiro256(17));

  // Expose 2000 windows of 1s each: with inter-arrivals concentrated near
  // 1000s, we expect about two strikes.
  int strikes = 0;
  for (int i = 0; i < 2000; ++i) {
    strikes += renewal.sample_fail_stop(1.0).struck ? 1 : 0;
  }
  EXPECT_GE(strikes, 1);
  EXPECT_LE(strikes, 4);
}

TEST(RenewalModel, SilentArrivalsRespectMeanRate) {
  rs::RenewalConfig fail;
  fail.mtbf = 0.0;
  rs::RenewalConfig silent;
  silent.distribution = rs::FailureDistribution::kWeibull;
  silent.mtbf = 500.0;
  silent.shape = 0.7;
  rs::RenewalErrorModel renewal(fail, silent, ru::Xoshiro256(19));

  // Long-run fraction of 100s windows containing >= 1 arrival: not equal to
  // the Poisson value for non-exponential laws, but bounded and positive.
  int corrupted = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    corrupted += renewal.sample_silent(100.0) ? 1 : 0;
  }
  const double fraction = static_cast<double>(corrupted) / kSamples;
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.4);
}

TEST(RenewalModel, RunsThroughTheEngine) {
  const auto params = rc::hera().model_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 20000.0, 2, 3, 0.8);
  auto model = rs::make_renewal_model(params.rates,
                                      rs::FailureDistribution::kWeibull, 0.7,
                                      ru::Xoshiro256(23));
  const auto metrics = rs::simulate_patterns(pattern, params, model, 100);
  EXPECT_EQ(metrics.patterns_completed, 100u);
  EXPECT_GT(metrics.elapsed_seconds, metrics.useful_work_seconds);
}

TEST(RenewalModel, MonteCarloFactoryIsDeterministic) {
  const auto params = rc::hera().model_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 10000.0, 1, 1, 1.0);
  rs::MonteCarloConfig config;
  config.runs = 8;
  config.patterns_per_run = 20;
  const auto weibull = [&](ru::Xoshiro256 rng) {
    return rs::make_renewal_model(params.rates, rs::FailureDistribution::kWeibull,
                                  0.7, rng);
  };
  const auto a = rs::run_monte_carlo(pattern, params, config, weibull);
  const auto b = rs::run_monte_carlo(pattern, params, config, weibull);
  EXPECT_DOUBLE_EQ(a.mean_overhead(), b.mean_overhead());
  EXPECT_EQ(a.totals.fail_stop_errors, b.totals.fail_stop_errors);
}

TEST(RenewalModel, ExponentialFactoryMatchesDefaultPoissonStatistically) {
  // Same MTBF, exponential renewal vs built-in Poisson: mean overheads must
  // agree within Monte Carlo noise (they are equal in law, but consume the
  // RNG differently, so only distributional agreement is expected).
  const auto params = rc::hera().model_params();
  const auto solution = rc::solve_first_order(rc::PatternKind::kD, params);
  const auto pattern = solution.to_pattern(1.0);

  rs::MonteCarloConfig poisson;
  poisson.runs = 64;
  poisson.patterns_per_run = 60;
  const auto base = rs::run_monte_carlo(pattern, params, poisson);

  const auto alt =
      rs::run_monte_carlo(pattern, params, poisson, [&](ru::Xoshiro256 rng) {
        return rs::make_renewal_model(
            params.rates, rs::FailureDistribution::kExponential, 1.0, rng);
      });

  EXPECT_NEAR(alt.mean_overhead(), base.mean_overhead(),
              4.0 * (base.overhead_ci() + alt.overhead_ci()));
}

TEST(RenewalModel, OpsFactorDilatesOperationWindowsOnly) {
  // The faulty-operations factor: an operation window of length L is
  // exposed as factor * L and its survived time maps back by / factor, on
  // the same countdown computation windows use. Computation windows and a
  // factor of 1 are untouched; a factor <= 0 never strikes and never draws.
  const auto params = rc::hera().scaled_to(1u << 14).model_params();
  const auto make = [&](double ops) {
    return rs::make_renewal_model(params.rates,
                                  rs::FailureDistribution::kWeibull, 0.7,
                                  ru::Xoshiro256(29), ops);
  };
  auto scaled = make(0.5);
  auto plain = make(1.0);
  auto unit = make(1.0);
  auto unit_reference = make(1.0);
  for (int i = 0; i < 2000; ++i) {
    const double length = 50.0 + i % 7;
    const auto op = scaled.sample_fail_stop_op(length);
    const auto ref = plain.sample_fail_stop(0.5 * length);
    EXPECT_EQ(op.struck, ref.struck);
    EXPECT_EQ(op.time_survived, ref.time_survived / 0.5);
    const auto a = scaled.sample_fail_stop(length);
    const auto b = plain.sample_fail_stop(length);
    EXPECT_EQ(a.struck, b.struck);
    EXPECT_EQ(a.time_survived, b.time_survived);
    const auto u = unit.sample_fail_stop_op(length);
    const auto v = unit_reference.sample_fail_stop(length);
    EXPECT_EQ(u.struck, v.struck);
    EXPECT_EQ(u.time_survived, v.time_survived);
  }

  auto error_free = make(0.0);
  auto reference = make(0.0);
  for (int i = 0; i < 1000; ++i) {
    const auto op = error_free.sample_fail_stop_op(1e9);
    EXPECT_FALSE(op.struck);
    EXPECT_EQ(op.time_survived, 1e9);
  }
  // No draw happened: the two models' computation windows still agree.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(error_free.sample_fail_stop(1000.0).time_survived,
              reference.sample_fail_stop(1000.0).time_survived);
  }
}

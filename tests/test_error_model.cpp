// Tests for the simulator's error-injection model.

#include "resilience/sim/error_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "resilience/sim/renewal.hpp"
#include "resilience/util/stats.hpp"

namespace rs = resilience::sim;
namespace rc = resilience::core;
namespace ru = resilience::util;

TEST(ErrorModel, NoFailStopWhenRateZero) {
  rs::ErrorModel model({0.0, 0.0}, ru::Xoshiro256(1));
  for (int i = 0; i < 1000; ++i) {
    const auto outcome = model.sample_fail_stop(100.0);
    EXPECT_FALSE(outcome.struck);
    EXPECT_DOUBLE_EQ(outcome.time_survived, 100.0);
  }
}

TEST(ErrorModel, FailStopFrequencyMatchesPoissonLaw) {
  const double lambda = 0.01;
  const double window = 50.0;
  rs::ErrorModel model({lambda, 0.0}, ru::Xoshiro256(2));
  int strikes = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    strikes += model.sample_fail_stop(window).struck ? 1 : 0;
  }
  const double expected = 1.0 - std::exp(-lambda * window);
  EXPECT_NEAR(static_cast<double>(strikes) / kSamples, expected, 0.005);
}

TEST(ErrorModel, StrikePositionWithinWindowWithCorrectMean) {
  const double lambda = 0.02;
  const double window = 80.0;
  rs::ErrorModel model({lambda, 0.0}, ru::Xoshiro256(3));
  ru::RunningStats positions;
  while (positions.count() < 50000) {
    const auto outcome = model.sample_fail_stop(window);
    if (outcome.struck) {
      ASSERT_GE(outcome.time_survived, 0.0);
      ASSERT_LT(outcome.time_survived, window);
      positions.add(outcome.time_survived);
    }
  }
  // Eq. (3) expectation.
  const double expected = 1.0 / lambda - window / std::expm1(lambda * window);
  EXPECT_NEAR(positions.mean(), expected, expected * 0.02);
}

TEST(ErrorModel, SilentFrequencyMatchesPoissonLaw) {
  const double lambda = 5e-3;
  const double window = 100.0;
  rs::ErrorModel model({0.0, lambda}, ru::Xoshiro256(4));
  int hits = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    hits += model.sample_silent(window) ? 1 : 0;
  }
  const double expected = 1.0 - std::exp(-lambda * window);
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, expected, 0.005);
}

TEST(ErrorModel, SilentNeverFiresForZeroRateOrLength) {
  rs::ErrorModel model({0.0, 0.0}, ru::Xoshiro256(5));
  EXPECT_FALSE(model.sample_silent(100.0));
  rs::ErrorModel model2({0.0, 1.0}, ru::Xoshiro256(5));
  EXPECT_FALSE(model2.sample_silent(0.0));
}

TEST(ErrorModel, DetectionMatchesRecall) {
  rs::ErrorModel model({0.0, 0.0}, ru::Xoshiro256(6));
  int detections = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    detections += model.sample_detection(0.8) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(detections) / kSamples, 0.8, 0.01);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(model.sample_detection(1.0));
  }
}

TEST(ErrorModel, IsDeterministicForFixedSeed) {
  rs::ErrorModel a({1e-3, 1e-3}, ru::Xoshiro256(42));
  rs::ErrorModel b({1e-3, 1e-3}, ru::Xoshiro256(42));
  for (int i = 0; i < 1000; ++i) {
    const auto oa = a.sample_fail_stop(10.0);
    const auto ob = b.sample_fail_stop(10.0);
    EXPECT_EQ(oa.struck, ob.struck);
    EXPECT_DOUBLE_EQ(oa.time_survived, ob.time_survived);
    EXPECT_EQ(a.sample_silent(10.0), b.sample_silent(10.0));
  }
}

TEST(PoissonArrivalModel, NoStrikesWhenRatesZero) {
  rs::PoissonArrivalModel model({0.0, 0.0}, ru::Xoshiro256(1));
  for (int i = 0; i < 1000; ++i) {
    const auto outcome = model.sample_fail_stop(100.0);
    EXPECT_FALSE(outcome.struck);
    EXPECT_DOUBLE_EQ(outcome.time_survived, 100.0);
    EXPECT_FALSE(model.sample_silent(100.0));
  }
}

TEST(PoissonArrivalModel, ZeroLengthWindowsNeverStrike) {
  rs::PoissonArrivalModel model({1.0, 1.0}, ru::Xoshiro256(2));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(model.sample_fail_stop(0.0).struck);
    EXPECT_FALSE(model.sample_silent(0.0));
  }
}

TEST(PoissonArrivalModel, FailStopFrequencyMatchesPoissonLaw) {
  // The countdown is memoryless, so the marginal strike probability of each
  // window of length w is 1 - e^{-lambda w}, exactly as in the
  // per-operation sampler.
  const double lambda = 0.01;
  const double window = 50.0;
  rs::PoissonArrivalModel model({lambda, 0.0}, ru::Xoshiro256(3));
  int strikes = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    strikes += model.sample_fail_stop(window).struck ? 1 : 0;
  }
  const double expected = 1.0 - std::exp(-lambda * window);
  EXPECT_NEAR(static_cast<double>(strikes) / kSamples, expected, 0.005);
}

TEST(PoissonArrivalModel, StrikePositionWithinWindowWithCorrectMean) {
  const double lambda = 0.02;
  const double window = 80.0;
  rs::PoissonArrivalModel model({lambda, 0.0}, ru::Xoshiro256(4));
  ru::RunningStats positions;
  while (positions.count() < 50000) {
    const auto outcome = model.sample_fail_stop(window);
    if (outcome.struck) {
      ASSERT_GE(outcome.time_survived, 0.0);
      ASSERT_LE(outcome.time_survived, window);
      positions.add(outcome.time_survived);
    }
  }
  // Eq. (3) expectation of the conditional (truncated-exponential) law.
  const double expected = 1.0 / lambda - window / std::expm1(lambda * window);
  EXPECT_NEAR(positions.mean(), expected, expected * 0.02);
}

TEST(PoissonArrivalModel, SilentFrequencyMatchesPoissonLaw) {
  const double lambda = 5e-3;
  const double window = 100.0;
  rs::PoissonArrivalModel model({0.0, lambda}, ru::Xoshiro256(5));
  int hits = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    hits += model.sample_silent(window) ? 1 : 0;
  }
  const double expected = 1.0 - std::exp(-lambda * window);
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, expected, 0.005);
}

TEST(PoissonArrivalModel, SurvivingWindowConsumesNoRandomness) {
  // The whole point of the arrival-driven sampler: windows without an
  // arrival must not touch the RNG stream at all.
  rs::PoissonArrivalModel model({1e-9, 1e-9}, ru::Xoshiro256(6));
  const auto before = model.rng();
  for (int i = 0; i < 1000; ++i) {
    (void)model.sample_fail_stop(1.0);
    (void)model.sample_silent(1.0);
  }
  auto after = model.rng();
  auto snapshot = before;
  EXPECT_EQ(snapshot(), after());
}

TEST(PoissonArrivalModel, IsDeterministicForFixedSeed) {
  rs::PoissonArrivalModel a({1e-3, 1e-3}, ru::Xoshiro256(42));
  rs::PoissonArrivalModel b({1e-3, 1e-3}, ru::Xoshiro256(42));
  for (int i = 0; i < 1000; ++i) {
    const auto oa = a.sample_fail_stop(10.0);
    const auto ob = b.sample_fail_stop(10.0);
    EXPECT_EQ(oa.struck, ob.struck);
    EXPECT_DOUBLE_EQ(oa.time_survived, ob.time_survived);
    EXPECT_EQ(a.sample_silent(10.0), b.sample_silent(10.0));
  }
}

TEST(PoissonArrivalModel, DetectionMatchesRecall) {
  rs::PoissonArrivalModel model({0.0, 0.0}, ru::Xoshiro256(7));
  int detections = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    detections += model.sample_detection(0.8) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(detections) / kSamples, 0.8, 0.01);
}

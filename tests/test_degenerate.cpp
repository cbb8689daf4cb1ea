// Edge-of-model tests: the paper's formulas assume both error sources are
// active; these tests pin down (and document) the library's behaviour when
// one or both rates vanish or explode, so downstream users get defined
// results instead of NaNs.

#include <gtest/gtest.h>

#include <cmath>

#include "resilience/core/expected_time.hpp"
#include "resilience/core/first_order.hpp"
#include "resilience/core/platform.hpp"
#include "resilience/sim/engine.hpp"

namespace rc = resilience::core;
namespace rs = resilience::sim;
namespace ru = resilience::util;

namespace {

rc::ModelParams with_rates(double fail_stop, double silent) {
  rc::ModelParams params = rc::hera().model_params();
  params.rates = rc::ErrorRates{fail_stop, silent};
  return params;
}

}  // namespace

TEST(Degenerate, NoErrorsAtAllGivesInfinitePeriodZeroOverhead) {
  const auto params = with_rates(0.0, 0.0);
  for (const auto kind : rc::all_pattern_kinds()) {
    const auto solution = rc::solve_first_order(kind, params);
    EXPECT_TRUE(std::isinf(solution.work)) << rc::pattern_name(kind);
    EXPECT_DOUBLE_EQ(solution.overhead, 0.0) << rc::pattern_name(kind);
    // An infinite period cannot be materialized as a PatternSpec.
    EXPECT_THROW((void)solution.to_pattern(params.costs.recall),
                 std::invalid_argument);
  }
}

TEST(Degenerate, FailStopOnlyKeepsFiniteSolutions) {
  const auto params = with_rates(9.46e-7, 0.0);
  for (const auto kind : rc::all_pattern_kinds()) {
    const auto solution = rc::solve_first_order(kind, params);
    EXPECT_TRUE(std::isfinite(solution.work)) << rc::pattern_name(kind);
    EXPECT_GT(solution.overhead, 0.0) << rc::pattern_name(kind);
    // Without silent errors, extra memory checkpoints or verifications
    // cannot pay: the minimizers collapse to the base shape.
    EXPECT_EQ(solution.segments_n, 1u) << rc::pattern_name(kind);
    EXPECT_EQ(solution.chunks_m, 1u) << rc::pattern_name(kind);
  }
}

TEST(Degenerate, SilentOnlySolutionsRemainFiniteAndSimulable) {
  const auto params = with_rates(0.0, 3.38e-6);
  const auto solution = rc::solve_first_order(rc::PatternKind::kDMV, params);
  ASSERT_TRUE(std::isfinite(solution.work));
  const auto pattern = solution.to_pattern(params.costs.recall);
  const double exact = rc::evaluate_pattern(pattern, params).overhead;
  EXPECT_GT(exact, 0.0);

  rs::ErrorModel errors(params.rates, ru::Xoshiro256(1));
  const auto metrics = rs::simulate_patterns(pattern, params, errors, 50);
  EXPECT_EQ(metrics.disk_recoveries, 0u);
  EXPECT_EQ(metrics.fail_stop_errors, 0u);
  EXPECT_EQ(metrics.patterns_completed, 50u);
}

TEST(Degenerate, ExtremeRatesStillProduceOrderedOverheads) {
  // MTBF of minutes (beyond any sane deployment): formulas stay finite and
  // the two-level pattern still dominates.
  const auto params = with_rates(1e-3, 3e-3);
  const auto pd = rc::solve_first_order(rc::PatternKind::kD, params);
  const auto pdmv = rc::solve_first_order(rc::PatternKind::kDMV, params);
  EXPECT_TRUE(std::isfinite(pd.overhead));
  EXPECT_TRUE(std::isfinite(pdmv.overhead));
  EXPECT_LT(pdmv.overhead, pd.overhead);
}

TEST(Degenerate, PerfectRecallCollapsesPartialFamiliesToGuaranteedOnes) {
  // With r = 1 and V = V*, P_DV and P_DV* coincide; their first-order
  // solutions must match exactly.
  rc::ModelParams params = rc::hera().model_params();
  params.costs.recall = 1.0;
  params.costs.partial_verification = params.costs.guaranteed_verification;
  const auto pdv = rc::solve_first_order(rc::PatternKind::kDV, params);
  const auto pdvg = rc::solve_first_order(rc::PatternKind::kDVg, params);
  EXPECT_EQ(pdv.chunks_m, pdvg.chunks_m);
  EXPECT_NEAR(pdv.overhead, pdvg.overhead, 1e-12);
  EXPECT_NEAR(pdv.work, pdvg.work, 1e-6);
}

TEST(Degenerate, ZeroCostOperationsAreAccepted) {
  // Free checkpoints/verifications: the model must not divide by zero; the
  // optimal m* explodes, which the integer rounding caps at the search
  // bound rather than overflowing.
  rc::ModelParams params = rc::hera().model_params();
  params.costs.partial_verification = 0.0;
  const auto solution = rc::solve_first_order(rc::PatternKind::kDMV, params);
  EXPECT_TRUE(std::isfinite(solution.overhead));
  EXPECT_GE(solution.chunks_m, 1u);
}

TEST(Degenerate, EvaluatorMatchesClosedFormWithoutAnyErrors) {
  rc::ModelParams params = with_rates(0.0, 0.0);
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 1000.0, 1, 1, 1.0);
  const double closed = rc::evaluate_base_pattern_closed_form(1000.0, params);
  const double recursive = rc::evaluate_pattern(pattern, params).total;
  const double expected = 1000.0 + params.costs.guaranteed_verification +
                          params.costs.memory_checkpoint +
                          params.costs.disk_checkpoint;
  EXPECT_NEAR(closed, expected, 1e-9);
  EXPECT_NEAR(recursive, expected, 1e-9);
}

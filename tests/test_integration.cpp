// Cross-module integration tests: the full pipeline a downstream user
// follows — platform description -> optimal pattern -> simulation — plus
// detector selection and the numeric optimizer against simulation.

#include <gtest/gtest.h>

#include "resilience/core/expected_time.hpp"
#include "resilience/core/first_order.hpp"
#include "resilience/core/optimizer.hpp"
#include "resilience/core/platform.hpp"
#include "resilience/core/verification.hpp"
#include "resilience/sim/runner.hpp"

namespace rc = resilience::core;
namespace rs = resilience::sim;

TEST(Integration, PlatformToPatternToSimulationPipeline) {
  // examples/quickstart.cpp's path (platform -> Table 1 solution), carried
  // on through the exact model and simulation.
  const auto platform = rc::platform_by_name("hera");
  const auto params = platform.model_params();

  const auto solution = rc::solve_first_order(rc::PatternKind::kDMV, params);
  ASSERT_GT(solution.work, 0.0);
  ASSERT_GE(solution.segments_n, 1u);
  ASSERT_GE(solution.chunks_m, 1u);

  const auto pattern = solution.to_pattern(params.costs.recall);
  const double exact = rc::evaluate_pattern(pattern, params).overhead;

  rs::MonteCarloConfig config;
  config.runs = 32;
  config.patterns_per_run = 60;
  const auto result = rs::run_monte_carlo(pattern, params, config);

  EXPECT_NEAR(result.mean_overhead(), exact,
              4.0 * result.overhead_ci() + 0.01 * (1.0 + exact));
}

TEST(Integration, DetectorSelectionPrefersMeasuredCheapDetector) {
  const auto params = rc::hera().model_params();
  const std::vector<rc::Detector> candidates = {
      {"time-series", 0.154, 0.8},
      {"replication", 15.4, 1.0},
      {"spatial-interp", 0.462, 0.95},
  };
  const auto best = rc::select_best_detector(
      candidates, params.costs.guaranteed_verification,
      params.costs.memory_checkpoint);
  EXPECT_EQ(best.name, "time-series");
}

TEST(Integration, NumericOptimizerAgreesWithSimulation) {
  // The numerically optimized pattern should simulate at (or below) the
  // overhead of the first-order pattern in a high-error regime.
  const auto params = rc::hera().scaled_to(1u << 15).model_params();
  const auto kind = rc::PatternKind::kDMV;

  const auto first_order = rc::solve_first_order(kind, params);
  const auto numeric = rc::optimize_pattern(kind, params);

  rs::MonteCarloConfig config;
  config.runs = 32;
  config.patterns_per_run = 40;
  const auto sim_first =
      rs::run_monte_carlo(first_order.to_pattern(params.costs.recall), params, config);
  const auto sim_numeric = rs::run_monte_carlo(numeric.pattern, params, config);

  EXPECT_LT(sim_numeric.mean_overhead(),
            sim_first.mean_overhead() + 4.0 * sim_first.overhead_ci());
}

TEST(Integration, WeakScalingOverheadGrowsWithNodeCount) {
  // Figure 7a's qualitative shape via the exact model: overhead grows
  // monotonically under weak scaling, and P_DMV dominates P_D throughout.
  double previous_pd = 0.0;
  double previous_pdmv = 0.0;
  for (const std::size_t nodes : {1u << 8, 1u << 12, 1u << 16}) {
    const auto params = rc::hera().scaled_to(nodes).model_params();
    const auto pd = rc::solve_first_order(rc::PatternKind::kD, params);
    const auto pdmv = rc::solve_first_order(rc::PatternKind::kDMV, params);
    const double pd_exact =
        rc::evaluate_pattern(pd.to_pattern(1.0), params).overhead;
    const double pdmv_exact =
        rc::evaluate_pattern(pdmv.to_pattern(params.costs.recall), params).overhead;
    EXPECT_GT(pd_exact, previous_pd);
    EXPECT_GT(pdmv_exact, previous_pdmv);
    EXPECT_LT(pdmv_exact, pd_exact);
    previous_pd = pd_exact;
    previous_pdmv = pdmv_exact;
  }
}

// Platform advisor: compares all six pattern families on a platform, with
// the exact-model overhead and a numeric (non-first-order) refinement, and
// recommends which resilience mechanisms to deploy.
//
//   ./platform_advisor --platform coastal
//   ./platform_advisor --lambda-f 1e-5 --lambda-s 3e-5 --cd 120 --cm 5

#include <cstdio>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "resilience/core/expected_time.hpp"
#include "resilience/core/first_order.hpp"
#include "resilience/core/optimizer.hpp"
#include "resilience/core/platform.hpp"
#include "resilience/util/cli.hpp"
#include "resilience/util/table.hpp"

namespace rc = resilience::core;
namespace ru = resilience::util;

int main(int argc, char** argv) {
  ru::CliParser cli("platform_advisor", "compare all pattern families");
  cli.add_flag("platform", "hera", "catalog platform (ignored if rates given)");
  cli.add_flag("lambda-f", "0", "custom fail-stop rate (/s)");
  cli.add_flag("lambda-s", "0", "custom silent rate (/s)");
  cli.add_flag("cd", "0", "custom disk checkpoint cost (s)");
  cli.add_flag("cm", "0", "custom memory checkpoint cost (s)");
  if (!cli.parse(argc, argv)) {
    return 1;
  }

  rc::ModelParams params;
  std::string label;
  if (cli.was_set("lambda-f") || cli.was_set("lambda-s")) {
    // The service's rule for a request's platform: rates >= 0, costs > 0.
    constexpr double kMax = std::numeric_limits<double>::max();
    constexpr double kPositive = std::numeric_limits<double>::denorm_min();
    const auto lambda_f = cli.checked_double("lambda-f", 0.0, kMax);
    const auto lambda_s = cli.checked_double("lambda-s", 0.0, kMax);
    const auto cd = cli.checked_double("cd", kPositive, kMax);
    const auto cm = cli.checked_double("cm", kPositive, kMax);
    if (!lambda_f || !lambda_s || !cd || !cm) {
      return 2;
    }
    params.costs = rc::CostParams::paper_defaults(*cd, *cm);
    params.rates = {*lambda_f, *lambda_s};
    label = "custom platform";
  } else {
    const auto platform = cli.checked_name("platform", rc::platform_by_name);
    if (!platform) {
      return 2;
    }
    params = platform->model_params();
    label = platform->name;
  }
  params.validate();

  ru::Table table({"pattern", "W* (h)", "n*", "m*", "H* first-order",
                   "H exact", "H numeric-opt"});
  double best_overhead = 1e300;
  rc::PatternKind best_kind = rc::PatternKind::kD;
  try {
    for (const auto kind : rc::all_pattern_kinds()) {
      const auto solution = rc::solve_first_order(kind, params);
      const double exact =
          rc::evaluate_pattern(solution.to_pattern(params.costs.recall), params)
              .overhead;
      const auto numeric = rc::optimize_pattern(kind, params);
      table.add_row({rc::pattern_name(kind), ru::format_double(solution.work / 3600.0, 2),
                     std::to_string(solution.segments_n),
                     std::to_string(solution.chunks_m),
                     ru::format_percent(solution.overhead),
                     ru::format_percent(exact), ru::format_percent(numeric.overhead)});
      if (numeric.overhead < best_overhead) {
        best_overhead = numeric.overhead;
        best_kind = kind;
      }
    }
  } catch (const std::logic_error& error) {  // custom rates no pattern fits
    std::fprintf(stderr, "platform_advisor: --lambda-f, --lambda-s: %s\n",
                 error.what());
    return 2;
  }

  std::printf("Pattern comparison on %s (MTBF %.1f hours)\n\n", label.c_str(),
              params.rates.platform_mtbf() / 3600.0);
  table.print(std::cout);

  std::printf("\nRecommendation: use %s (%.2f%% overhead).\n",
              rc::pattern_name(best_kind).c_str(), best_overhead * 100.0);
  if (rc::uses_memory_checkpoints(best_kind)) {
    std::printf("  - deploy in-memory checkpointing between disk checkpoints\n");
  }
  if (rc::uses_partial_verifications(best_kind)) {
    std::printf("  - interleave cheap partial verifications inside segments\n");
  }
  return 0;
}

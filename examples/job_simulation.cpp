// Job simulation: estimate the wall-clock time of a long HPC campaign under
// a chosen pattern, via Monte Carlo simulation, and compare against the
// analytical prediction.
//
//   ./job_simulation --platform atlas --pattern PDMV --days 30 --runs 200

#include <cstdio>
#include <iostream>

#include "resilience/core/expected_time.hpp"
#include "resilience/core/first_order.hpp"
#include "resilience/core/platform.hpp"
#include "resilience/sim/runner.hpp"
#include "resilience/util/cli.hpp"
#include "resilience/util/table.hpp"

namespace rc = resilience::core;
namespace rs = resilience::sim;
namespace ru = resilience::util;

int main(int argc, char** argv) {
  ru::CliParser cli("job_simulation", "Monte Carlo wall-clock estimate of a job");
  cli.add_flag("platform", "hera", "hera | atlas | coastal | coastalssd");
  cli.add_flag("pattern", "PDMV", "pattern family");
  cli.add_flag("days", "30", "useful work in days");
  cli.add_flag("runs", "200", "Monte Carlo runs");
  cli.add_flag("seed", "42", "RNG seed");
  if (!cli.parse(argc, argv)) {
    return 1;
  }

  // A million days (~3.4M patterns of Hera's PDMV per run) keeps the
  // pattern count far inside 64 bits.
  const auto days = cli.checked_double("days", 0.0, 1e6);
  const auto runs = cli.checked_uint64("runs", 1);
  const auto seed = cli.checked_uint64("seed");
  const auto platform = cli.checked_name("platform", rc::platform_by_name);
  const auto kind = cli.checked_name("pattern", rc::pattern_kind_from_name);
  if (!days || !runs || !seed || !platform || !kind) {
    return 2;
  }

  const auto params = platform->model_params();
  const double work_seconds = *days * 86400.0;

  const auto solution = rc::solve_first_order(*kind, params);
  const auto pattern = solution.to_pattern(params.costs.recall);
  const auto patterns_needed =
      static_cast<std::uint64_t>(work_seconds / solution.work) + 1;

  std::printf("Simulating %.0f days of work on %s under %s "
              "(%llu patterns of %.2f h)...\n\n",
              *days, platform->name.c_str(),
              rc::pattern_name(*kind).c_str(),
              static_cast<unsigned long long>(patterns_needed),
              solution.work / 3600.0);

  rs::MonteCarloConfig config;
  config.runs = *runs;
  config.patterns_per_run = patterns_needed;
  config.seed = *seed;
  const auto result = rs::run_monte_carlo(pattern, params, config);

  const double exact =
      rc::evaluate_pattern(pattern, params).overhead;

  ru::Table table({"quantity", "value"});
  table.add_row({"first-order overhead", ru::format_percent(solution.overhead)});
  table.add_row({"exact-model overhead", ru::format_percent(exact)});
  table.add_row({"simulated overhead",
                 ru::format_percent(result.mean_overhead()) + " +/- " +
                     ru::format_percent(result.overhead_ci())});
  table.add_row({"simulated makespan",
                 ru::format_double(result.aggregate.elapsed_seconds.mean() / 86400.0,
                                   2) +
                     " days"});
  table.add_row({"disk ckpts / hour",
                 ru::format_double(result.aggregate.disk_checkpoints_per_hour.mean(), 3)});
  table.add_row({"mem ckpts / hour",
                 ru::format_double(result.aggregate.memory_checkpoints_per_hour.mean(), 3)});
  table.add_row({"verifications / hour",
                 ru::format_double(result.aggregate.verifications_per_hour.mean(), 2)});
  table.add_row({"disk recoveries / day",
                 ru::format_double(result.aggregate.disk_recoveries_per_day.mean(), 3)});
  table.add_row({"mem recoveries / day",
                 ru::format_double(result.aggregate.memory_recoveries_per_day.mean(), 3)});
  table.print(std::cout);
  return 0;
}

// Figure 6 regeneration: for each of the four platforms and each of the six
// pattern families, report
//   (a) predicted vs simulated overhead,
//   (b) optimal period W* in hours,
//   (c) disk/memory checkpoints and verifications per hour,
//   (d) checkpoint frequencies alone,
//   (e) disk/memory recoveries per day.
// Matches the five panels of the paper's Figure 6. The analytic side of
// the whole catalog (first-order solutions, exact-model evaluations and
// exact-model optima) comes out of one SweepRunner pass; only the Monte
// Carlo simulation runs per panel. All tables route through the shared
// Reporter (--json-out emits them as one JSON document).

#include <vector>

#include "bench_common.hpp"

namespace rb = resilience::bench;
namespace rc = resilience::core;
namespace ru = resilience::util;

int main(int argc, char** argv) {
  ru::CliParser cli("fig6_platforms", "regenerate Figure 6 (a-e)");
  rb::add_simulation_flags(cli, "100", "150");
  rb::add_common_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  const auto [runs, patterns, seed] = rb::parse_simulation_flags(cli);
  rb::CommonOptions common = rb::parse_common_flags(cli);

  rc::ScenarioGrid grid;
  grid.platforms = rc::all_platforms();  // kinds default to all six families
  rc::SweepOptions sweep_options;
  sweep_options.pool = common.pool();
  const auto table = rc::SweepRunner(sweep_options).run(grid);

  rb::Reporter report("fig6_platforms");
  for (std::size_t p = 0; p < table.points.size(); ++p) {
    const auto& platform = table.points[p].platform;
    std::printf("================ Platform %s ================\n\n",
                platform.name.c_str());

    std::vector<rb::SimulatedPattern> results;
    for (const auto kind : table.kinds) {
      results.push_back(
          rb::simulate_cell(table, p, kind, runs, patterns, seed, common.pool()));
    }
    const std::string prefix = platform.name + " - Figure 6";

    {
      ru::Table out({"pattern", "predicted H*", "exact-model H", "numeric-opt H",
                     "simulated H", "95% ci"});
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        out.add_row({rc::pattern_name(table.kinds[i]),
                     ru::format_percent(r.solution.overhead),
                     ru::format_percent(r.exact_overhead),
                     ru::format_percent(r.numeric_overhead),
                     ru::format_percent(r.result.mean_overhead()),
                     ru::format_percent(r.result.overhead_ci())});
      }
      report.add(prefix + "a: expected overhead (predicted vs simulated)", out);
    }

    {
      ru::Table out({"pattern", "period (h)", "numeric-opt period (h)"});
      for (std::size_t i = 0; i < results.size(); ++i) {
        out.add_row({rc::pattern_name(table.kinds[i]),
                     ru::format_double(results[i].solution.work / 3600.0, 2),
                     ru::format_double(results[i].numeric_work / 3600.0, 2)});
      }
      report.add(prefix + "b: pattern period W*", out);
    }

    {
      ru::Table out({"pattern", "disk ckpts/h", "mem ckpts/h", "verifs/h"});
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& agg = results[i].result.aggregate;
        out.add_row({rc::pattern_name(table.kinds[i]),
                     ru::format_double(agg.disk_checkpoints_per_hour.mean(), 3),
                     ru::format_double(agg.memory_checkpoints_per_hour.mean(), 3),
                     ru::format_double(agg.verifications_per_hour.mean(), 2)});
      }
      report.add(prefix +
                     "c: checkpoints and verifications per hour (simulated)",
                 out);
    }

    {
      ru::Table out({"pattern", "disk ckpts/h", "mem ckpts/h"});
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& agg = results[i].result.aggregate;
        out.add_row({rc::pattern_name(table.kinds[i]),
                     ru::format_double(agg.disk_checkpoints_per_hour.mean(), 3),
                     ru::format_double(agg.memory_checkpoints_per_hour.mean(), 3)});
      }
      report.add(prefix + "d: checkpoint frequencies alone", out);
    }

    {
      ru::Table out({"pattern", "disk recoveries/day", "mem recoveries/day"});
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& agg = results[i].result.aggregate;
        out.add_row({rc::pattern_name(table.kinds[i]),
                     ru::format_double(agg.disk_recoveries_per_day.mean(), 3),
                     ru::format_double(agg.memory_recoveries_per_day.mean(), 3)});
      }
      report.add(prefix + "e: recoveries per day (simulated)", out);
    }
  }
  return report.write(common.json_out) ? 0 : 1;
}
